package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is an immutable, deterministically ordered copy of a Registry's
// state. record.Result and replay.Result carry one so the paper tables, the
// CLIs, and the tests all read the same numbers the collector saw.
type Snapshot struct {
	Families []SnapFamily
}

// SnapFamily is one metric family in a snapshot.
type SnapFamily struct {
	Name    string
	Kind    Kind
	Buckets []float64
	Series  []SnapSeries
}

// SnapSeries is one labeled series in a snapshot.
type SnapSeries struct {
	Labels []Label
	// Value holds counter and gauge values.
	Value int64
	// Counts, Sum and Count hold histogram state; Counts has one entry per
	// bucket plus the trailing +Inf bucket.
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the registry's current state, families sorted by name and
// series by canonical label order.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		sf := SnapFamily{Name: name, Kind: f.kind}
		if f.kind == KindHistogram {
			sf.Buckets = append([]float64(nil), DefBuckets...)
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			sf.Series = append(sf.Series, SnapSeries{
				Labels: append([]Label(nil), s.labels...),
				Value:  s.value,
				Counts: append([]uint64(nil), s.counts...),
				Sum:    s.sum,
				Count:  s.count,
			})
		}
		snap.Families = append(snap.Families, sf)
	}
	return snap
}

func (s *Snapshot) family(name string) *SnapFamily {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

func labelsMatch(have, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Key == w.Key && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Counter returns the value of one counter series, or 0 if absent. A nil
// snapshot reads 0, so callers can chain off an uninstrumented run.
func (s *Snapshot) Counter(name string, labels ...Label) int64 {
	if s == nil {
		return 0
	}
	f := s.family(name)
	if f == nil {
		return 0
	}
	for i := range f.Series {
		if labelsMatch(f.Series[i].Labels, labels) {
			return f.Series[i].Value
		}
	}
	return 0
}

// Gauge returns the value of one gauge series, or 0 if absent.
func (s *Snapshot) Gauge(name string, labels ...Label) int64 {
	return s.Counter(name, labels...) // same storage shape
}

// CounterTotal sums every series of a counter family.
func (s *Snapshot) CounterTotal(name string) int64 {
	if s == nil {
		return 0
	}
	f := s.family(name)
	if f == nil {
		return 0
	}
	var total int64
	for i := range f.Series {
		total += f.Series[i].Value
	}
	return total
}

// CounterBy groups a counter family's series by the value of one label key,
// summing series that share it.
func (s *Snapshot) CounterBy(name, labelKey string) map[string]int64 {
	out := map[string]int64{}
	if s == nil {
		return out
	}
	f := s.family(name)
	if f == nil {
		return out
	}
	for i := range f.Series {
		for _, l := range f.Series[i].Labels {
			if l.Key == labelKey {
				out[l.Value] += f.Series[i].Value
				break
			}
		}
	}
	return out
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is fully deterministic: families sorted by
// name, series by canonical label order.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, f := range s.Families {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, sr := range f.Series {
			switch f.Kind {
			case KindCounter, KindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.Name,
					formatLabels(sr.Labels), sr.Value); err != nil {
					return err
				}
			case KindHistogram:
				// Observe fills buckets cumulatively, as the exposition
				// format expects.
				for i, ub := range f.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name,
						formatLabels(sr.Labels, L("le", formatFloat(ub))), sr.Counts[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name,
					formatLabels(sr.Labels, L("le", "+Inf")), sr.Counts[len(f.Buckets)]); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name,
					formatLabels(sr.Labels), formatFloat(sr.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name,
					formatLabels(sr.Labels), sr.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Prometheus renders the exposition to a string (test convenience).
func (s *Snapshot) Prometheus() string {
	var b strings.Builder
	_ = s.WritePrometheus(&b)
	return b.String()
}

// WritePrometheus exposes the registry's live state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}
