// Package obs is GR-T's zero-dependency observability layer: a metrics
// registry (counters, gauges, histograms) with Prometheus text exposition,
// and a per-session span tracer that records phase timelines on the virtual
// timesim.Clock, exportable as Chrome trace_event JSON.
//
// Everything in this package only *reads* the virtual clock — it never
// advances it — so instrumentation cannot perturb recording delays, and the
// deterministic virtual timestamps make exact golden files possible. A nil
// *Scope is a true no-op: every method has a nil receiver check, so the hot
// layers (netsim, shim, record, replay) carry instrumentation at zero
// behavioral cost when observability is off.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one metric dimension, e.g. {Key: "mode", Value: "blocking"}.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric families.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DefBuckets are the default histogram buckets, in seconds.
var DefBuckets = []float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5, 10, 50, 100, 500}

// Registry is a set of metric families. It is safe for concurrent use; the
// recording service shares one Registry across every session (the "fleet"
// registry) while each session keeps its own.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name   string
	kind   Kind
	series map[string]*series
}

type series struct {
	labels []Label // sorted by key
	value  int64   // counter / gauge
	counts []uint64
	sum    float64
	count  uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// canonKey builds the canonical map key for a label set. The single-label
// case skips the sort and the slice copy.
func canonKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels) == 1 {
		return labels[0].Key + "\x01" + labels[0].Value + "\x00"
	}
	_, key := canonLabels(labels)
	return key
}

// canonLabels sorts a copy of labels by key and returns it with its
// canonical map key.
func canonLabels(labels []Label) ([]Label, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return ls, b.String()
}

// seriesFor returns (creating as needed) the series of a family, enforcing
// kind consistency. Callers hold r.mu.
func (r *Registry) seriesFor(name string, kind Kind, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, used as %v", name, f.kind, kind))
	}
	key := canonKey(labels)
	s, ok := f.series[key]
	if !ok {
		// Copy and sort the labels only when the series is first created;
		// every later hit gets away with just the key.
		ls, _ := canonLabels(labels)
		s = &series{labels: ls}
		if kind == KindHistogram {
			s.counts = make([]uint64, len(DefBuckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Add increments a counter by n (n must be non-negative).
func (r *Registry) Add(name string, n int64, labels ...Label) {
	if n < 0 {
		panic(fmt.Sprintf("obs: negative counter add %d to %q", n, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesFor(name, KindCounter, labels).value += n
}

// GaugeSet sets a gauge to v.
func (r *Registry) GaugeSet(name string, v int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesFor(name, KindGauge, labels).value = v
}

// Observe records one histogram observation in DefBuckets.
func (r *Registry) Observe(name string, v float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesFor(name, KindHistogram, labels)
	for i, ub := range DefBuckets {
		if v <= ub {
			s.counts[i]++
		}
	}
	s.counts[len(DefBuckets)]++ // +Inf
	s.sum += v
	s.count++
}

// Counter reads a counter series (0 if absent).
func (r *Registry) Counter(name string, labels ...Label) int64 {
	return r.Snapshot().Counter(name, labels...)
}

// Gauge reads a gauge series (0 if absent).
func (r *Registry) Gauge(name string, labels ...Label) int64 {
	return r.Snapshot().Gauge(name, labels...)
}
