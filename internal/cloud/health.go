// Fleet health rollups: an obs-fed model that folds the service's fleet
// metrics registry into per-window SLO summaries (admission waits,
// speculation hit rate, fault/resume/reject rates, record amplification) and
// a threshold-based health state. Counters are monotonic, so health is
// evaluated over windows — the delta between two registry snapshots — which
// is what lets a fleet recover: a VM that gave up a session last window and
// records cleanly this window is healthy again.
package cloud

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"gpurelay/internal/obs"
)

// HealthState is the threshold-based rollup verdict.
type HealthState string

// Health states, ordered by severity.
const (
	Healthy   HealthState = "healthy"
	Degraded  HealthState = "degraded"
	Unhealthy HealthState = "unhealthy"
)

// worse reports whether a is more severe than b.
func worse(a, b HealthState) bool {
	rank := map[HealthState]int{Healthy: 0, Degraded: 1, Unhealthy: 2}
	return rank[a] > rank[b]
}

// HealthSchema identifies the health-report JSON version (grtdiag health,
// grtbench -health-out).
const HealthSchema = "grt-health/1"

// maxAdmissionWaitP99 is the windowed p99 admission wait past which the
// fleet is degraded.
const maxAdmissionWaitP99 = 2 * time.Second

// HealthStats is one window's SLO summary: deltas between two fleet-registry
// snapshots, plus the derived rates. Admissions counts every admission
// outcome; AdmissionP50 and AdmissionP99 are quantiles of the waits of the
// queued admissions only, the ones that waited for a slot.
type HealthStats struct {
	Sessions       int64   `json:"sessions"`
	Crashes        int64   `json:"crashes"`
	Resumed        int64   `json:"resumed"`
	GaveUp         int64   `json:"gave_up"`
	FaultsFired    int64   `json:"faults_fired"`
	Checkpoints    int64   `json:"checkpoints"`
	IngestAccepted int64   `json:"ingest_accepted"`
	IngestRejected int64   `json:"ingest_rejected"`
	Admissions     int64   `json:"admissions"`
	AdmissionP50   float64 `json:"admission_wait_p50_s"`
	AdmissionP99   float64 `json:"admission_wait_p99_s"`
	Commits        int64   `json:"commits"`
	SpecCommits    int64   `json:"spec_commits"`
	SpecHitRate    float64 `json:"spec_hit_rate"`
	Mispredictions int64   `json:"mispredictions"`
	HistoryMisses  int64   `json:"history_misses"`
	// Cache counters from the content-addressed recording store: lookup
	// outcomes, requests that coalesced onto another's record, recordings
	// published, new keys admitted, and shard-level load-shed rejections.
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheCoalesced int64   `json:"cache_coalesced"`
	CacheFills     int64   `json:"cache_fills"`
	CacheKeys      int64   `json:"cache_keys"`
	Shed           int64   `json:"shed"`
	// ShedRetries counts admissions that waited out a shed partition's
	// retry-after hint and re-admitted instead of failing.
	ShedRetries int64 `json:"shed_retries"`
	// SpecWarmImports counts speculation-history signatures seeded from
	// fleet peers' exports (the cold-session warm start).
	SpecWarmImports int64 `json:"spec_warm_imports"`
	// RecordAmplification is records per unique workload this window. With
	// cache instrumentation it is exact — completed record sessions over
	// new cache keys; without it, the speculation-history-miss
	// approximation (a miss warms a fresh (SKU, stack, workload) entry).
	// 0 when the window recorded nothing.
	RecordAmplification float64 `json:"record_amplification"`
	// Device-health totals across the fleet's GPU inventory this window
	// (the per-device breakdown rides in HealthReport.Devices).
	DeviceThrottledNS int64 `json:"device_throttled_ns"`
	DeviceECCSBE      int64 `json:"device_ecc_sbe"`
	DeviceECCDBE      int64 `json:"device_ecc_dbe"`
	DeviceFallOffs    int64 `json:"device_falloffs"`
	DeviceMigrations  int64 `json:"device_migrations"`
}

// DeviceHealthRow is one physical GPU's health row, derived from the
// grt_device_* series a fleet registry carries: windowed counter deltas
// (throttle time, ECC counts, fall-offs, migrations) plus the current state
// gauges. grtdiag health renders one such row per device.
type DeviceHealthRow struct {
	Device      string `json:"device"`
	State       string `json:"state"`
	ThrottledNS int64  `json:"throttled_ns"`
	ECCSBE      int64  `json:"ecc_sbe"`
	ECCDBE      int64  `json:"ecc_dbe"`
	FallOffs    int64  `json:"falloffs"`
	Migrations  int64  `json:"migrations"`
}

// SessionHealth is one session's (or VM's) rollup, evaluated from its
// per-session scope snapshot.
type SessionHealth struct {
	Session        string      `json:"session"`
	State          HealthState `json:"state"`
	Reasons        []string    `json:"reasons,omitempty"`
	FaultsFired    int64       `json:"faults_fired"`
	Resyncs        int64       `json:"resyncs"`
	Mispredictions int64       `json:"mispredictions"`
	GuardViolation int64       `json:"guard_violations"`
	SpecHitRate    float64     `json:"spec_hit_rate"`
}

// HealthReport is the full rollup: fleet-wide state plus optional per-session
// rows. Its JSON form is deterministic and stable (grt-health/1).
type HealthReport struct {
	Schema   string            `json:"schema"`
	State    HealthState       `json:"state"`
	Reasons  []string          `json:"reasons,omitempty"`
	Window   HealthStats       `json:"window"`
	Devices  []DeviceHealthRow `json:"devices,omitempty"`
	Sessions []SessionHealth   `json:"sessions,omitempty"`
}

// delta reads a counter's windowed increase. Both snapshots may be nil (a
// nil prev means "since the beginning").
func delta(cur, prev *obs.Snapshot, name string, labels ...obs.Label) int64 {
	return cur.Counter(name, labels...) - prev.Counter(name, labels...)
}

func deltaTotal(cur, prev *obs.Snapshot, name string) int64 {
	return cur.CounterTotal(name) - prev.CounterTotal(name)
}

// histQuantile estimates a quantile of a histogram family's windowed
// observations from cumulative bucket deltas: the upper bound of the first
// bucket covering the quantile, the conservative (pessimistic) estimate SLO
// gates want. Observations in the +Inf bucket report the histogram's largest
// finite bound. Returns 0 when the window observed nothing.
func histQuantile(cur, prev *obs.Snapshot, name string, q float64) float64 {
	// Every registry histogram has obs.DefBuckets. Sum cumulative bucket
	// counts across series (the admission-wait family is unlabeled, but
	// stay correct if labels appear later), then subtract the previous
	// window's.
	counts := make([]int64, len(obs.DefBuckets)+1)
	for sign, s := range map[int64]*obs.Snapshot{1: cur, -1: prev} {
		for i := 0; s != nil && i < len(s.Families); i++ {
			if s.Families[i].Name != name {
				continue
			}
			for _, ser := range s.Families[i].Series {
				for j, n := range ser.Counts {
					counts[j] += sign * int64(n)
				}
			}
		}
	}
	total := counts[len(counts)-1]
	if total <= 0 {
		return 0
	}
	// Nearest-rank: ceil(q·N), so a single straggler among 1/(1-q)
	// observations still lands the quantile in its bucket.
	want := max(int64(math.Ceil(q*float64(total))), 1)
	for i, ub := range obs.DefBuckets {
		if counts[i] >= want {
			return ub
		}
	}
	return obs.DefBuckets[len(obs.DefBuckets)-1]
}

// deviceRows derives per-device health rows from the grt_device_* series:
// counters as windowed deltas, state from the current dead/degraded gauges.
// Rows come back sorted by device ID, so reports are deterministic.
func deviceRows(cur, prev *obs.Snapshot) []DeviceHealthRow {
	if cur == nil {
		return nil
	}
	rows := map[string]*DeviceHealthRow{}
	row := func(dev string) *DeviceHealthRow {
		r, ok := rows[dev]
		if !ok {
			r = &DeviceHealthRow{Device: dev, State: "healthy"}
			rows[dev] = r
		}
		return r
	}
	labelVal := func(ls []obs.Label, key string) string {
		for _, l := range ls {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}
	// Counters accumulate cur minus prev; the state gauges (dead, degraded)
	// are absolute, so only cur's values set them.
	scanCounters := func(s *obs.Snapshot, sign int64) {
		if s == nil {
			return
		}
		for i := range s.Families {
			f := &s.Families[i]
			for j := range f.Series {
				ser := &f.Series[j]
				dev := labelVal(ser.Labels, "device")
				if dev == "" {
					continue
				}
				switch f.Name {
				case obs.MDeviceThrottleNS:
					row(dev).ThrottledNS += sign * ser.Value
				case obs.MDeviceECCErrors:
					switch labelVal(ser.Labels, "kind") {
					case "sbe":
						row(dev).ECCSBE += sign * ser.Value
					case "dbe":
						row(dev).ECCDBE += sign * ser.Value
					}
				case obs.MDeviceFallOffs:
					row(dev).FallOffs += sign * ser.Value
				case obs.MDeviceMigrations:
					row(dev).Migrations += sign * ser.Value
				}
			}
		}
	}
	scanCounters(cur, 1)
	scanCounters(prev, -1)
	for i := range cur.Families {
		f := &cur.Families[i]
		if f.Name != obs.MDeviceDead && f.Name != obs.MDeviceDegraded {
			continue
		}
		for j := range f.Series {
			ser := &f.Series[j]
			dev := labelVal(ser.Labels, "device")
			if dev == "" || ser.Value == 0 {
				continue
			}
			if f.Name == obs.MDeviceDead {
				row(dev).State = "dead"
			} else if row(dev).State != "dead" {
				row(dev).State = "degraded"
			}
		}
	}
	if len(rows) == 0 {
		return nil
	}
	out := make([]DeviceHealthRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Device < out[b].Device })
	return out
}

// windowStats folds the snapshot delta into one window's SLO summary.
func windowStats(cur, prev *obs.Snapshot) HealthStats {
	st := HealthStats{
		Sessions:        delta(cur, prev, obs.MFleetSessions),
		Crashes:         delta(cur, prev, obs.MFleetVMCrashes),
		Resumed:         delta(cur, prev, obs.MFleetResumes, obs.L("outcome", "resumed")),
		GaveUp:          delta(cur, prev, obs.MFleetResumes, obs.L("outcome", "gave_up")),
		FaultsFired:     deltaTotal(cur, prev, obs.MFaultsFired),
		Checkpoints:     delta(cur, prev, obs.MCkptCheckpoints),
		IngestAccepted:  delta(cur, prev, obs.MIngestRecordings, obs.L("outcome", "accepted")),
		IngestRejected:  delta(cur, prev, obs.MIngestRecordings, obs.L("outcome", "rejected")),
		Admissions:      deltaTotal(cur, prev, obs.MFleetAdmissions),
		AdmissionP50:    histQuantile(cur, prev, obs.MFleetAdmissionWait, 0.50),
		AdmissionP99:    histQuantile(cur, prev, obs.MFleetAdmissionWait, 0.99),
		Commits:         deltaTotal(cur, prev, obs.MShimCommits),
		SpecCommits:     delta(cur, prev, obs.MShimCommits, obs.L("kind", "async")),
		Mispredictions:  delta(cur, prev, obs.MShimMispredictions),
		HistoryMisses:   delta(cur, prev, obs.MFleetHistoryLookups, obs.L("result", "miss")),
		CacheHits:       delta(cur, prev, obs.MCacheLookups, obs.L("result", "hit")),
		CacheMisses:     delta(cur, prev, obs.MCacheLookups, obs.L("result", "miss")),
		CacheCoalesced:  delta(cur, prev, obs.MCacheCoalesced),
		CacheFills:      delta(cur, prev, obs.MCacheFills),
		CacheKeys:       delta(cur, prev, obs.MCacheKeys),
		Shed:            deltaTotal(cur, prev, obs.MShardShed),
		ShedRetries:     deltaTotal(cur, prev, obs.MShedRetries),
		SpecWarmImports: deltaTotal(cur, prev, obs.MSpecWarmImports),
	}
	if st.Commits > 0 {
		st.SpecHitRate = float64(st.SpecCommits) / float64(st.Commits)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	switch {
	case st.CacheKeys > 0:
		st.RecordAmplification = float64(st.Sessions) / float64(st.CacheKeys)
	case st.HistoryMisses > 0:
		st.RecordAmplification = float64(st.Sessions) / float64(st.HistoryMisses)
	}
	return st
}

// EvaluateHealth rolls one window — the delta from prev to cur — into a
// health report. prev may be nil ("since the beginning"). The severity
// ladder: a session permanently lost (resume exhaustion) is unhealthy;
// resumes, faults, ingest rejections, a p99 admission wait over 2s, shed
// admissions and failed GPUs degrade; otherwise the fleet is healthy. The
// speculation and cache hit rates and the record amplification are
// reported, never judged.
func EvaluateHealth(cur, prev *obs.Snapshot) *HealthReport {
	st := windowStats(cur, prev)
	devices := deviceRows(cur, prev)
	for _, d := range devices {
		st.DeviceThrottledNS += d.ThrottledNS
		st.DeviceECCSBE += d.ECCSBE
		st.DeviceECCDBE += d.ECCDBE
		st.DeviceFallOffs += d.FallOffs
		st.DeviceMigrations += d.Migrations
	}
	rep := &HealthReport{Schema: HealthSchema, State: Healthy, Window: st, Devices: devices}
	raise := func(s HealthState, format string, args ...any) {
		if worse(s, rep.State) {
			rep.State = s
		}
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(format, args...))
	}
	if st.GaveUp > 0 {
		raise(Unhealthy, "%d session(s) lost permanently after resume exhaustion", st.GaveUp)
	}
	if st.Resumed > 0 {
		raise(Degraded, "%d session loss(es) survived via checkpoint resume", st.Resumed)
	}
	if st.FaultsFired > 0 {
		sessions := max(st.Sessions+st.Crashes, 1)
		raise(Degraded, "%.1f fault(s) fired per session (threshold 0.0)",
			float64(st.FaultsFired)/float64(sessions))
	}
	if st.IngestRejected > 0 {
		raise(Degraded, "%d recording(s) rejected at the ingestion boundary", st.IngestRejected)
	}
	if st.AdmissionP99 > maxAdmissionWaitP99.Seconds() {
		raise(Degraded, "p99 admission wait %.3fs exceeds %.3fs",
			st.AdmissionP99, maxAdmissionWaitP99.Seconds())
	}
	if st.Shed > 0 {
		raise(Degraded, "%d admission(s) shed by saturated shards", st.Shed)
	}
	if st.DeviceFallOffs > 0 {
		raise(Degraded, "%d GPU(s) fell off the bus (XID 79) this window", st.DeviceFallOffs)
	}
	if st.DeviceECCDBE > 0 {
		raise(Degraded, "%d uncorrectable ECC fault(s) degraded GPU(s) this window", st.DeviceECCDBE)
	}
	return rep
}

// EvaluateSessionHealth rolls one session's scope snapshot into a per-session
// row: guard violations (never present in a healthy run) are unhealthy;
// faults, resyncs, and mispredictions degrade.
func EvaluateSessionHealth(session string, snap *obs.Snapshot) SessionHealth {
	sh := SessionHealth{
		Session:        session,
		State:          Healthy,
		FaultsFired:    snap.CounterTotal(obs.MFaultsFired),
		Resyncs:        snap.Counter(obs.MCkptResyncEvents),
		Mispredictions: snap.Counter(obs.MShimMispredictions),
		GuardViolation: snap.Counter(obs.MRecordGuardViolations),
	}
	if commits := snap.CounterTotal(obs.MShimCommits); commits > 0 {
		sh.SpecHitRate = float64(snap.Counter(obs.MShimCommits, obs.L("kind", "async"))) / float64(commits)
	}
	raise := func(s HealthState, format string, args ...any) {
		if worse(s, sh.State) {
			sh.State = s
		}
		sh.Reasons = append(sh.Reasons, fmt.Sprintf(format, args...))
	}
	if sh.GuardViolation > 0 {
		raise(Unhealthy, "%d continuous-validation guard violation(s)", sh.GuardViolation)
	}
	if sh.FaultsFired > 0 {
		raise(Degraded, "%d fault(s) fired", sh.FaultsFired)
	}
	if sh.Resyncs > 0 {
		raise(Degraded, "%d resync event(s)", sh.Resyncs)
	}
	if sh.Mispredictions > 0 {
		raise(Degraded, "%d misprediction(s)", sh.Mispredictions)
	}
	return sh
}

// HealthTracker evaluates health over successive windows: each Observe
// reports the delta since the previous Observe (or since the beginning, on
// the first call) and then starts a new window. This is what lets a fleet's
// state recover — unhealthy last window, healthy this window.
type HealthTracker struct {
	mu   sync.Mutex
	prev *obs.Snapshot
}

// NewHealthTracker creates a tracker whose first window starts at the
// beginning.
func NewHealthTracker() *HealthTracker { return &HealthTracker{} }

// Observe rolls the window since the previous Observe into a report and
// advances the window boundary to cur.
func (t *HealthTracker) Observe(cur *obs.Snapshot) *HealthReport {
	t.mu.Lock()
	prev := t.prev
	t.prev = cur
	t.mu.Unlock()
	return EvaluateHealth(cur, prev)
}

// WriteJSON writes the report as indented, deterministic JSON — the
// grt-health/1 document grtdiag health consumes.
func (r *HealthReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseHealthReport decodes a grt-health/1 JSON document.
func ParseHealthReport(data []byte) (*HealthReport, error) {
	var r HealthReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("cloud: health report: %w", err)
	}
	if r.Schema != HealthSchema {
		return nil, fmt.Errorf("cloud: health report schema %q, want %q", r.Schema, HealthSchema)
	}
	return &r, nil
}

// Render pretty-prints the report for terminal output (grtdiag health).
func (r *HealthReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet health: %s\n", r.State)
	for _, reason := range r.Reasons {
		fmt.Fprintf(&sb, "  - %s\n", reason)
	}
	st := r.Window
	fmt.Fprintf(&sb, "  window: %d session(s), %d crash(es), %d resumed, %d gave up\n",
		st.Sessions, st.Crashes, st.Resumed, st.GaveUp)
	fmt.Fprintf(&sb, "          %d fault(s), %d checkpoint(s), ingest %d accepted / %d rejected\n",
		st.FaultsFired, st.Checkpoints, st.IngestAccepted, st.IngestRejected)
	fmt.Fprintf(&sb, "          %d admission(s), queued admissions' wait p50 %.3fs p99 %.3fs\n",
		st.Admissions, st.AdmissionP50, st.AdmissionP99)
	fmt.Fprintf(&sb, "          spec hit rate %.2f (%d/%d commits), amplification %.2f\n",
		st.SpecHitRate, st.SpecCommits, st.Commits, st.RecordAmplification)
	if st.CacheHits+st.CacheMisses+st.CacheFills+st.Shed > 0 {
		fmt.Fprintf(&sb, "          cache hit rate %.2f (%d hit / %d miss), %d coalesced, %d filled, %d shed\n",
			st.CacheHitRate, st.CacheHits, st.CacheMisses, st.CacheCoalesced, st.CacheFills, st.Shed)
	}
	if st.ShedRetries+st.SpecWarmImports > 0 {
		fmt.Fprintf(&sb, "          %d shed retry(s), %d spec warm import(s)\n",
			st.ShedRetries, st.SpecWarmImports)
	}
	if len(r.Devices) > 0 {
		fmt.Fprintf(&sb, "  devices:\n")
		for _, d := range r.Devices {
			fmt.Fprintf(&sb, "    %-16s %-9s throttled=%s ecc=%d/%d falloffs=%d migrations=%d\n",
				d.Device, d.State, time.Duration(d.ThrottledNS), d.ECCSBE, d.ECCDBE,
				d.FallOffs, d.Migrations)
		}
	}
	for _, s := range r.Sessions {
		fmt.Fprintf(&sb, "  %-24s %-10s faults=%d resyncs=%d mispred=%d spec=%.2f\n",
			s.Session, s.State, s.FaultsFired, s.Resyncs, s.Mispredictions, s.SpecHitRate)
	}
	return sb.String()
}
