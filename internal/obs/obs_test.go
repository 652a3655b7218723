package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpurelay/internal/timesim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestObsRegistryCounters(t *testing.T) {
	r := NewRegistry()
	r.Add("grt_test_total", 1, L("mode", "a"))
	r.Add("grt_test_total", 2, L("mode", "a"))
	r.Add("grt_test_total", 5, L("mode", "b"))
	r.Add("grt_plain_total", 7)
	if got := r.Counter("grt_test_total", L("mode", "a")); got != 3 {
		t.Errorf("counter{mode=a} = %d, want 3", got)
	}
	if got := r.Counter("grt_test_total", L("mode", "b")); got != 5 {
		t.Errorf("counter{mode=b} = %d, want 5", got)
	}
	if got := r.Counter("grt_test_total", L("mode", "missing")); got != 0 {
		t.Errorf("absent series = %d, want 0", got)
	}
	snap := r.Snapshot()
	if got := snap.CounterTotal("grt_test_total"); got != 8 {
		t.Errorf("CounterTotal = %d, want 8", got)
	}
	by := snap.CounterBy("grt_test_total", "mode")
	if by["a"] != 3 || by["b"] != 5 {
		t.Errorf("CounterBy = %v, want a:3 b:5", by)
	}
	if got := snap.Counter("grt_plain_total"); got != 7 {
		t.Errorf("unlabeled counter = %d, want 7", got)
	}
}

func TestObsRegistryGauges(t *testing.T) {
	r := NewRegistry()
	r.GaugeSet("grt_depth", 4)
	r.GaugeSet("grt_depth", 3)
	if got := r.Gauge("grt_depth"); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
}

func TestObsRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Add("grt_x_total", 1)
	defer func() {
		if recover() == nil {
			t.Error("using a counter as a gauge did not panic")
		}
	}()
	r.GaugeSet("grt_x_total", 1)
}

func TestObsRegistryNegativeAddPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("negative counter add did not panic")
		}
	}()
	r.Add("grt_x_total", -1)
}

func TestObsHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe("grt_wait_seconds", 0.05) // lands in the 0.05 bucket and up
	r.Observe("grt_wait_seconds", 0.5)  // 0.5 and up
	r.Observe("grt_wait_seconds", 100)  // 100 and up
	snap := r.Snapshot()
	f := snap.Families[0]
	sr := f.Series[0]
	// DefBuckets: .0005 .001 .005 .01 .05 .1 .5 1 5 10 50 100 500 +Inf.
	wantCounts := []uint64{0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3}
	if len(sr.Counts) != len(wantCounts) {
		t.Fatalf("%d buckets, want %d", len(sr.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if sr.Counts[i] != want {
			t.Errorf("bucket[%d] = %d, want %d (counts %v)", i, sr.Counts[i], want, sr.Counts)
		}
	}
	if sr.Count != 3 {
		t.Errorf("count = %d, want 3", sr.Count)
	}
	if got := sr.Sum; got != 100.55 {
		t.Errorf("sum = %v, want 100.55", got)
	}
}

func TestObsNilScopeIsNoOp(t *testing.T) {
	var s *Scope
	// None of these may panic, and all reads must be zero values.
	s.BindClock(timesim.NewClock())
	s.AttachFleet(NewRegistry())
	s.Count(MNetRTTs, 1, L("mode", "blocking"))
	s.Observe(MFleetAdmissionWait, 0.1)
	s.CountOr(nil, MShedRetries, 1)
	s.ObserveOr(nil, MResumeBackoff, 0.1)
	s.Annotate("x", "y")
	s.Span("x", "y")()
	if s.Snapshot() != nil {
		t.Error("nil scope Snapshot() != nil")
	}
	if s.Spans() != nil || s.SpansDropped() != 0 || s.Now() != 0 || s.ID() != "" {
		t.Error("nil scope reads are not zero values")
	}
	if err := s.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil scope WriteChromeTrace: %v", err)
	}
	// A nil snapshot also reads as zero.
	var snap *Snapshot
	if snap.Counter("x") != 0 || snap.CounterTotal("x") != 0 || len(snap.CounterBy("x", "k")) != 0 {
		t.Error("nil snapshot reads are not zero")
	}
	if err := snap.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil snapshot WritePrometheus: %v", err)
	}
}

// TestObsNilScopeSpanAllocs pins the uninstrumented cost of a span and an
// annotation with args: a nil scope copies nothing, so the caller's
// variadic slice stays on its stack. A scope that records keeps its own
// copy, so the caller may reuse its slice.
func TestObsNilScopeSpanAllocs(t *testing.T) {
	var s *Scope
	if n := testing.AllocsPerRun(200, func() {
		s.Span("net.rtt", "net", A("bytes", 64))()
	}); n != 0 {
		t.Errorf("nil scope Span with one arg allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Annotate("sync.dump", "sync", A("job", 1), A("wire_bytes", 4096))
	}); n != 0 {
		t.Errorf("nil scope Annotate with args allocates %.1f per run, want 0", n)
	}
	live := NewScope("live", Options{})
	args := []Arg{A("job", 1)}
	live.Annotate("sync.dump", "sync", args...)
	end := live.Span("net.rtt", "net", args...)
	args[0] = A("job", 2)
	end()
	for _, sp := range live.Spans() {
		if len(sp.Args) != 1 || sp.Args[0] != A("job", 1) {
			t.Errorf("span %s args %v, want the job=1 they were opened with", sp.Name, sp.Args)
		}
	}
}

func TestObsSpanCapacity(t *testing.T) {
	s := NewScope("cap", Options{SpanCapacity: 2})
	for i := 0; i < 5; i++ {
		s.Annotate("e", "t")
	}
	if got := len(s.Spans()); got != 2 {
		t.Errorf("retained %d spans, want 2", got)
	}
	if got := s.SpansDropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}

	// Negative capacity disables spans but counters still collect.
	c := NewScope("counters-only", Options{SpanCapacity: -1})
	c.Annotate("e", "t")
	c.Count(MNetRTTs, 2, L("mode", "blocking"))
	if len(c.Spans()) != 0 {
		t.Error("counters-only scope retained spans")
	}
	if got := c.Snapshot().Counter(MNetRTTs, L("mode", "blocking")); got != 2 {
		t.Errorf("counters-only counter = %d, want 2", got)
	}
}

func TestObsScopeFleetDoubleWrite(t *testing.T) {
	fleet := NewRegistry()
	s := NewScope("s1", Options{})
	s.AttachFleet(fleet)
	s.Count(MNetRTTs, 3, L("mode", "blocking"))
	s.Observe(MFleetAdmissionWait, 0.2)
	if got := fleet.Counter(MNetRTTs, L("mode", "blocking")); got != 3 {
		t.Errorf("fleet counter = %d, want 3", got)
	}
	if got := s.Snapshot().Counter(MNetRTTs, L("mode", "blocking")); got != 3 {
		t.Errorf("local counter = %d, want 3", got)
	}
	// AttachFleet does not replace an existing fleet registry.
	other := NewRegistry()
	s.AttachFleet(other)
	s.Count(MNetRTTs, 1, L("mode", "blocking"))
	if got := other.Counter(MNetRTTs, L("mode", "blocking")); got != 0 {
		t.Errorf("AttachFleet overrode the caller-provided fleet (got %d)", got)
	}
	if got := fleet.Counter(MNetRTTs, L("mode", "blocking")); got != 4 {
		t.Errorf("original fleet = %d, want 4", got)
	}
}

// TestObsCountOrFleet: CountOr and ObserveOr land a session fact on the fleet
// once, through the scope when there is one and directly when there is not.
func TestObsCountOrFleet(t *testing.T) {
	fleet := NewRegistry()
	s := NewScope("s1", Options{})
	s.AttachFleet(fleet)
	s.CountOr(fleet, MShedRetries, 1)
	s.ObserveOr(fleet, MResumeBackoff, 0.25)
	var none *Scope
	none.CountOr(fleet, MShedRetries, 2)
	none.ObserveOr(fleet, MResumeBackoff, 0.5)
	if got := fleet.Counter(MShedRetries); got != 3 {
		t.Errorf("fleet counter = %d, want 3", got)
	}
	if got := s.Snapshot().Counter(MShedRetries); got != 1 {
		t.Errorf("scope counter = %d, want 1", got)
	}
	h := fleet.Snapshot().Families[0]
	if h.Name != MResumeBackoff || h.Series[0].Count != 2 || h.Series[0].Sum != 0.75 {
		t.Errorf("fleet histogram %s: count %d, sum %v; want 2 and 0.75",
			h.Name, h.Series[0].Count, h.Series[0].Sum)
	}
}

// buildSampleScope replays a fixed synthetic session timeline on a virtual
// clock: the fixture behind both golden files. Virtual time makes every
// timestamp exact, so the goldens are bit-for-bit stable.
func buildSampleScope() *Scope {
	clock := timesim.NewClock()
	s := NewScope("record/MNIST/OursMDS/wifi", Options{})
	s.BindClock(clock)
	s.Annotate("session.admitted", "session")
	s.Annotate("session.attested", "session")

	end := s.Span("record.probe", "record")
	clock.Advance(1500 * time.Microsecond)
	end()

	end = s.Span("net.rtt", "net", A("req_bytes", 128), A("resp_bytes", 64))
	clock.Advance(20 * time.Millisecond)
	end()
	s.Count(MNetRTTs, 1, L("mode", "blocking"))
	s.Count(MNetBytes, 128, L("dir", "sent"))
	s.Count(MNetBytes, 64, L("dir", "recv"))

	end = s.Span("spec.rollback", "shim", A("log_events", 42))
	clock.Advance(750 * time.Millisecond)
	end()
	s.Count(MShimMispredictions, 1)
	s.Count(MShimRecoveryNS, int64(750*time.Millisecond))

	s.Annotate("sync.dump", "sync", A("job", 0), A("wire_bytes", 4096), A("raw_bytes", 65536))
	s.Count(MSyncDumps, 1, L("dir", "to_client"))
	s.Count(MSyncBytes, 4096, L("dir", "to_client"))
	s.Count(MSyncRawBytes, 65536, L("dir", "to_client"))

	s.local.GaugeSet(MFleetQueueDepth, 3)
	s.Observe(MFleetAdmissionWait, 0.02)
	s.Observe(MFleetAdmissionWait, 0.7)
	return s
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestObsPrometheusGolden(t *testing.T) {
	s := buildSampleScope()
	got := []byte(s.Snapshot().Prometheus())
	checkGolden(t, "prometheus.golden", got)

	// Determinism: a second identical scope renders identical text.
	again := []byte(buildSampleScope().Snapshot().Prometheus())
	if !bytes.Equal(got, again) {
		t.Error("Prometheus exposition is not deterministic across identical runs")
	}
}

func TestObsChromeTraceGolden(t *testing.T) {
	s := buildSampleScope()
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace.golden", buf.Bytes())

	// Structural sanity independent of the golden: valid JSON wrapper and
	// one complete event per non-instant span.
	out := buf.String()
	if !strings.HasPrefix(out, `{"displayTimeUnit":"ms","traceEvents":[`) {
		t.Error("trace missing header")
	}
	if want, got := 3, strings.Count(out, `"ph":"X"`); got != want {
		t.Errorf("complete events = %d, want %d", got, want)
	}
	if want, got := 3, strings.Count(out, `"ph":"i"`); got != want {
		t.Errorf("instant events = %d, want %d", got, want)
	}
}

func TestObsMultiScopeChromeTrace(t *testing.T) {
	a := buildSampleScope()
	b := NewScope("replay/MNIST", Options{})
	clock := timesim.NewClock()
	b.BindClock(clock)
	end := b.Span("replay.run", "replay", A("events", 10))
	clock.Advance(5 * time.Millisecond)
	end()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, a, nil, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"record/MNIST/OursMDS/wifi"`) ||
		!strings.Contains(out, `"name":"replay/MNIST"`) {
		t.Error("trace missing per-scope thread names")
	}
	// The nil scope is skipped; tids are 1 and 3 (index-based).
	if !strings.Contains(out, `"tid":3`) {
		t.Error("scope index did not map to tid")
	}
}
