package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gpurelay/internal/timesim"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := int64(1); i <= 5; i++ {
		f.Emit(time.Duration(i)*time.Millisecond, "s", FKSync, "out", A("job", i))
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	if f.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", f.Dropped())
	}
	evs := f.Events()
	// Oldest retained first: events 3, 4, 5.
	for i, e := range evs {
		wantJob := int64(i + 3)
		if len(e.Args) != 1 || e.Args[0].Value != wantJob {
			t.Errorf("event %d args = %v, want job=%d", i, e.Args, wantJob)
		}
		if e.Seq != uint64(wantJob) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, wantJob)
		}
	}
	tail := f.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Errorf("Tail(2) = %v, want seqs 4,5", tail)
	}
	if got := f.Tail(99); len(got) != 3 {
		t.Errorf("Tail(99) = %d events, want all 3", len(got))
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Emit(0, "s", FKFault, "crash") // must not panic
	if f.Len() != 0 || f.Dropped() != 0 || f.Events() != nil || f.Tail(4) != nil {
		t.Error("nil recorder reported state")
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q", buf.String())
	}
}

func TestFlightJSONLRoundTrip(t *testing.T) {
	f := NewFlightRecorder(0)
	f.Emit(1500*time.Microsecond, "drill-0001", FKAdmission, "queued", A("wait_ns", 250))
	f.Emit(2*time.Millisecond, "drill-0002", FKSpecMiss, "rollback", A("seq", 7), A("cost_ns", 900))
	f.Emit(3*time.Millisecond, "", FKIngestReject, "bad_mac")

	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("journal has %d lines, want 3", got)
	}
	back, err := ReadFlightJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Events()
	if len(back) != len(want) {
		t.Fatalf("round trip %d events, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i].Seq != want[i].Seq || back[i].VT != want[i].VT ||
			back[i].Session != want[i].Session || back[i].Kind != want[i].Kind ||
			back[i].Note != want[i].Note || len(back[i].Args) != len(want[i].Args) {
			t.Errorf("event %d: got %+v, want %+v", i, back[i], want[i])
		}
	}
}

func TestFlightJSONLRejectsMalformed(t *testing.T) {
	in := strings.NewReader("{\"seq\":1,\"vt_ns\":0,\"kind\":\"sync\"}\nnot json\n")
	if _, err := ReadFlightJSONL(in); err == nil {
		t.Fatal("malformed journal line parsed")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
}

func TestScopeEmitRouting(t *testing.T) {
	f := NewFlightRecorder(0)
	s := NewScope("sess-1", Options{})
	s.AttachFlight(f)
	clk := timesim.NewClock()
	clk.Advance(7 * time.Millisecond)
	s.BindClock(clk)
	s.Emit(FKCheckpoint, "capture", A("job", 4))
	evs := f.Events()
	if len(evs) != 1 {
		t.Fatalf("recorder has %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Session != "sess-1" || e.Kind != FKCheckpoint || e.Note != "capture" || e.VT != 7*time.Millisecond {
		t.Errorf("event %+v: wrong session/kind/note/vt", e)
	}

	// A nil scope and a scope without a recorder are true no-ops.
	var nilScope *Scope
	nilScope.Emit(FKFault, "crash")
	NewScope("bare", Options{}).Emit(FKFault, "crash")
	if f.Len() != 1 {
		t.Errorf("no-op emits reached the recorder (len %d)", f.Len())
	}
}

// TestFlightEmitAllocBudget pins the hot-path cost of flight recording: a
// disabled recorder (nil scope, or scope without an attached recorder) must
// emit with zero allocations, and an enabled one with at most two per event
// (the internal args copy, plus slack for the ring slot). The CI alloc gate
// runs this test; a regression here means sync/commit hot paths got slower
// for everyone, instrumented or not.
func TestFlightEmitAllocBudget(t *testing.T) {
	var nilScope *Scope
	if n := testing.AllocsPerRun(200, func() {
		nilScope.Emit(FKSync, "out", A("job", 1), A("wire_bytes", 4096))
	}); n != 0 {
		t.Errorf("nil scope Emit allocates %.1f per run, want 0", n)
	}

	bare := NewScope("bare", Options{})
	if n := testing.AllocsPerRun(200, func() {
		bare.Emit(FKSync, "out", A("job", 1), A("wire_bytes", 4096))
	}); n != 0 {
		t.Errorf("unattached scope Emit allocates %.1f per run, want 0", n)
	}

	// Warm the ring to capacity first so steady state is overwrite, not
	// append-growth.
	f := NewFlightRecorder(8)
	hot := NewScope("hot", Options{})
	hot.AttachFlight(f)
	for i := 0; i < 8; i++ {
		hot.Emit(FKSync, "warm")
	}
	if n := testing.AllocsPerRun(200, func() {
		hot.Emit(FKSync, "out", A("job", 1), A("wire_bytes", 4096))
	}); n > 2 {
		t.Errorf("attached scope Emit allocates %.1f per run, budget 2", n)
	}
}
