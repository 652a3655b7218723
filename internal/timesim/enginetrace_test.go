package timesim

import (
	"testing"
	"time"
)

// traceWorkload schedules a small cross-key workload with same-timestamp
// batches and a cascading event, exercising pop order and depth accounting.
func traceWorkload(e Engine) {
	for key := uint64(0); key < 3; key++ {
		key := key
		e.Schedule(time.Millisecond, key, func() error {
			e.Schedule(2*time.Millisecond, key, func() error { return nil })
			return nil
		})
	}
	e.Schedule(3*time.Millisecond, 1, func() error { return nil })
}

func TestEngineTraceRecordsPopOrder(t *testing.T) {
	e := NewSerialEngine()
	tr := NewEngineTrace(0)
	e.SetTrace(tr)
	traceWorkload(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if int64(len(evs)) != e.Events() {
		t.Fatalf("trace has %d events, engine ran %d", len(evs), e.Events())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("event %d at %v precedes event %d at %v", i, evs[i].TS, i-1, evs[i-1].TS)
		}
		if evs[i].TS == evs[i-1].TS && evs[i].Key < evs[i-1].Key {
			t.Fatalf("same-timestamp events out of key order: %+v then %+v", evs[i-1], evs[i])
		}
	}
	// The first batch is the three t=1ms events, keys 0,1,2.
	for i := 0; i < 3; i++ {
		if evs[i].TS != time.Millisecond || evs[i].Key != uint64(i) {
			t.Errorf("event %d = %+v, want key %d at 1ms", i, evs[i], i)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
}

// TestEngineTraceEngineIdentical is the export's determinism contract: the
// parallel engine pops the same (timestamp, key) sequence as the serial one —
// recording happens at pop time under the core mutex, before handlers fan
// out. Seq and Depth are engine-local diagnostics and are not compared.
func TestEngineTraceEngineIdentical(t *testing.T) {
	run := func(e Engine) []TraceEvent {
		tr := NewEngineTrace(0)
		e.SetTrace(tr)
		traceWorkload(e)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	serial := run(NewSerialEngine())
	parallel := run(NewParallelEngine())
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d events, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].TS != parallel[i].TS || serial[i].Key != parallel[i].Key {
			t.Fatalf("event %d: serial %+v, parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestEngineTraceHeadRetention(t *testing.T) {
	e := NewSerialEngine()
	tr := NewEngineTrace(2)
	e.SetTrace(tr)
	traceWorkload(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if want := e.Events() - 2; tr.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), want)
	}
	// Head retention keeps the drill's start, not its tail.
	evs := tr.Events()
	if evs[0].TS != time.Millisecond || evs[0].Key != 0 || evs[1].Key != 1 {
		t.Errorf("retained head = %+v, want the first two 1ms events", evs)
	}
}

func TestEngineTraceNil(t *testing.T) {
	var tr *EngineTrace
	tr.record(0, 0, 0, 0) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil trace reported state")
	}
	// An engine without a trace runs untraced.
	e := NewSerialEngine()
	traceWorkload(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
