package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gpurelay/internal/timesim"
)

// fleetTraceDoc mirrors the Chrome trace_event JSON object format the export
// writes — unmarshalling through it is the validity check chrome://tracing
// effectively performs.
type fleetTraceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteFleetTrace(t *testing.T) {
	eng := timesim.NewSerialEngine()
	etrace := timesim.NewEngineTrace(0)
	eng.SetTrace(etrace)
	for key := uint64(0); key < 2; key++ {
		for _, at := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
			eng.Schedule(at, key, func() error { return nil })
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	clock := timesim.NewClock()
	sc := NewScope("drill-0000", Options{})
	sc.BindClock(clock)
	done := sc.Span("job", "record")
	clock.Advance(2 * time.Millisecond)
	done()

	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, etrace, sc, nil); err != nil {
		t.Fatal(err)
	}
	var doc fleetTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	var sessionSpans, engineSpans, counters, threadMeta int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Pid == 1:
			sessionSpans++
		case (e.Ph == "X" || e.Ph == "i") && e.Pid == 2 && e.Name == "handle":
			engineSpans++
		case e.Ph == "C":
			counters++
		case e.Ph == "M" && e.Name == "thread_name":
			threadMeta++
		}
	}
	if sessionSpans != 1 {
		t.Errorf("session spans = %d, want 1", sessionSpans)
	}
	// Two keys × two activations each; the last activation per key is an
	// instant ("i"), earlier ones are spans ("X").
	if engineSpans != 4 {
		t.Errorf("engine handler spans = %d, want 4", engineSpans)
	}
	// Two distinct timestamps × (batch_width + queue_depth).
	if counters != 4 {
		t.Errorf("counter samples = %d, want 4", counters)
	}
	// One session thread (the nil scope is skipped) + two engine key threads.
	if threadMeta != 3 {
		t.Errorf("thread_name metadata = %d, want 3", threadMeta)
	}
}

func TestWriteFleetTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc fleetTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%s", err, buf.String())
	}
}
