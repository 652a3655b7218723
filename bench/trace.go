package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// tracer keeps the traced pass's spans in memory and writes them as a Chrome
// trace when the run ends. Every op gets a span, and every layer call the
// benchmark makes on the op's behalf gets a child span carrying the op's id.
// The spans are taken around calls from the benchmark's own code; the
// program under test is not instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

type span struct {
	Name   string
	ID     int
	Parent int // -1 for op and set-up spans
	Op     int // the op (or set-up) the span belongs to
	Worker int // client goroutine, for concurrent workloads
	Start  time.Duration
	Dur    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve hands out a span id before the span ends, so that children can
// name their parent while it is still open.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.Dur = start.Sub(t.t0), end.Sub(start)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// perOp sums the durations (ms) of the spans named name within each op and
// returns one value per op that has any.
func (t *tracer) perOp(name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += ms(s.Dur)
		}
	}
	return out
}

// writeChrome writes the spans in the Chrome trace_event format (load the
// file in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: s.Worker + 1,
			Args: map[string]int{"op": s.Op, "id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
