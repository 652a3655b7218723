package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gpurelay/internal/ring"
)

// FlightEvent is one structured entry of the flight recorder: what happened
// (Kind + Note), to which session, at which virtual time. Seq is the
// recorder-global admission order — the tiebreaker for events sharing a
// virtual timestamp.
type FlightEvent struct {
	Seq     uint64        `json:"seq"`
	VT      time.Duration `json:"vt_ns"`
	Session string        `json:"session,omitempty"`
	Kind    string        `json:"kind"`
	Note    string        `json:"note,omitempty"`
	Args    []Arg         `json:"args,omitempty"`
}

// String renders the event for terminal output (grtdiag flight).
func (e FlightEvent) String() string {
	s := fmt.Sprintf("%12.6fms  %-14s %-24s %s",
		float64(e.VT.Nanoseconds())/1e6, e.Kind, e.Session, e.Note)
	for _, a := range e.Args {
		s += fmt.Sprintf(" %s=%d", a.Key, a.Value)
	}
	return s
}

// DefaultFlightCapacity bounds retained flight events unless NewFlightRecorder
// is told otherwise. Past the cap the oldest events are overwritten (and
// counted in Dropped) — the recorder is a black box journal, not a log store.
const DefaultFlightCapacity = 4096

// FlightRecorder is a bounded, virtual-time-stamped journal of structured
// events: admission decisions, sync phases, speculation commits and misses,
// fault injections, resyncs, ingest rejections. One recorder typically spans
// a whole service or fleet drill; sessions stamp their id into each event.
//
// A nil *FlightRecorder is a true no-op, mirroring Scope's nil semantics:
// every method checks the receiver, so disabled flight recording costs one
// predictable branch and zero allocations. The recorder never reads or
// advances any clock itself — callers stamp virtual time — so enabling it
// cannot perturb a deterministic run.
type FlightRecorder struct{ events *ring.Ring[FlightEvent] }

// NewFlightRecorder creates a recorder retaining at most capacity events
// (DefaultFlightCapacity if <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring.New(capacity, stampSeq)}
}

// stampSeq numbers each event in admission order.
func stampSeq(e *FlightEvent, seq uint64) { e.Seq = seq }

// journal returns the recorder's ring, nil for a nil recorder.
func (f *FlightRecorder) journal() *ring.Ring[FlightEvent] {
	if f == nil {
		return nil
	}
	return f.events
}

// Emit journals one event. args are copied, so callers may pass a stack
// slice. Safe (and a no-op) on a nil recorder.
func (f *FlightRecorder) Emit(vt time.Duration, session, kind, note string, args ...Arg) {
	if f == nil {
		return
	}
	var copied []Arg
	if len(args) > 0 {
		copied = append([]Arg(nil), args...)
	}
	f.events.Add(FlightEvent{VT: vt, Session: session, Kind: kind, Note: note, Args: copied})
}

// Events returns the retained journal, oldest first.
func (f *FlightRecorder) Events() []FlightEvent { return f.journal().Entries() }

// Tail returns the newest n retained events, oldest of them first.
func (f *FlightRecorder) Tail(n int) []FlightEvent { return f.journal().Tail(n) }

// Len reports the number of retained events.
func (f *FlightRecorder) Len() int { return f.journal().Len() }

// Dropped reports events overwritten past the capacity.
func (f *FlightRecorder) Dropped() int64 { return int64(f.journal().Dropped()) }

// WriteJSONL writes the retained journal as JSON Lines, one event per line,
// oldest first — the grtdiag flight input format.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range f.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFlightJSONL parses a JSON Lines flight journal. Blank lines are
// skipped; a malformed line fails with its line number.
func ReadFlightJSONL(r io.Reader) ([]FlightEvent, error) {
	var out []FlightEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e FlightEvent
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: flight journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
