package obs

import (
	"sync"
	"time"

	"gpurelay/internal/timesim"
)

// Arg is one integer-valued span annotation (kept integral so trace exports
// are bit-deterministic). The JSON tags are the flight-recorder JSONL
// wire names.
type Arg struct {
	Key   string `json:"k"`
	Value int64  `json:"v"`
}

// A returns an Arg.
func A(key string, value int64) Arg { return Arg{Key: key, Value: value} }

// Span is one recorded phase interval on the virtual clock.
type Span struct {
	Name string
	// Cat is the Chrome trace_event category ("record", "net", "shim",
	// "replay", ...).
	Cat        string
	Start, End time.Duration
	// Instant marks a zero-duration annotation event.
	Instant bool
	Args    []Arg
}

// DefaultSpanCapacity bounds retained spans per scope unless Options
// overrides it. Past the cap, spans are dropped (SpansDropped counts them)
// rather than growing without bound — a naive VGG16 recording performs
// hundreds of thousands of round trips.
const DefaultSpanCapacity = 1 << 16

// Options tunes a Scope.
type Options struct {
	// SpanCapacity bounds retained spans: 0 selects DefaultSpanCapacity,
	// negative disables span recording entirely (counters still collect).
	SpanCapacity int
}

// Scope is one session's telemetry collector: a private metrics registry
// plus a span timeline on the session's virtual clock. A nil *Scope is a
// true no-op — every method checks the receiver — so instrumented code paths
// cost one predictable branch when observability is off, and per-session
// virtual-time determinism is preserved (the scope never advances the
// clock).
//
// A Scope is safe for concurrent use, but per-session determinism holds only
// to the extent the session itself is deterministic (the GR-T record
// pipeline is logically sequential, so it is).
type Scope struct {
	id      string
	local   *Registry
	spanCap int

	mu      sync.Mutex
	fleet   *Registry
	flight  *FlightRecorder
	clock   timesim.Source
	spans   []Span
	dropped int64
}

// NewScope creates a session scope. The id names the session in trace
// exports (Chrome thread name).
func NewScope(id string, opts Options) *Scope {
	cap := opts.SpanCapacity
	switch {
	case cap == 0:
		cap = DefaultSpanCapacity
	case cap < 0:
		cap = 0
	}
	return &Scope{id: id, local: NewRegistry(), spanCap: cap}
}

// ID returns the session id ("" for nil).
func (s *Scope) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// BindClock attaches the session's virtual clock; spans recorded before
// binding carry timestamp 0. record.RunContext binds the clock it creates at
// session start.
func (s *Scope) BindClock(c *timesim.Clock) {
	if c == nil {
		return
	}
	s.BindClockSource(c)
}

// BindClockSource attaches any virtual-time source — a session Clock, an
// engine, or an engine process clock. Spans only read timestamps, so the
// read-only Source interface is all a scope needs; this is what lets fleet
// drills stamp every session's spans off one shared engine timeline.
func (s *Scope) BindClockSource(c timesim.Source) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.clock = c
	s.mu.Unlock()
}

// AttachFleet installs a shared fleet registry, which then receives every
// counter and histogram update in addition to the scope's own registry — the
// fleet-wide totals a multi-tenant service exposes. The first registry
// attached wins, so a caller's fleet wins over the service default.
func (s *Scope) AttachFleet(r *Registry) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	if s.fleet == nil {
		s.fleet = r
	}
	s.mu.Unlock()
}

func (s *Scope) fleetReg() *Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// AttachFlight installs the flight recorder that receives the scope's Emit
// events — the structured journal a service or fleet drill keeps for
// diagnostics; until one is attached, Emit is a no-op. The first recorder
// attached wins, mirroring AttachFleet: a caller's recorder overrides the
// service default.
func (s *Scope) AttachFlight(f *FlightRecorder) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	if s.flight == nil {
		s.flight = f
	}
	s.mu.Unlock()
}

// Emit journals a structured flight-recorder event stamped with the scope's
// session id and current virtual time. A nil scope, or a scope without an
// attached recorder, is a true no-op — the args stay on the caller's stack,
// so hot paths pay one branch and zero allocations when flight recording is
// off.
func (s *Scope) Emit(kind, note string, args ...Arg) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f := s.flight
	s.mu.Unlock()
	if f == nil {
		return
	}
	f.Emit(s.Now(), s.id, kind, note, args...)
}

// Now reads the bound virtual clock (0 when unbound).
func (s *Scope) Now() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	c := s.clock
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Now()
}

// Count increments a counter on the session registry and, if attached, the
// fleet registry.
func (s *Scope) Count(name string, n int64, labels ...Label) {
	if s == nil {
		return
	}
	s.local.Add(name, n, labels...)
	if f := s.fleetReg(); f != nil {
		f.Add(name, n, labels...)
	}
}

// Observe records a histogram observation on the session and fleet
// registries.
func (s *Scope) Observe(name string, v float64, labels ...Label) {
	if s == nil {
		return
	}
	s.local.Observe(name, v, labels...)
	if f := s.fleetReg(); f != nil {
		f.Observe(name, v, labels...)
	}
}

// CountOr counts a session fact whether or not the session carries a scope:
// on the scope, which forwards it to its fleet registry, or on fleet when
// the scope is nil (and nowhere when both are).
func (s *Scope) CountOr(fleet *Registry, name string, n int64, labels ...Label) {
	if s != nil {
		s.Count(name, n, labels...)
	} else if fleet != nil {
		fleet.Add(name, n, labels...)
	}
}

// ObserveOr is CountOr for a histogram observation.
func (s *Scope) ObserveOr(fleet *Registry, name string, v float64, labels ...Label) {
	if s != nil {
		s.Observe(name, v, labels...)
	} else if fleet != nil {
		fleet.Observe(name, v, labels...)
	}
}

func (s *Scope) record(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spanCap == 0 || len(s.spans) >= s.spanCap {
		s.dropped++
		return
	}
	s.spans = append(s.spans, sp)
}

// Span opens a phase interval at the current virtual time and returns its
// closer; the span is recorded when the closer runs. Always returns a
// non-nil closer, so call sites read `defer scope.Span(...)()`. The span
// keeps a copy of args, made past the nil check, so the caller's variadic
// slice stays on its stack and a nil scope allocates nothing.
func (s *Scope) Span(name, cat string, args ...Arg) func() {
	if s == nil {
		return func() {}
	}
	start := s.Now()
	kept := append([]Arg(nil), args...)
	return func() {
		s.record(Span{Name: name, Cat: cat, Start: start, End: s.Now(), Args: kept})
	}
}

// Annotate records an instant event at the current virtual time. Like Span,
// it copies args only past the nil check.
func (s *Scope) Annotate(name, cat string, args ...Arg) {
	if s == nil {
		return
	}
	now := s.Now()
	s.record(Span{Name: name, Cat: cat, Start: now, End: now, Instant: true, Args: append([]Arg(nil), args...)})
}

// Spans returns a copy of the recorded timeline.
func (s *Scope) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// SpansDropped reports spans discarded past the capacity.
func (s *Scope) SpansDropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Snapshot captures the session registry (nil for a nil scope).
func (s *Scope) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	return s.local.Snapshot()
}
