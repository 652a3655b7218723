// Package timesim provides the virtual time that underlies every delay in
// the GR-T simulation.
//
// The paper's experiments span hundreds of wall-clock seconds (a naive VGG16
// recording takes ~800 s over a cellular link). Re-running those experiments
// in real time would make the test suite unusable, so nothing in this
// repository ever sleeps: instead, every component that would block — a
// network round trip, a GPU job, driver CPU work, a rollback — advances
// virtual time. Recording delays, replay delays, and energy are all read off
// that virtual timeline.
//
// Two implementations of the Time interface exist:
//
//   - Clock, a mutex-guarded monotonic counter. One session owns one Clock;
//     the GR-T record pipeline is logically sequential (the driver
//     serializes GPU jobs, queue length 1, per §5 of the paper), so a single
//     monotonic timeline is a faithful model.
//
//   - the process clocks handed out by an Engine (engine.go): a discrete-
//     event simulation core that hosts many such sessions as processes on
//     one timeline, each Advance a wakeup event. The serial engine is a
//     drop-in faithful to Clock semantics; the parallel engine executes
//     same-timestamp events concurrently, which is what lets a multi-GPU
//     recording or a fleet drill use every host core deterministically.
//
// A process that must wait for another component rather than for a time,
// such as a resumed drill session waiting for an admission slot, waits on a
// Wakeup: it parks with no wakeup scheduled, and whoever wakes it schedules
// one at the engine's current time. Any other caller of Wait blocks on the
// host instead, so one admission path serves both kinds of timeline.
package timesim

import (
	"fmt"
	"sync"
	"time"
)

// Source is a read-only view of virtual time. obs spans, admission-wait
// histograms, and everything else that only timestamps (never delays) reads
// through this interface, so the same instrumentation works whether the
// timeline is a session Clock or an event engine.
type Source interface {
	// Now returns the current virtual time as an offset from the
	// timeline's origin.
	Now() time.Duration
}

// Time is the virtual-time interface every delaying component advances.
// *Clock implements it with a shared counter; an Engine's process clocks
// implement it by scheduling a wakeup event and parking until the engine
// reaches it. Components hold a Time, not a *Clock, so one code path serves
// both the faithful single-timeline model and the discrete-event engines.
type Time interface {
	Source
	// Advance moves virtual time forward by d and returns the new time.
	// Negative advances panic: virtual time is monotonic by construction,
	// and a negative delay always indicates a bug in a cost model.
	Advance(d time.Duration) time.Duration
	// AdvanceTo moves virtual time forward to t if t is in the future; it
	// never moves time backwards. It returns the (possibly unchanged)
	// current time. A negative t panics — no timeline has a time before
	// its origin, so a negative target is always a cost-model bug.
	AdvanceTo(t time.Duration) time.Duration
}

// Clock is a virtual monotonic clock. The zero value is ready to use and
// reads 0.
type Clock struct {
	mu    sync.Mutex
	now   time.Duration
	owner string
}

var _ Time = (*Clock)(nil)

// NewClock returns a clock starting at zero virtual time.
func NewClock() *Clock { return &Clock{} }

// SetOwner names the component that owns this clock. The name appears in
// monotonicity-violation panics, so a bad advance points at the offending
// component instead of an anonymous counter.
func (c *Clock) SetOwner(name string) {
	c.mu.Lock()
	c.owner = name
	c.mu.Unlock()
}

// ownerTag renders the owner for diagnostics. Callers hold c.mu.
func (c *Clock) ownerTag() string {
	if c.owner == "" {
		return ""
	}
	return " (clock owned by " + c.owner + ")"
}

// Now returns the current virtual time as an offset from the clock's origin.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time. Negative
// advances panic: virtual time is monotonic by construction, and a negative
// delay always indicates a bug in a cost model.
func (c *Clock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		panic(fmt.Sprintf("timesim: negative advance %v at %v%s", d, c.now, c.ownerTag()))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future; it never
// moves the clock backwards. It returns the (possibly unchanged) current
// time. This is used when two components account overlapping intervals, e.g.
// an asynchronous commit whose round trip overlaps driver execution — a
// target already in the past is therefore legitimate and a no-op. A negative
// target is not: no timeline has a time before its origin, so it panics with
// the same monotonicity diagnostics Advance gives a negative delta.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < 0 {
		panic(fmt.Sprintf("timesim: AdvanceTo(%v) before the timeline origin at %v%s",
			t, c.now, c.ownerTag()))
	}
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Stopwatch measures an interval of virtual time.
type Stopwatch struct {
	clock Source
	start time.Duration
}

// StartWatch begins measuring virtual time on c.
func StartWatch(c Source) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns the virtual time accumulated since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return s.clock.Now() - s.start
}
