package timesim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// A proc adapts one goroutine-shaped workload (a whole record session, a
// replay, a native run) to the event engine. The goroutine drives the
// existing imperative pipeline unchanged; its Time is this proc, and every
// Advance becomes a scheduled wakeup event: the goroutine parks, the engine
// executes other components' events (other sessions, other GPUs), and the
// wakeup resumes the goroutine when engine time reaches it. Engine time
// advances only over parked processes, so a process observes exactly the
// monotone sequence of Now values a private Clock would have given it —
// which is why recordings made on an engine are byte-identical to
// single-Clock recordings.
type proc struct {
	core *engineCore
	key  uint64
	fn   func(t Time) error
	// wake is the process's start and wakeup event, bound once at launch.
	wake func() error

	// now is the process-local time: the timestamp of its last wakeup
	// plus any zero-cost reads since. Touched only by the process
	// goroutine (and by Go before the goroutine starts).
	now     time.Duration
	started bool
	resume  chan struct{}
	yield   chan procYield
}

// procYield is what the process goroutine reports when it hands control
// back to the engine: parked at a future wakeup, or finished.
type procYield struct {
	finished bool
	err      error
}

var _ Time = (*proc)(nil)

// Go implements Engine: it registers a process and schedules its start
// event at the engine's current time.
func (c *engineCore) Go(key uint64, fn func(t Time) error) {
	p := &proc{
		core: c, key: key, fn: fn,
		resume: make(chan struct{}),
		yield:  make(chan procYield),
	}
	p.wake = p.handle
	p.now = c.Now()
	c.Schedule(p.now, key, p.wake)
}

// handle is the process's event: resume (or start) the process goroutine
// and wait until it parks at its next wakeup or finishes. The wait is what
// gives the engine its barrier semantics — an event is "handled" only once
// the process has no more work at the current timestamp.
func (p *proc) handle() error {
	if !p.started {
		p.started = true
		go p.run()
	} else {
		p.resume <- struct{}{}
	}
	y := <-p.yield
	if y.finished {
		return y.err
	}
	return nil
}

// run executes the process body, converting a stray panic into an engine
// error. Session-level panics (netsim.Canceled and friends) are recovered
// inside the pipeline itself; anything that reaches here is a genuine bug,
// so the stack rides along.
func (p *proc) run() {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("timesim: process %d panicked: %v\n%s", p.key, r, debug.Stack())
			}
		}()
		err = p.fn(p)
	}()
	p.yield <- procYield{finished: true, err: err}
}

// Now implements Source.
func (p *proc) Now() time.Duration { return p.now }

// Advance implements Time: park until the engine reaches now+d.
func (p *proc) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("timesim: negative advance %v at %v (engine process %d)", d, p.now, p.key))
	}
	if d == 0 {
		return p.now
	}
	p.now += d
	p.core.Schedule(p.now, p.key, p.wake)
	p.yield <- procYield{}
	<-p.resume
	return p.now
}

// AdvanceTo implements Time: park until the engine reaches t, if t is in
// the future; never move backwards. A negative target panics with the same
// diagnostics Clock.AdvanceTo gives.
func (p *proc) AdvanceTo(t time.Duration) time.Duration {
	if t < 0 {
		panic(fmt.Sprintf("timesim: AdvanceTo(%v) before the timeline origin at %v (engine process %d)",
			t, p.now, p.key))
	}
	if t > p.now {
		p.Advance(t - p.now)
	}
	return p.now
}
