package timesim

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
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
	// stalled is set by the engine, under core.mu, when the event queue
	// drained while the process was parked.
	stalled error
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
	p.core.Schedule(p.now+d, p.key, p.wake)
	p.suspend()
	return p.now
}

// suspend hands control back to the engine until a scheduled wakeup
// resumes the process, and then reads the process clock from the engine:
// the wakeup's timestamp, whichever goroutine scheduled it.
func (p *proc) suspend() {
	p.yield <- procYield{}
	<-p.resume
	p.now = p.core.Now()
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

// A Wakeup is a one-shot rendezvous between one waiter and whatever wakes
// it, on either kind of timeline.
type Wakeup struct {
	mu     sync.Mutex
	woken  bool
	ch     chan struct{}
	parked *proc
}

// NewWakeup returns a Wakeup nobody has woken yet.
func NewWakeup() *Wakeup { return &Wakeup{ch: make(chan struct{})} }

// Wait returns once Wake has been called, at once if it already was. An
// engine process (t is its Time) parks: the engine runs on without it, and
// Wake schedules its wakeup at the engine's current time. If the event
// queue drains while it is parked, Run fails with an error naming the
// process, and Wait returns that error. Any other caller blocks until Wake
// or until ctx ends, and then returns ctx's error.
func (w *Wakeup) Wait(ctx context.Context, t Time) error {
	w.mu.Lock()
	p, isProc := t.(*proc)
	if w.woken || !isProc {
		w.mu.Unlock()
		select {
		case <-w.ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	w.parked = p
	p.core.mu.Lock()
	p.core.parked = append(p.core.parked, p)
	p.core.mu.Unlock()
	w.mu.Unlock()
	p.suspend()
	return p.stalled
}

// Wake wakes the waiter; later calls do nothing. A parked process must be
// woken from inside its engine, by an event or another process.
func (w *Wakeup) Wake() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.woken {
		w.woken = true
		close(w.ch)
		if w.parked != nil {
			w.parked.core.unpark(w.parked)
		}
	}
}

// unpark schedules a parked process's wakeup at the current engine time,
// unless a stall has already done so.
func (c *engineCore) unpark(p *proc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.parked, p); i >= 0 {
		c.parked = slices.Delete(c.parked, i, i+1)
		c.push(c.now, p.key, p.wake)
	}
}

// stall runs once the event queue has drained, when nothing is left to wake
// a process still parked. It fails the run with an error naming each such
// process, in key order, and schedules its wakeup so that its Wait returns
// the error and its goroutine ends. It reports whether there were any.
func (c *engineCore) stall() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	stuck := c.parked
	c.parked = nil
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].key < stuck[j].key })
	for _, p := range stuck {
		p.stalled = fmt.Errorf("timesim: engine process %d parked with nothing left to wake it", p.key)
		c.firstErr = cmp.Or(c.firstErr, p.stalled)
		c.push(c.now, p.key, p.wake)
	}
	return len(stuck) > 0
}
