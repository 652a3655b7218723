package timesim

import (
	"cmp"
	"fmt"
	"sync"
	"time"
)

// Engine is a discrete-event simulation core. An event is a function at
// (time, key); events execute in timestamp order, and engine time jumps
// from one event timestamp to the next. The two implementations differ
// only in how they treat events that share a timestamp:
//
//   - NewSerialEngine executes them one at a time, ordered by key — a
//     drop-in faithful to the single-Clock semantics.
//
//   - NewParallelEngine executes the whole same-timestamp batch
//     concurrently, with a barrier before time moves on. Events in one
//     batch must touch disjoint state (distinct sessions, distinct GPUs);
//     under that rule the parallel engine produces results byte-identical
//     to the serial engine at any GOMAXPROCS.
//
// An engine's workloads are processes (Go): goroutines that drive the
// imperative record/replay pipeline unchanged, with every Advance of their
// process clock turned into a scheduled wakeup event. That is how whole
// record sessions become engine workloads without rewriting the driver
// stack.
type Engine interface {
	Source
	// Schedule admits fn to run at virtual time at. Events that share a
	// timestamp execute in ascending key order on the serial engine and may
	// execute concurrently on the parallel engine, so same-time events
	// must either carry distinct keys or touch disjoint state. Callers
	// derive keys from stable identities (GPU index, session index), never
	// from arrival order. Scheduling at a time before Now panics: the
	// engine's timeline, like a Clock's, is monotonic.
	Schedule(at time.Duration, key uint64, fn func() error)
	// Go launches fn as an engine process with the given deterministic
	// key: fn runs on its own goroutine, and the Time it receives parks
	// the goroutine at every Advance until the engine reaches the wakeup.
	// The returned error of fn is reported by Run. Go must be called
	// before Run (processes admitted at time 0) or from inside a running
	// event or process (admitted at the current engine time).
	Go(key uint64, fn func(t Time) error)
	// Run drains the event queue, executing every event and process to
	// completion, and returns the first error any of them reported.
	Run() error
	// Events reports the number of events executed so far (scheduling
	// throughput; the fleet drill's events/sec metric).
	Events() int64
	// Batches reports batch-width statistics: how many distinct timestamps
	// have executed and the widest same-timestamp batch. MaxWidth is the
	// structural parallelism available to the parallel engine — the
	// wall-clock speedup it can reach given enough cores — and is what the
	// fleet artifact records alongside the measured speedup, which on a
	// starved host says more about the machine than the engine.
	Batches() BatchStats
	// SetTrace attaches an execution trace: every event is recorded (time,
	// key, queue depth) at pop time, in deterministic pop order, for Chrome
	// trace export. Nil detaches. Tracing never changes scheduling, so a
	// traced run stays byte-identical to an untraced one.
	SetTrace(t *EngineTrace)
}

// BatchStats summarizes how events grouped by timestamp during Run.
type BatchStats struct {
	// Timestamps is the number of distinct executed event timestamps.
	Timestamps int64
	// MaxWidth is the largest number of events sharing one timestamp.
	MaxWidth int
}

// engineCore is the state shared by both engines.
type engineCore struct {
	mu       sync.Mutex
	now      time.Duration
	q        eventQueue
	seq      uint64
	handled  int64
	running  bool
	firstErr error
	// parked holds the processes waiting on a Wakeup with no wakeup
	// scheduled.
	parked []*proc

	batches   int64 // distinct executed timestamps
	width     int   // events executed at the current timestamp
	maxWidth  int
	timeKnown bool // false until the first event executes

	trace *EngineTrace
}

// SetTrace implements Engine.
func (c *engineCore) SetTrace(t *EngineTrace) {
	c.mu.Lock()
	c.trace = t
	c.mu.Unlock()
}

// Now implements Source. It reads the engine's global virtual time — the
// timestamp of the batch currently executing.
func (c *engineCore) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule implements Engine.
func (c *engineCore) Schedule(at time.Duration, key uint64, fn func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at < c.now {
		panic(fmt.Sprintf("timesim: event scheduled at %v, engine already at %v", at, c.now))
	}
	c.push(at, key, fn)
}

// push queues one event. Callers hold c.mu.
func (c *engineCore) push(at time.Duration, key uint64, fn func() error) {
	c.seq++
	c.q.push(event{at: at, key: key, seq: c.seq, fn: fn})
}

// Events implements Engine.
func (c *engineCore) Events() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handled
}

// Batches implements Engine.
func (c *engineCore) Batches() BatchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BatchStats{Timestamps: c.batches, MaxWidth: c.maxWidth}
}

// run executes drain as the engine's one Run, again after each stall, and
// returns the first error an event or a stall reported.
func (c *engineCore) run(drain func()) error {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		panic("timesim: Engine.Run is not reentrant")
	}
	c.running = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()
	for drain(); c.stall(); drain() {
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

// fail records the first event error.
func (c *engineCore) fail(err error) {
	if err != nil {
		c.mu.Lock()
		c.firstErr = cmp.Or(c.firstErr, err)
		c.mu.Unlock()
	}
}

// pop takes the earliest event off the queue, and with all every other
// event sharing its timestamp too, in (key, seq) order, advancing engine
// time to it and counting the batch width. It returns no event when the
// queue is empty.
func (c *engineCore) pop(all bool, out []event) []event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out = out[:0]
	if len(c.q) == 0 {
		return out
	}
	first := c.q.pop()
	if !c.timeKnown || first.at != c.now {
		c.batches++
		c.width = 0
	}
	c.timeKnown = true
	c.now = first.at
	out = append(out, first)
	for all && len(c.q) > 0 && c.q[0].at == c.now {
		out = append(out, c.q.pop())
	}
	c.handled += int64(len(out))
	c.width += len(out)
	c.maxWidth = max(c.maxWidth, c.width)
	if c.trace != nil {
		// Depth is the backlog beyond the current timestamp's batch, and
		// pop order is the deterministic (time, key, seq) heap order, so
		// both engines record identical traces however a batch executes.
		depth := len(c.q)
		for i := range c.q {
			if c.q[i].at == c.now {
				depth--
			}
		}
		for _, e := range out {
			c.trace.record(c.now, e.key, e.seq, depth)
		}
	}
	return out
}

// SerialEngine executes events strictly one at a time in (time, key) order.
// It reproduces exactly the timeline a single Clock would have produced for
// the same components, which is what keeps single-GPU recordings
// byte-identical to the pre-engine pipeline.
type SerialEngine struct {
	engineCore
}

var _ Engine = (*SerialEngine)(nil)

// NewSerialEngine creates a serial engine at time 0.
func NewSerialEngine() *SerialEngine { return &SerialEngine{} }

// Run implements Engine.
func (e *SerialEngine) Run() error {
	return e.run(func() {
		var one []event
		for one = e.pop(false, one); len(one) > 0; one = e.pop(false, one) {
			e.fail(one[0].fn())
		}
	})
}

// ParallelEngine executes every event of the earliest timestamp
// concurrently, then waits for the whole batch (a barrier) before engine
// time moves to the next timestamp. Same-timestamp events must touch
// disjoint state; each individual event observes exactly the event
// sequence it would have observed under the serial engine, so per-component
// results (recordings, seals, stats) are byte-identical — the determinism
// property test pins this at GOMAXPROCS 1, 2, and 8.
type ParallelEngine struct {
	engineCore
}

var _ Engine = (*ParallelEngine)(nil)

// NewParallelEngine creates a parallel engine at time 0.
func NewParallelEngine() *ParallelEngine { return &ParallelEngine{} }

// Run implements Engine.
func (e *ParallelEngine) Run() error {
	return e.run(func() {
		var scratch []event
		var panicVal any
		var panicMu sync.Mutex
		for {
			batch := e.pop(true, scratch)
			if len(batch) == 0 {
				return
			}
			scratch = batch // reuse the backing array next round
			if len(batch) == 1 {
				e.fail(batch[0].fn())
				continue
			}
			var wg sync.WaitGroup
			for _, ev := range batch {
				wg.Add(1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicVal == nil {
								panicVal = r
							}
							panicMu.Unlock()
						}
						wg.Done()
					}()
					e.fail(ev.fn())
				}()
			}
			wg.Wait()
			if panicVal != nil {
				panic(panicVal)
			}
		}
	})
}
