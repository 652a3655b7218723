package shim

import (
	"time"

	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/val"
)

// ThreadBus is one kernel thread's view of the DriverShim: it implements
// kbase.Bus and kbase.Kernel with a per-thread deferral queue, matching the
// paper's design ("It instantiates one queue per kernel thread", §4.1).
//
// Release consistency for the driver's shared variables falls out of the
// commit discipline: a thread always flushes its own queue before releasing
// any lock, so by the time another thread can acquire that lock and read
// shared state, every register access that produced that state has reached
// the GPU and every symbol the state depends on is resolved.
type ThreadBus struct {
	s   *DriverShim
	tid string
}

// Name returns the kernel thread's identity.
func (t *ThreadBus) Name() string { return t.tid }

// Read implements kbase.Bus.
func (t *ThreadBus) Read(fn string, r mali.Reg) val.Value {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	return t.s.readT(t.tid, fn, r)
}

// Write implements kbase.Bus.
func (t *ThreadBus) Write(fn string, r mali.Reg, v val.Value) {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	t.s.writeT(t.tid, fn, r, v)
}

// Truthy implements kbase.Bus.
func (t *ThreadBus) Truthy(fn string, v val.Value) bool {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	return t.s.resolveForUse(t.tid, fn, v).MustConcrete() != 0
}

// Concretize implements kbase.Bus.
func (t *ThreadBus) Concretize(fn string, v val.Value) uint32 {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	return t.s.resolveForUse(t.tid, fn, v).MustConcrete()
}

// Poll implements kbase.Bus.
func (t *ThreadBus) Poll(spec kbase.PollSpec) kbase.PollResult {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	return t.s.pollT(t.tid, spec)
}

// WaitIRQ implements kbase.Bus.
func (t *ThreadBus) WaitIRQ(fn string) kbase.IRQState {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	return t.s.waitIRQT(t.tid, fn)
}

// Lock implements kbase.Kernel. The inner lock is taken outside the shim
// mutex so a blocked thread never wedges the shim.
func (t *ThreadBus) Lock(name string) { t.s.inner.Lock(name) }

// Unlock implements kbase.Kernel: this thread's queue commits before the
// lock is released (release consistency, §4.1). The commit itself may still
// be speculated — only externalization forces validation (§4.2).
func (t *ThreadBus) Unlock(name string) {
	t.locked(func() { t.s.commit(t.tid) })
	t.s.inner.Unlock(name)
}

// Delay implements kbase.Kernel: drivers use delays as hardware barriers, so
// queued accesses must reach the GPU (in simulation: be initiated) before
// the delay elapses.
func (t *ThreadBus) Delay(d time.Duration) {
	t.locked(func() { t.s.commit(t.tid) })
	t.s.inner.Delay(d)
}

// Log implements kbase.Kernel: printk externalizes kernel state, so beyond
// committing, all outstanding speculation must validate first (§4.2).
func (t *ThreadBus) Log(format string, args ...any) {
	t.locked(func() {
		t.s.commitSync(t.tid)
		t.s.validateOutstanding()
	})
	t.s.inner.Log(format, args...)
}

// locked runs f under the shim mutex and releases it however f ends: a
// commit can abort the session with a netsim.Canceled or SessionLost panic,
// and the driver's deferred unlocks, and the recorder reading the shim's
// stats, still take the mutex on the way out.
func (t *ThreadBus) locked(f func()) {
	t.s.gmu.Lock()
	defer t.s.gmu.Unlock()
	f()
}
