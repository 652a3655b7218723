package shim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/netsim"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
	"gpurelay/internal/val"
)

// remoteRig wires a cloud-side DriverShim to a client-side GPU over a
// simulated link, as a record session does.
type remoteRig struct {
	clock      *timesim.Clock
	link       *netsim.Link
	clientPool *gpumem.Pool
	cloudPool  *gpumem.Pool
	gpu        *mali.GPU
	gshim      *GPUShim
	dshim      *DriverShim
	kern       *kbase.StdKernel
}

func newRemoteRig(t *testing.T, mode Mode, cond netsim.Condition, hist *History) *remoteRig {
	t.Helper()
	clock := timesim.NewClock()
	clientPool := gpumem.NewPool(64 << 20)
	cloudPool := gpumem.NewPool(64 << 20)
	gpu := mali.New(mali.G71MP8, clientPool, clock, 7)
	gshim := NewGPUShim(gpu, clock)
	gshim.SetLocked(true)
	kern := kbase.NewStdKernel(clock)
	link := netsim.NewLink(cond, clock)
	dshim := NewDriverShim(Config{
		Mode: mode, Link: link, Client: gshim, Clock: clock, Kernel: kern,
		History: hist, Recovery: DefaultRecovery(1e6),
	})
	return &remoteRig{clock: clock, link: link, clientPool: clientPool,
		cloudPool: cloudPool, gpu: gpu, gshim: gshim, dshim: dshim, kern: kern}
}

func TestSyncModeOneRTTPerAccess(t *testing.T) {
	r := newRemoteRig(t, ModeSync, netsim.WiFi, nil)
	const n = 10
	for i := 0; i < n; i++ {
		v := r.dshim.Read(kbase.FnProbe, mali.GPU_ID)
		if got := r.dshim.Concretize(kbase.FnProbe, v); got != mali.G71MP8.ProductID {
			t.Fatalf("read %d = %#x", i, got)
		}
	}
	if got := r.link.Stats().BlockingRTTs; got != n {
		t.Fatalf("%d blocking RTTs for %d sync reads", got, n)
	}
}

func TestDeferralBatchesAccesses(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	// A pure read-then-dependent-write segment (Listing 1(a) shape):
	// all queued, one commit at the control dependency.
	q1 := r.dshim.Read(kbase.FnQuirks, mali.SHADER_CONFIG)
	q2 := r.dshim.Read(kbase.FnQuirks, mali.L2_MMU_CONFIG)
	r.dshim.Write(kbase.FnQuirks, mali.L2_MMU_CONFIG, q2.Or(val.Const(0x10)))
	r.dshim.Write(kbase.FnQuirks, mali.SHADER_CONFIG, q1)
	if got := r.link.Stats().BlockingRTTs; got != 0 {
		t.Fatalf("deferral issued %d RTTs before any dependency", got)
	}
	// Branching on q2 forces the commit.
	r.dshim.Truthy(kbase.FnQuirks, q2.And(val.Const(0x10)))
	if got := r.link.Stats().BlockingRTTs; got != 1 {
		t.Fatalf("%d RTTs after control dependency, want exactly 1", got)
	}
	// The client GPU must have seen the writes in program order with the
	// symbol resolved: L2_MMU_CONFIG = old | 0x10.
	if got := r.gpu.ReadReg(mali.L2_MMU_CONFIG); got&0x10 == 0 {
		t.Fatalf("client L2_MMU_CONFIG = %#x, symbolic write lost", got)
	}
}

func TestDeferralPreservesProgramOrder(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	// Write then read the same register inside one batch: the read must
	// observe the earlier queued write.
	r.dshim.Write(kbase.FnPowerOn, mali.SHADER_CONFIG, val.Const(0xAB))
	v := r.dshim.Read(kbase.FnPowerOn, mali.SHADER_CONFIG)
	if got := r.dshim.Concretize(kbase.FnPowerOn, v); got != 0xAB {
		t.Fatalf("read-after-write in batch = %#x, want 0xAB", got)
	}
}

func TestUnlockForcesCommit(t *testing.T) {
	// Release consistency (§4.1): all queued accesses must hit the GPU
	// before any lock is released, so no other thread can observe stale
	// hardware state.
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	r.dshim.Lock("pm")
	r.dshim.Write(kbase.FnPowerOn, mali.SHADER_PWRON_LO, val.Const(0xFF))
	if r.link.Stats().BlockingRTTs != 0 {
		t.Fatal("write committed before unlock")
	}
	r.dshim.Unlock("pm")
	if r.link.Stats().BlockingRTTs != 1 {
		t.Fatalf("unlock did not force a commit (%d RTTs)", r.link.Stats().BlockingRTTs)
	}
	if r.gpu.ReadReg(mali.SHADER_PWRTRANS_LO) == 0 {
		t.Fatal("client GPU did not receive the committed write")
	}
}

func TestDelayForcesCommit(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	r.dshim.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanCaches))
	r.dshim.Delay(time.Millisecond)
	if r.link.Stats().BlockingRTTs != 1 {
		t.Fatal("delay did not force a commit")
	}
}

func TestNonHotFunctionsExecuteSynchronously(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	v := r.dshim.Read("some_cold_helper", mali.GPU_ID)
	if !v.IsConcrete() {
		t.Fatal("cold-function read returned a symbol")
	}
	if r.link.Stats().BlockingRTTs != 1 {
		t.Fatal("cold-function read did not execute synchronously")
	}
}

func TestPollOffloadSingleRTT(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	// Start a cache clean, then poll for its completion: deferral sends
	// write+loop in ONE round trip, with iterations running client-side.
	r.dshim.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanInvCaches))
	res := r.dshim.Poll(kbase.PollSpec{
		Fn: kbase.FnCacheClean, Reg: mali.GPU_IRQ_RAWSTAT,
		DoneMask: mali.GPUIRQCleanCachesCompleted, DoneVal: mali.GPUIRQCleanCachesCompleted,
		Max: 64,
	})
	if res.TimedOut {
		t.Fatal("offloaded poll timed out")
	}
	if res.Iters < 2 {
		t.Fatalf("poll finished in %d iterations; hardware model should need a few", res.Iters)
	}
	if got := r.link.Stats().BlockingRTTs; got != 1 {
		t.Fatalf("offloaded poll cost %d RTTs, want 1", got)
	}
	st := r.dshim.Stats()
	if st.PollLoopsOffloaded != 1 || st.PollRTTsSaved < 1 {
		t.Fatalf("poll stats = %+v", st)
	}
}

func TestPollSyncModeOneRTTPerIteration(t *testing.T) {
	r := newRemoteRig(t, ModeSync, netsim.WiFi, nil)
	r.dshim.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanInvCaches))
	before := r.link.Stats().BlockingRTTs
	res := r.dshim.Poll(kbase.PollSpec{
		Fn: kbase.FnCacheClean, Reg: mali.GPU_IRQ_RAWSTAT,
		DoneMask: mali.GPUIRQCleanCachesCompleted, DoneVal: mali.GPUIRQCleanCachesCompleted,
		Max: 64,
	})
	rtts := r.link.Stats().BlockingRTTs - before
	if rtts != res.Iters {
		t.Fatalf("sync poll: %d RTTs for %d iterations", rtts, res.Iters)
	}
	if res.Iters < 2 {
		t.Fatalf("poll completed in %d iterations", res.Iters)
	}
}

// powerCycle exercises the recurring power-state segment through the shim.
func powerCycle(r *remoteRig) {
	d := r.dshim
	d.Lock("pm")
	ready := d.Read(kbase.FnPowerOn, mali.SHADER_READY_LO)
	if !d.Truthy(kbase.FnPowerOn, ready.Eq(val.Const(0xFF))) {
		d.Write(kbase.FnPowerOn, mali.SHADER_PWRON_LO, val.Const(0xFF).And(ready.Not()))
		d.Poll(kbase.PollSpec{Fn: kbase.FnPowerOn, Reg: mali.SHADER_PWRTRANS_LO,
			DoneMask: 0xFFFFFFFF, DoneVal: 0, Max: 64})
	}
	d.Unlock("pm")
	d.Lock("pm")
	d.Write(kbase.FnPowerOff, mali.SHADER_PWROFF_LO, val.Const(0xFF))
	d.Poll(kbase.PollSpec{Fn: kbase.FnPowerOff, Reg: mali.SHADER_PWRTRANS_LO,
		DoneMask: 0xFFFFFFFF, DoneVal: 0, Max: 64})
	d.Unlock("pm")
	// Ack the power IRQs so every cycle starts from the same GPU state.
	d.Lock("pm")
	st := d.Read(kbase.FnGPUIRQ, mali.GPU_IRQ_RAWSTAT)
	d.Write(kbase.FnGPUIRQ, mali.GPU_IRQ_CLEAR, st)
	d.Unlock("pm")
}

func TestSpeculationKicksInAfterKRepeats(t *testing.T) {
	hist := NewHistory(3)
	r := newRemoteRig(t, ModeDeferSpec, netsim.WiFi, hist)
	for i := 0; i < 3; i++ {
		powerCycle(r)
	}
	if st := r.dshim.Stats(); st.AsyncCommits != 0 {
		t.Fatalf("speculated during warm-up: %+v", st)
	}
	warm := r.dshim.Stats().SyncCommits
	for i := 0; i < 5; i++ {
		powerCycle(r)
	}
	r.dshim.validateOutstanding()
	st := r.dshim.Stats()
	if st.AsyncCommits == 0 {
		t.Fatalf("no speculation after warm history: %+v", st)
	}
	if st.Mispredictions != 0 {
		t.Fatalf("mispredictions on a deterministic segment: %+v", st)
	}
	_ = warm
	if st.SpeculatedByCategory[kbase.CatPower] == 0 {
		t.Fatalf("power commits not categorized: %+v", st.SpeculatedByCategory)
	}
}

func TestSpeculationHidesRTTs(t *testing.T) {
	run := func(mode Mode) time.Duration {
		hist := NewHistory(3)
		r := newRemoteRig(t, mode, netsim.WiFi, hist)
		for i := 0; i < 3; i++ { // identical warm-up for both modes
			powerCycle(r)
		}
		start := r.clock.Now()
		for i := 0; i < 10; i++ {
			powerCycle(r)
		}
		r.dshim.validateOutstanding()
		return r.clock.Now() - start
	}
	deferred, spec := run(ModeDefer), run(ModeDeferSpec)
	if spec >= deferred {
		t.Fatalf("speculation (%v) not faster than deferral (%v)", spec, deferred)
	}
	// The power-on sequence has an inherent dependent-commit stall (the
	// PWRON write encodes the predicted READY value), so not every RTT
	// can hide; §7.3 reports 60-74% overall.
	if spec > deferred*6/10 {
		t.Fatalf("speculation only %v vs %v; expected >40%% savings", spec, deferred)
	}
}

func TestNondeterministicValuesNeverSpeculated(t *testing.T) {
	hist := NewHistory(3)
	r := newRemoteRig(t, ModeDeferSpec, netsim.WiFi, hist)
	// LATEST_FLUSH_ID changes after every flush; the same driver source
	// location reads it repeatedly but history never shows k identical
	// outcomes, so these commits stay synchronous (§7.3).
	for i := 0; i < 8; i++ {
		r.dshim.Lock("hwaccess")
		r.dshim.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanInvCaches))
		r.dshim.Poll(kbase.PollSpec{Fn: kbase.FnCacheClean, Reg: mali.GPU_IRQ_RAWSTAT,
			DoneMask: mali.GPUIRQCleanCachesCompleted, DoneVal: mali.GPUIRQCleanCachesCompleted, Max: 64})
		r.dshim.Write(kbase.FnCacheClean, mali.GPU_IRQ_CLEAR, val.Const(mali.GPUIRQCleanCachesCompleted))
		id := r.dshim.Read(kbase.FnSubmit, mali.LATEST_FLUSH_ID)
		r.dshim.Write(kbase.FnSubmit, mali.JSReg(1, mali.JS_FLUSH_ID_NEXT), id)
		r.dshim.Unlock("hwaccess")
	}
	st := r.dshim.Stats()
	if st.SpeculatedByCategory[kbase.CatSubmit] != 0 {
		t.Fatalf("submission commits were speculated despite nondeterministic flush IDs: %+v", st)
	}
}

func TestSpeculativeStateDoesNotSpillToClient(t *testing.T) {
	// §4.2 optimization: a commit whose content depends on predicted
	// values must stall until outstanding commits validate.
	hist := NewHistory(1) // predict aggressively to set the scene
	r := newRemoteRig(t, ModeDeferSpec, netsim.WiFi, hist)
	segment := func() val.Value {
		v := r.dshim.Read(kbase.FnPowerOn, mali.SHADER_READY_LO)
		r.dshim.Truthy(kbase.FnPowerOn, v) // control dep -> commit (spec once warm)
		return v
	}
	segment() // warm: sync
	v := segment()
	st := r.dshim.Stats()
	if st.AsyncCommits != 1 {
		t.Fatalf("expected 1 speculated commit, got %+v", st)
	}
	// Now write a value derived from the predicted read: the commit must
	// stall and validate first.
	r.dshim.Lock("pm")
	r.dshim.Write(kbase.FnPowerOn, mali.SHADER_CONFIG, v.Or(val.Const(1)))
	r.dshim.Unlock("pm")
	st = r.dshim.Stats()
	if st.SpecStalls == 0 {
		t.Fatal("dependent commit did not stall on outstanding speculation")
	}
	if len(r.dshim.outstanding) != 0 {
		t.Fatal("outstanding speculation survived a dependent commit")
	}
}

func TestMispredictionInjectionRecovers(t *testing.T) {
	hist := NewHistory(3)
	r := newRemoteRig(t, ModeDeferSpec, netsim.WiFi, hist)
	for i := 0; i < 4; i++ {
		powerCycle(r)
	}
	r.dshim.validateOutstanding()
	if r.dshim.Stats().AsyncCommits == 0 {
		t.Fatal("setup: no speculation happening")
	}
	before := r.clock.Now()
	r.dshim.InjectMispredictionAt(r.dshim.asyncSeq) // next speculated commit
	for i := 0; i < 3; i++ {
		powerCycle(r)
	}
	r.dshim.validateOutstanding()
	st := r.dshim.Stats()
	if st.Mispredictions != 1 {
		t.Fatalf("mispredictions = %d, want 1", st.Mispredictions)
	}
	if st.RecoveryTime < 500*time.Millisecond {
		t.Fatalf("recovery cost %v implausibly cheap", st.RecoveryTime)
	}
	if r.clock.Now()-before < st.RecoveryTime {
		t.Fatal("recovery time not reflected in the virtual clock")
	}
}

func TestEventLogCapturesInteractions(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	r.dshim.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanInvCaches))
	r.dshim.Poll(kbase.PollSpec{Fn: kbase.FnCacheClean, Reg: mali.GPU_IRQ_RAWSTAT,
		DoneMask: mali.GPUIRQCleanCachesCompleted, DoneVal: mali.GPUIRQCleanCachesCompleted, Max: 64})
	log := r.dshim.EventLog()
	if len(log) != 2 {
		t.Fatalf("log has %d events, want write+poll", len(log))
	}
	if log[0].Kind != trace.KWrite || log[0].Reg != mali.GPU_COMMAND {
		t.Fatalf("log[0] = %+v", log[0])
	}
	if log[1].Kind != trace.KPoll || log[1].Iters < 2 {
		t.Fatalf("log[1] = %+v", log[1])
	}
}

func TestLogHoldsActualValuesUnderSpeculation(t *testing.T) {
	hist := NewHistory(1)
	r := newRemoteRig(t, ModeDeferSpec, netsim.WiFi, hist)
	read := func() {
		v := r.dshim.Read(kbase.FnPowerOn, mali.SHADER_READY_LO)
		r.dshim.Truthy(kbase.FnPowerOn, v.Eq(val.Const(0)))
	}
	read() // sync
	read() // speculated
	r.dshim.validateOutstanding()
	for _, e := range r.dshim.EventLog() {
		if e.Kind == trace.KRead && e.Reg == mali.SHADER_READY_LO && e.Value != 0 {
			t.Fatalf("log value %#x differs from GPU's actual 0", e.Value)
		}
	}
}

func TestDumpPiggybacksOnCommit(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	dump := make([]byte, 5000)
	r.dshim.StageDumpToClient(dump)
	r.dshim.Lock("hwaccess")
	r.dshim.Write(kbase.FnSubmit, mali.JSReg(1, mali.JS_COMMAND_NEXT), val.Const(0))
	r.dshim.Unlock("hwaccess")
	s := r.link.Stats()
	if s.BlockingRTTs != 1 {
		t.Fatalf("dump+commit took %d RTTs, want 1 (piggybacked)", s.BlockingRTTs)
	}
	if s.BytesSent < 5000 {
		t.Fatalf("dump bytes not on the wire: %d", s.BytesSent)
	}
	log := r.dshim.EventLog()
	if log[0].Kind != trace.KDumpToClient {
		t.Fatalf("dump not logged before the job-start write: %v", log[0].Kind)
	}
}

func TestWaitIRQCarriesClientDump(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	r.gshim.OnIRQDump = func() []byte { return []byte("client-metastate") }
	r.dshim.WaitIRQ(kbase.FnJobIRQ)
	log := r.dshim.EventLog()
	if len(log) != 2 || log[0].Kind != trace.KIRQ || log[1].Kind != trace.KDumpToCloud {
		t.Fatalf("log = %+v", log)
	}
	if string(log[1].Dump) != "client-metastate" {
		t.Fatalf("logged client dump %q, want the bytes the GPU shim sent", log[1].Dump)
	}
}

func TestGPUShimRequiresLock(t *testing.T) {
	clock := timesim.NewClock()
	gpu := mali.New(mali.G71MP8, gpumem.NewPool(1<<20), clock, 1)
	g := NewGPUShim(gpu, clock)
	defer func() {
		if recover() == nil {
			t.Fatal("Execute on unlocked GPU did not panic")
		}
	}()
	g.Execute([]RegOp{{Kind: OpRead, Reg: mali.GPU_ID, Sym: val.NewSymbol("id")}})
}

func TestHistoryPredict(t *testing.T) {
	h := NewHistory(3)
	o := Outcome{Reads: []uint32{1, 2}}
	h.Record("sig", o)
	h.Record("sig", o)
	if _, ok := h.Predict("sig"); ok {
		t.Fatal("predicted with only 2 outcomes (k=3)")
	}
	h.Record("sig", o)
	if p, ok := h.Predict("sig"); !ok || !p.Equal(o) {
		t.Fatal("no prediction after 3 identical outcomes")
	}
	h.Record("sig", Outcome{Reads: []uint32{1, 3}})
	if _, ok := h.Predict("sig"); ok {
		t.Fatal("predicted despite a divergent recent outcome")
	}
}

func TestHistoryPollItersExcludedFromEquality(t *testing.T) {
	a := Outcome{PollDone: []bool{true}, PollFinal: []uint32{5}, PollIters: []int{2}}
	b := Outcome{PollDone: []bool{true}, PollFinal: []uint32{5}, PollIters: []int{9}}
	if !a.Equal(b) {
		t.Fatal("iteration counts must not affect outcome equality (§4.3)")
	}
}

func TestCommitSignatureDistinguishesSequences(t *testing.T) {
	a := []RegOp{{Kind: OpRead, Fn: "f", Reg: mali.GPU_ID}}
	b := []RegOp{{Kind: OpRead, Fn: "f", Reg: mali.GPU_STATUS}}
	c := []RegOp{{Kind: OpRead, Fn: "g", Reg: mali.GPU_ID}}
	if CommitSignature(a) == CommitSignature(b) {
		t.Fatal("different registers share a signature")
	}
	if CommitSignature(a) == CommitSignature(c) {
		t.Fatal("different source locations share a signature")
	}
	d1 := []RegOp{{Kind: OpWrite, Fn: "f", Reg: mali.GPU_COMMAND, WriteVal: val.Const(1)}}
	d2 := []RegOp{{Kind: OpWrite, Fn: "f", Reg: mali.GPU_COMMAND, WriteVal: val.Const(2)}}
	if CommitSignature(d1) == CommitSignature(d2) {
		t.Fatal("different write values share a signature")
	}
}

func TestPerThreadQueuesAreIndependent(t *testing.T) {
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	a := r.dshim.Thread("kworker/a")
	b := r.dshim.Thread("kworker/b")
	// Thread A queues a read; thread B commits its own work. A's queue
	// must survive B's commit untouched.
	va := a.Read(kbase.FnPowerOn, mali.SHADER_READY_LO)
	b.Write(kbase.FnCacheClean, mali.GPU_COMMAND, val.Const(mali.GPUCommandCleanCaches))
	b.Delay(time.Millisecond) // commit point for B only
	if got := r.link.Stats().BlockingRTTs; got != 1 {
		t.Fatalf("B's commit issued %d RTTs", got)
	}
	if va.IsConcrete() {
		t.Fatal("A's deferred read resolved by B's commit")
	}
	// A's own control dependency commits A's queue.
	if a.Truthy(kbase.FnPowerOn, va) {
		t.Fatal("shader ready before power-on")
	}
	if got := r.link.Stats().BlockingRTTs; got != 2 {
		t.Fatalf("A's commit missing: %d RTTs", got)
	}
}

func TestReleaseConsistencyAcrossThreads(t *testing.T) {
	// §4.1's memory model: thread A updates GPU state under a lock with
	// deferred accesses; by the time thread B acquires the same lock, the
	// accesses must have reached the GPU. Real goroutines, real mutex.
	r := newRemoteRig(t, ModeDefer, netsim.WiFi, nil)
	a := r.dshim.Thread("kworker/a")
	b := r.dshim.Thread("kworker/b")

	aInside := make(chan struct{})
	bDone := make(chan uint32)
	go func() {
		a.Lock("hwaccess")
		a.Write(kbase.FnQuirks, mali.SHADER_CONFIG, val.Const(0xAB))
		close(aInside) // B may now contend for the lock
		a.Unlock("hwaccess")
	}()
	go func() {
		<-aInside
		b.Lock("hwaccess")
		// B holds the lock: A's deferred write must be visible on the
		// client GPU already.
		v := r.gpu.ReadReg(mali.SHADER_CONFIG)
		b.Unlock("hwaccess")
		bDone <- v
	}()
	if got := <-bDone; got != 0xAB {
		t.Fatalf("thread B observed SHADER_CONFIG=%#x; release consistency broken", got)
	}
}

func TestConcurrentThreadsNoRace(t *testing.T) {
	// Hammer the shim from several "kernel threads" at once; run with
	// -race to validate the locking discipline.
	r := newRemoteRig(t, ModeDeferSpec, netsim.Loopback, NewHistory(3))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tb := r.dshim.Thread(fmt.Sprintf("kworker/%d", w))
			for i := 0; i < 50; i++ {
				tb.Lock("pm")
				v := tb.Read(kbase.FnPowerOn, mali.SHADER_READY_LO)
				tb.Truthy(kbase.FnPowerOn, v)
				tb.Write(kbase.FnPowerOn, mali.SHADER_CONFIG, v.Or(val.Const(1)))
				tb.Unlock("pm")
			}
		}(w)
	}
	wg.Wait()
	st := r.dshim.Stats()
	if st.RegAccesses != 4*50*2 {
		t.Fatalf("accesses = %d, want %d", st.RegAccesses, 4*50*2)
	}
}
