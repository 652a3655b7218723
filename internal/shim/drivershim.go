package shim

import (
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
	"gpurelay/internal/val"
)

// Mode selects how DriverShim hides (or does not hide) the network latency.
type Mode int

// Shim modes, composing into the paper's recorder variants (§7.2): Naive and
// OursM use ModeSync; OursMD uses ModeDefer; OursMDS uses ModeDeferSpec.
const (
	// ModeSync forwards every register access as its own blocking round
	// trip, and runs polling loops one read per round trip.
	ModeSync Mode = iota
	// ModeDefer queues accesses and commits batches (§4.1), offloading
	// polling loops whole (§4.3).
	ModeDefer
	// ModeDeferSpec additionally predicts commit outcomes from history
	// and overlaps their round trips with driver execution (§4.2).
	ModeDeferSpec
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeDefer:
		return "defer"
	case ModeDeferSpec:
		return "defer+spec"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// RecoveryModel prices a misprediction rollback (§4.2, §7.3): both sides
// restart and replay the interaction log independently; the cloud side
// dominates with driver reload and GPU job recompilation.
type RecoveryModel struct {
	DriverReload   time.Duration
	Recompile      time.Duration
	ReplayPerEvent time.Duration
}

// DefaultRecovery returns the calibrated recovery model for a workload of
// the given total FLOPs (recompilation scales with model arithmetic).
func DefaultRecovery(flops int64) RecoveryModel {
	return RecoveryModel{
		DriverReload:   800 * time.Millisecond,
		Recompile:      100*time.Millisecond + time.Duration(float64(flops)/5e9*float64(time.Second)),
		ReplayPerEvent: 2 * time.Microsecond,
	}
}

// Stats aggregates the recorder-side counters behind Table 1, Figure 8, and
// §7.3.
type Stats struct {
	RegAccesses int
	Commits     int
	SyncCommits int
	// AsyncCommits met the speculation criteria and ran asynchronously.
	AsyncCommits int
	// CommitsByCategory buckets commits by driver routine (Figure 8).
	CommitsByCategory map[kbase.Category]int
	// SpeculatedByCategory buckets only the speculated commits.
	SpeculatedByCategory map[kbase.Category]int
	Mispredictions       int
	Recoveries           int
	RecoveryTime         time.Duration
	SpecStalls           int
	PollLoops            int
	PollLoopsOffloaded   int
	PollRTTsSaved        int
	IRQWaits             int
	// ResyncEvents counts checkpointed events re-derived and verified while
	// resuming a lost session, and ResyncCommits the SyncCommits that
	// re-derived them locally, with no round trip.
	ResyncEvents  int
	ResyncCommits int
}

// Publish adds the shim's tallies to a session scope's counters, creating
// only the series a register access, commit, poll, stall, rollback or
// resync touched. The recorder publishes once per attempt, however it ends.
func (st Stats) Publish(scope *obs.Scope) {
	if scope == nil {
		return
	}
	count := func(name string, n int, labels ...obs.Label) {
		if n > 0 {
			scope.Count(name, int64(n), labels...)
		}
	}
	count(obs.MShimRegAccesses, st.RegAccesses)
	count(obs.MShimCommits, st.SyncCommits-st.ResyncCommits, obs.L("kind", "sync"))
	count(obs.MShimCommits, st.ResyncCommits, obs.L("kind", "resync"))
	count(obs.MShimCommits, st.AsyncCommits, obs.L("kind", "async"))
	for cat, n := range st.CommitsByCategory {
		count(obs.MShimCommitsByCat, n, obs.L("category", string(cat)))
	}
	for cat, n := range st.SpeculatedByCategory {
		count(obs.MShimSpeculatedByCat, n, obs.L("category", string(cat)))
	}
	count(obs.MShimSpecStalls, st.SpecStalls)
	count(obs.MShimMispredictions, st.Mispredictions)
	if st.Recoveries > 0 {
		scope.Count(obs.MShimRecoveryNS, int64(st.RecoveryTime))
	}
	count(obs.MShimPollLoops, st.PollLoops-st.PollLoopsOffloaded, obs.L("offloaded", "false"))
	count(obs.MShimPollLoops, st.PollLoopsOffloaded, obs.L("offloaded", "true"))
	count(obs.MShimPollRTTsSaved, st.PollRTTsSaved)
	count(obs.MShimIRQWaits, st.IRQWaits)
	count(obs.MCkptResyncEvents, st.ResyncEvents)
}

type binding struct {
	value uint32
	spec  bool
}

type envMap map[val.SymbolID]*binding

func (m envMap) Lookup(id val.SymbolID) (uint32, bool, bool) {
	b, ok := m[id]
	if !ok {
		return 0, false, false
	}
	return b.value, b.spec, true
}

type asyncCommit struct {
	completion    time.Duration
	predicted     Outcome
	actual        Outcome
	ops           []RegOp
	actualResults []OpResult
	bindings      []*binding
	sig           string
	seq           int
}

// DriverShim is the cloud-side shim: it implements kbase.Bus and kbase.Kernel
// and is the only path between the GPU driver and the client GPU.
type DriverShim struct {
	mode   Mode
	link   *netsim.Link
	client *GPUShim
	clock  timesim.Time
	inner  kbase.Kernel

	history *History

	// gmu serializes all shim state. The paper's DriverShim services a
	// multi-threaded driver with one deferral queue per kernel thread
	// (§4.1); threads below maps thread names to their queues. Commit
	// points are per-thread; the commit history, symbol environment, and
	// outstanding-speculation set are shared.
	gmu     sync.Mutex
	threads map[string][]RegOp

	env         envMap
	outstanding []*asyncCommit
	specBranch  bool
	asyncSeq    int

	pendingDumpOut []byte
	log            []trace.Event

	// rs, when non-nil, replays a checkpointed log prefix instead of using
	// the link (resume path; see resync.go).
	rs *resyncState

	recovery RecoveryModel
	// injectAt triggers an artificial misprediction at the Nth
	// speculated commit (§7.3's injection experiment); -1 disables.
	injectAt int

	// obs is the session telemetry scope; nil is a true no-op.
	obs *obs.Scope

	stats Stats
}

// Config assembles a DriverShim.
type Config struct {
	Mode     Mode
	Link     *netsim.Link
	Client   *GPUShim
	Clock    timesim.Time
	Kernel   kbase.Kernel
	History  *History // optional; shared across workloads as in §7.3
	Recovery RecoveryModel
	// Obs is the session telemetry scope (nil: uninstrumented). It gets the
	// shim's spans and flight events; its counters come from Stats.Publish.
	Obs *obs.Scope
}

// NewDriverShim builds the cloud-side shim.
func NewDriverShim(cfg Config) *DriverShim {
	if cfg.Link == nil || cfg.Client == nil || cfg.Clock == nil || cfg.Kernel == nil {
		panic("shim: incomplete DriverShim config")
	}
	h := cfg.History
	if h == nil {
		h = NewHistory(PaperK)
	}
	return &DriverShim{
		mode: cfg.Mode, link: cfg.Link, client: cfg.Client, clock: cfg.Clock,
		inner: cfg.Kernel, history: h, env: envMap{},
		threads:  map[string][]RegOp{},
		recovery: cfg.Recovery, injectAt: -1, obs: cfg.Obs,
		stats: Stats{
			CommitsByCategory:    map[kbase.Category]int{},
			SpeculatedByCategory: map[kbase.Category]int{},
		},
	}
}

// Stats returns a snapshot of the shim counters.
func (s *DriverShim) Stats() Stats {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	st := s.stats
	st.CommitsByCategory = map[kbase.Category]int{}
	for k, v := range s.stats.CommitsByCategory {
		st.CommitsByCategory[k] = v
	}
	st.SpeculatedByCategory = map[kbase.Category]int{}
	for k, v := range s.stats.SpeculatedByCategory {
		st.SpeculatedByCategory[k] = v
	}
	return st
}

// EventLog returns the interaction log accumulated so far.
func (s *DriverShim) EventLog() []trace.Event {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return s.log
}

// History exposes the speculation history (shared across record runs).
func (s *DriverShim) History() *History { return s.history }

// InjectMispredictionAt arms the §7.3 fault-injection experiment: the n-th
// speculated commit (0-based) will be treated as mispredicted at validation.
func (s *DriverShim) InjectMispredictionAt(n int) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	s.injectAt = n
}

// StageDumpToClient attaches a cloud→client memory dump to the next commit,
// so synchronization piggybacks on the round trip that starts the job (§5).
func (s *DriverShim) StageDumpToClient(wire []byte) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if s.pendingDumpOut != nil {
		// Two dumps without an intervening commit: coalesce.
		s.pendingDumpOut = append(s.pendingDumpOut, wire...)
	} else {
		s.pendingDumpOut = wire
	}
}

func categoryOf(ops []RegOp) kbase.Category {
	if len(ops) == 0 {
		return "none"
	}
	if c, ok := kbase.FnCategory[ops[0].Fn]; ok {
		return c
	}
	return "other"
}

// ---- Bus implementation ----
//
// DriverShim itself implements kbase.Bus and kbase.Kernel for the driver's
// main thread; Thread(name) returns a facade carrying another kernel
// thread's identity, each with its own deferral queue (§4.1).

// Thread returns the Bus/Kernel facade for a named kernel thread.
func (s *DriverShim) Thread(name string) *ThreadBus {
	return &ThreadBus{s: s, tid: name}
}

const mainThread = "main"

// Read implements kbase.Bus.
func (s *DriverShim) Read(fn string, r mali.Reg) val.Value {
	return s.Thread(mainThread).Read(fn, r)
}

// Write implements kbase.Bus.
func (s *DriverShim) Write(fn string, r mali.Reg, v val.Value) {
	s.Thread(mainThread).Write(fn, r, v)
}

// Truthy implements kbase.Bus: branching on an unresolved value is a control
// dependency and forces the queue to commit (or speculate).
func (s *DriverShim) Truthy(fn string, v val.Value) bool {
	return s.Thread(mainThread).Truthy(fn, v)
}

// Concretize implements kbase.Bus.
func (s *DriverShim) Concretize(fn string, v val.Value) uint32 {
	return s.Thread(mainThread).Concretize(fn, v)
}

// Poll implements kbase.Bus (§4.3).
func (s *DriverShim) Poll(spec kbase.PollSpec) kbase.PollResult {
	return s.Thread(mainThread).Poll(spec)
}

// WaitIRQ implements kbase.Bus.
func (s *DriverShim) WaitIRQ(fn string) kbase.IRQState {
	return s.Thread(mainThread).WaitIRQ(fn)
}

func (s *DriverShim) readT(tid, fn string, r mali.Reg) val.Value {
	s.stats.RegAccesses++
	sym := val.NewSymbol(mali.RegName(r))
	s.threads[tid] = append(s.threads[tid], RegOp{Kind: OpRead, Fn: fn, Reg: r, Sym: sym})
	if s.mode == ModeSync || !kbase.HotFunctions[fn] {
		s.commitSync(tid)
		v, ok := val.Sym(sym).Resolve(s.env)
		if !ok {
			panic("shim: sync read unresolved")
		}
		return v
	}
	return val.Sym(sym)
}

func (s *DriverShim) writeT(tid, fn string, r mali.Reg, v val.Value) {
	s.stats.RegAccesses++
	// Resolve against already-bound symbols; symbols from the current
	// queue stay symbolic and are resolved by the client in batch order.
	if resolved, ok := v.Resolve(s.env); ok {
		v = resolved
	}
	s.threads[tid] = append(s.threads[tid], RegOp{Kind: OpWrite, Fn: fn, Reg: r, WriteVal: v})
	if s.mode == ModeSync || !kbase.HotFunctions[fn] {
		s.commitSync(tid)
	}
}

func (s *DriverShim) resolveForUse(tid, fn string, v val.Value) val.Value {
	if resolved, ok := v.Resolve(s.env); ok {
		if resolved.Tainted() {
			s.specBranch = true
		}
		return resolved
	}
	// Control dependency on queued reads.
	if s.mode == ModeDeferSpec {
		s.commitMaybeSpeculate(tid)
	} else {
		s.commitSync(tid)
	}
	resolved, ok := v.Resolve(s.env)
	if !ok {
		panic(fmt.Sprintf("shim: value %s unresolved after commit", v))
	}
	if resolved.Tainted() {
		s.specBranch = true
	}
	return resolved
}

func (s *DriverShim) pollT(tid string, spec kbase.PollSpec) kbase.PollResult {
	s.stats.PollLoops++
	if s.mode == ModeSync || !kbase.HotFunctions[spec.Fn] {
		// One blocking round trip per loop iteration, as a naive remote
		// bus behaves.
		var res kbase.PollResult
		for i := 0; i < spec.Max; i++ {
			s.stats.RegAccesses++
			s.threads[tid] = append(s.threads[tid], RegOp{Kind: OpRead, Fn: spec.Fn, Reg: spec.Reg,
				Sym: val.NewSymbol(mali.RegName(spec.Reg))})
			results := s.commitSync(tid)
			res.Value = results[len(results)-1].Value
			res.Iters++
			if spec.Done(res.Value) {
				return res
			}
		}
		res.TimedOut = true
		return res
	}
	// Offload the whole loop as one operation.
	s.stats.PollLoopsOffloaded++
	s.stats.RegAccesses++ // the loop's accesses happen client-side; one op crosses the wire
	endSpan := s.obs.Span("shim.poll.offload", "shim", obs.A("max_iters", int64(spec.Max)))
	s.threads[tid] = append(s.threads[tid], RegOp{Kind: OpPoll, Fn: spec.Fn, Reg: spec.Reg,
		Sym:      val.NewSymbol(mali.RegName(spec.Reg)),
		DoneMask: spec.DoneMask, DoneVal: spec.DoneVal, MaxIters: spec.Max})
	var results []OpResult
	if s.mode == ModeDeferSpec {
		results = s.commitMaybeSpeculate(tid)
	} else {
		results = s.commitSync(tid)
	}
	endSpan()
	last := results[len(results)-1]
	saved := last.Iters - 1
	if saved > 0 {
		s.stats.PollRTTsSaved += saved
	}
	return kbase.PollResult{Value: last.Value, Iters: last.Iters, TimedOut: last.TimedOut}
}

// waitIRQT is the job-boundary synchronization point. All deferred accesses
// of the calling thread commit, all outstanding speculation validates, and
// the client answers with its interrupt lines plus the client→cloud memory
// dump (§5) riding on the same response.
func (s *DriverShim) waitIRQT(tid, fn string) kbase.IRQState {
	s.commitSync(tid)
	s.validateOutstanding()
	var dumpIn []byte
	if s.client.OnIRQDump != nil {
		dumpIn = s.client.OnIRQDump()
	}
	if s.rs != nil {
		// Resync: the IRQ exchange replays locally like commits do.
		s.clock.Advance(2 * s.rs.perEvent)
	} else {
		endSpan := s.obs.Span("shim.irq.wait", "shim")
		s.link.RoundTrip(irqReqBytes, int64(irqRespBytes+len(dumpIn)))
		endSpan()
	}
	s.stats.IRQWaits++
	irq := s.client.IRQ()
	s.log = append(s.log, trace.Event{Kind: trace.KIRQ, Fn: fn,
		IRQJob: irq.Job, IRQGPU: irq.GPU, IRQMMU: irq.MMU})
	if dumpIn != nil {
		s.log = append(s.log, trace.Event{Kind: trace.KDumpToCloud, Dump: dumpIn})
	}
	s.verifyResync()
	return irq
}

// ---- Kernel wrapper (commit points, §4.1) ----

// Lock implements kbase.Kernel.
func (s *DriverShim) Lock(name string) { s.Thread(mainThread).Lock(name) }

// Unlock implements kbase.Kernel.
func (s *DriverShim) Unlock(name string) { s.Thread(mainThread).Unlock(name) }

// Delay implements kbase.Kernel.
func (s *DriverShim) Delay(d time.Duration) { s.Thread(mainThread).Delay(d) }

// Log implements kbase.Kernel.
func (s *DriverShim) Log(format string, args ...any) {
	s.Thread(mainThread).Log(format, args...)
}

// commit flushes a thread's queue, speculating when the mode and history
// allow.
func (s *DriverShim) commit(tid string) {
	if s.mode == ModeDeferSpec {
		s.commitMaybeSpeculate(tid)
	} else {
		s.commitSync(tid)
	}
}

// ---- Commit machinery ----

// queueIsSpeculative reports whether any queued op encodes a tainted value —
// state derived from an unvalidated prediction that must not spill to the
// client (§4.2 optimization).
func (s *DriverShim) queueIsSpeculative(tid string) bool {
	if s.specBranch {
		return true
	}
	q := s.threads[tid]
	for i := range q {
		op := &q[i]
		if op.Kind != OpWrite {
			continue
		}
		if resolved, ok := op.WriteVal.Resolve(s.env); ok && resolved.Tainted() {
			return true
		}
	}
	return false
}

func (s *DriverShim) stallIfSpeculative(tid string) {
	if len(s.outstanding) == 0 {
		return
	}
	if s.queueIsSpeculative(tid) {
		s.stats.SpecStalls++
		s.validateOutstanding()
	}
}

func outcomeOf(ops []RegOp, results []OpResult) Outcome {
	var o Outcome
	for i := range ops {
		switch ops[i].Kind {
		case OpRead:
			o.Reads = append(o.Reads, results[i].Value)
		case OpPoll:
			o.PollDone = append(o.PollDone, !results[i].TimedOut)
			o.PollFinal = append(o.PollFinal, results[i].Value)
			o.PollIters = append(o.PollIters, results[i].Iters)
		}
	}
	return o
}

func (s *DriverShim) wireSizes(ops []RegOp) (req, resp int64) {
	req = commitHdrBytes + int64(len(ops))*opWireBytes + int64(len(s.pendingDumpOut))
	resp = respHdrBytes
	for i := range ops {
		if ops[i].Kind != OpWrite {
			resp += respPerReadBytes
		}
	}
	return req, resp
}

// bindResults installs symbol bindings from a result set. When predicted is
// non-nil, bindings carry the predicted values and are tainted until
// validation.
func (s *DriverShim) bindResults(ops []RegOp, results []OpResult, predicted bool) []*binding {
	var made []*binding
	for i := range ops {
		op := &ops[i]
		if op.Sym == nil {
			continue
		}
		b := &binding{value: results[i].Value, spec: predicted}
		s.env[op.Sym.ID] = b
		made = append(made, b)
	}
	return made
}

func (s *DriverShim) logOps(ops []RegOp, results []OpResult) {
	if s.pendingDumpOut != nil {
		s.log = append(s.log, trace.Event{Kind: trace.KDumpToClient, Dump: s.pendingDumpOut})
		s.pendingDumpOut = nil
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpRead:
			s.log = append(s.log, trace.Event{Kind: trace.KRead, Fn: op.Fn,
				Reg: op.Reg, Value: results[i].Value})
		case OpWrite:
			s.log = append(s.log, trace.Event{Kind: trace.KWrite, Fn: op.Fn,
				Reg: op.Reg, Value: results[i].Value})
		case OpPoll:
			timedOut := uint32(0)
			if results[i].TimedOut {
				timedOut = 1
			}
			_ = timedOut
			s.log = append(s.log, trace.Event{Kind: trace.KPoll, Fn: op.Fn,
				Reg: op.Reg, Value: results[i].Value,
				DoneMask: op.DoneMask, DoneVal: op.DoneVal,
				MaxIters: uint32(op.MaxIters), Iters: uint32(results[i].Iters)})
		}
	}
}

// commitSync flushes a thread's queue in one blocking round trip.
func (s *DriverShim) commitSync(tid string) []OpResult {
	if len(s.threads[tid]) == 0 && s.pendingDumpOut == nil {
		return nil
	}
	s.stallIfSpeculative(tid)
	ops := s.threads[tid]
	s.threads[tid] = nil
	sig := CommitSignature(ops)
	resync := s.rs != nil
	if resync {
		// Resync: both sides replay locally (§4.2) — no round trip, the
		// clock pays the calibrated per-event replay cost instead.
		s.clock.Advance(time.Duration(len(ops)+1) * s.rs.perEvent)
	} else {
		req, resp := s.wireSizes(ops)
		s.link.RoundTrip(req, resp)
	}
	results := s.client.Execute(ops)
	s.bindResults(ops, results, false)
	s.logOps(ops, results)
	s.verifyResync()
	s.history.Record(sig, outcomeOf(ops, results))
	s.stats.Commits++
	s.stats.SyncCommits++
	if resync {
		s.stats.ResyncCommits++
	}
	s.stats.CommitsByCategory[categoryOf(ops)]++
	return results
}

// commitMaybeSpeculate commits asynchronously with predicted results when
// the history criteria hold, falling back to a synchronous commit otherwise.
func (s *DriverShim) commitMaybeSpeculate(tid string) []OpResult {
	if len(s.threads[tid]) == 0 && s.pendingDumpOut == nil {
		return nil
	}
	if s.rs != nil {
		// Speculation stays off until the checkpoint prefix is replayed:
		// resync verifies events one commit at a time.
		return s.commitSync(tid)
	}
	sig := CommitSignature(s.threads[tid])
	predicted, ok := s.history.Predict(sig)
	if !ok {
		return s.commitSync(tid)
	}
	s.stallIfSpeculative(tid)
	ops := s.threads[tid]
	s.threads[tid] = nil
	req, resp := s.wireSizes(ops)
	completion := s.link.AsyncRoundTrip(req, resp)
	// The client executes the batch "in the background": its effects are
	// applied now (execution is serialized), but the driver does not wait.
	results := s.client.Execute(ops)
	actual := outcomeOf(ops, results)
	s.logOps(ops, results) // the recording always holds ACTUAL GPU responses
	s.history.Record(sig, actual)

	predResults := predictedResults(ops, predicted)
	bindings := s.bindResults(ops, predResults, true)
	s.outstanding = append(s.outstanding, &asyncCommit{
		completion: completion, predicted: predicted, actual: actual,
		ops: ops, actualResults: results,
		bindings: bindings, sig: sig, seq: s.asyncSeq,
	})
	s.asyncSeq++
	s.stats.Commits++
	s.stats.AsyncCommits++
	cat := categoryOf(ops)
	s.stats.CommitsByCategory[cat]++
	s.stats.SpeculatedByCategory[cat]++
	s.obs.Emit(obs.FKSpecCommit, string(cat),
		obs.A("ops", int64(len(ops))), obs.A("seq", int64(s.asyncSeq-1)))
	return predResults
}

// predictedResults reshapes a predicted outcome into per-op results.
func predictedResults(ops []RegOp, o Outcome) []OpResult {
	results := make([]OpResult, len(ops))
	ri, pi := 0, 0
	for i := range ops {
		switch ops[i].Kind {
		case OpRead:
			results[i] = OpResult{Value: o.Reads[ri]}
			ri++
		case OpPoll:
			iters := 1
			if pi < len(o.PollIters) {
				iters = o.PollIters[pi]
			}
			results[i] = OpResult{Value: o.PollFinal[pi], TimedOut: !o.PollDone[pi], Iters: iters}
			pi++
		}
	}
	return results
}

// validateOutstanding waits for all in-flight speculative commits and
// compares predictions against the GPU's actual answers, triggering recovery
// on any mismatch (§4.2).
func (s *DriverShim) validateOutstanding() {
	if len(s.outstanding) > 0 {
		defer s.obs.Span("spec.validate", "shim",
			obs.A("outstanding", int64(len(s.outstanding))))()
	}
	for _, c := range s.outstanding {
		s.link.WaitUntil(c.completion)
		mismatch := !c.predicted.Equal(c.actual)
		if s.injectAt >= 0 && c.seq == s.injectAt {
			mismatch = true
			s.injectAt = -1
		}
		if mismatch {
			s.recover(c)
		}
		// Predictions confirmed (or corrected): bindings adopt the
		// authoritative values and lose their taint.
		bi := 0
		for i := range c.ops {
			if c.ops[i].Sym == nil {
				continue
			}
			c.bindings[bi].value = c.actualResults[i].Value
			c.bindings[bi].spec = false
			bi++
		}
	}
	s.outstanding = nil
	s.specBranch = false
}

// recover models the §4.2 misprediction recovery: both sides reset and
// independently replay the interaction log up to the divergence, with the
// cloud's driver reload and job recompilation dominating.
func (s *DriverShim) recover(c *asyncCommit) {
	s.stats.Mispredictions++
	s.stats.Recoveries++
	cost := s.recovery.DriverReload + s.recovery.Recompile +
		time.Duration(len(s.log))*s.recovery.ReplayPerEvent
	endSpan := s.obs.Span("spec.rollback", "shim", obs.A("log_events", int64(len(s.log))))
	s.clock.Advance(cost)
	endSpan()
	s.stats.RecoveryTime += cost
	s.obs.Emit(obs.FKSpecMiss, "rollback",
		obs.A("seq", int64(c.seq)), obs.A("log_events", int64(len(s.log))),
		obs.A("cost_ns", int64(cost)))
	// The speculation history at this signature is no longer trusted.
	s.history.Invalidate(c.sig)
}
