// Package replay implements GR-T's in-TEE replayer (§2.3, §3.2): a few-KSLoC
// component that reproduces recorded GPU computation on new input without
// any GPU stack. It verifies the recording's signature, pins it to the exact
// GPU SKU, isolates the GPU for the session, feeds the recorded CPU stimuli
// (register writes, memory snapshots) to the hardware, consumes the GPU's
// responses (register reads, polls, interrupts) while checking them against
// the recording, injects fresh program data, and harvests the output.
package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/obs"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
	"gpurelay/internal/wire"
)

// Per-event replayer overheads: a TEE-resident replayer pays a secure-world
// MMIO access per register event and memory bandwidth for restoring dumps.
const (
	replayRegOpTime  = 2 * time.Microsecond
	replayPollStep   = time.Microsecond
	restorePerByte   = 1 * time.Nanosecond // ~1 GB/s secure-memory restore
	irqWaitSliceTime = time.Microsecond
	maxIRQWaitSlices = 10000
	// maxPollIters is a hard per-event polling cap, enforced at replay time
	// independently of the structural audit: even if a hostile MaxIters
	// slipped through, one poll event cannot spin the replayer for more
	// than this many register reads. The recorded driver polls at most 64
	// times, so the cap never binds on a legitimate recording.
	maxPollIters = 1 << 16
)

// kindNames are the values of the replay event counter's kind label, by
// trace.Kind.
var kindNames = [...]string{trace.KWrite: "write", trace.KRead: "read", trace.KPoll: "poll",
	trace.KIRQ: "irq", trace.KDumpToClient: "dump_to_client", trace.KDumpToCloud: "dump_to_cloud"}

// nondetRegs lists registers whose values legitimately differ between record
// and replay (§7.3: LATEST_FLUSH_ID "reflects the GPU cache state and can be
// nondeterministic"). Reads of these are performed but not verified.
var nondetRegs = map[mali.Reg]bool{
	mali.LATEST_FLUSH_ID: true,
}

// Mismatch describes a divergence between the recording and the hardware.
type Mismatch struct {
	EventIndex int
	Reg        mali.Reg
	Recorded   uint32
	Observed   uint32
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("replay: event %d: %s read %#x, recording expects %#x",
		m.EventIndex, mali.RegName(m.Reg), m.Observed, m.Recorded)
}

// Result summarizes a replay run.
type Result struct {
	// Delay is the end-to-end replay time (Table 2).
	Delay time.Duration
	// Events is the number of log events replayed.
	Events int
	// VerifiedReads counts reads checked against the recording.
	VerifiedReads int
	// SkippedNondet counts reads excused by the nondeterminism whitelist.
	SkippedNondet int
	// GPUBusy is the GPU's busy time during the replay, for energy.
	GPUBusy time.Duration
	// CPUTime is the replayer's own processing time.
	CPUTime time.Duration
	// ByKind counts the events of each trace.Kind the run stepped into,
	// including one that failed its check (Events does not count that one).
	ByKind [len(kindNames)]int
	// ReadMismatches counts reads that disagreed with the recording, and
	// RestoreBytes the dump bytes restored into GPU memory.
	ReadMismatches int
	RestoreBytes   int64
	// Obs is the replay session's metrics snapshot (nil when the replayer
	// was uninstrumented).
	Obs *obs.Snapshot
}

// publish adds the run's tallies to a session scope's counters, creating
// only the series an event touched. Run publishes once, however it ends.
func (res *Result) publish(scope *obs.Scope) {
	if scope == nil {
		return
	}
	count := func(name string, n int64, labels ...obs.Label) {
		if n > 0 {
			scope.Count(name, n, labels...)
		}
	}
	for k, n := range res.ByKind {
		count(obs.MReplayEvents, int64(n), obs.L("kind", kindNames[k]))
	}
	count(obs.MReplayNondetSkips, int64(res.SkippedNondet))
	count(obs.MReplayVerified, int64(res.VerifiedReads))
	count(obs.MReplayMismatches, int64(res.ReadMismatches))
	count(obs.MReplayRestoreBytes, res.RestoreBytes)
}

// Replayer replays one verified recording on the local GPU.
type Replayer struct {
	rec   *trace.Recording
	gpu   *mali.GPU
	ctrl  *tee.Controller
	clock timesim.Time
	// lim bounds every dump decode during the run. Derived from the
	// recording's pool size at construction: an audited recording's dump
	// regions all land inside the pool, so no legitimate dump can
	// materialize more than the pool holds.
	lim wire.DecodeLimits

	// inject holds program data to (re)apply after every restored dump:
	// fresh input, and the model parameters that never left the TEE.
	inject map[string][]byte

	// parsed caches each KDumpToClient event's parsed dump by event index,
	// filled on first use: a verified recording never changes, so only the
	// first Run range-decodes, and later Runs only apply and restore. Only
	// the RLE streams are kept, never the restored images, which are 25×
	// (MNIST) to 110× (VGG16) larger.
	parsed map[int]*gpumem.Dump
	// img is the working image, the snapshot the last applied dump
	// produced. Each Run starts without one; its buffers return to the
	// recycler, never its contents to a later Run.
	img *gpumem.Snapshot
	cpu time.Duration

	// Strict makes any read mismatch fatal; otherwise mismatches are
	// collected.
	Strict     bool
	Mismatches []Mismatch
	// Obs, when non-nil, collects the replay's telemetry: per-kind event
	// counters, verification counts, and restore spans on the virtual
	// clock. Each Run publishes its Result's tallies to it once; set it
	// before Run. The snapshot lands in Result.Obs.
	Obs *obs.Scope
}

// Verified is a recording that passed MAC verification and the structural
// audit but is not yet bound to a GPU. Its PoolSize is audited, so it is the
// one figure a caller may size a secure-memory pool from.
type Verified struct {
	rec *trace.Recording
}

// Open verifies every signed segment under key and audits it, once each. One
// segment comes back as it is. Several (per-layer recordings, Figure 2 of the
// paper) merge into one chain that replays back-to-back, intermediate
// activations persisting in shared memory across segment boundaries exactly
// as on one device. Every later segment must target the first one's GPU
// product, pool size and region map: replay injects input and harvests output
// through the first segment's map, so a segment that disagrees with it is
// refused with ErrBadRecording (or ErrSKUMismatch for another product).
func Open(key []byte, segs ...*trace.Signed) (*Verified, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("replay: empty segment chain")
	}
	segErr := func(i int, err error) error {
		if len(segs) == 1 {
			return fmt.Errorf("replay: %w", err)
		}
		return fmt.Errorf("replay: segment %d: %w", i, err)
	}
	var merged *trace.Recording
	for i, s := range segs {
		rec, err := trace.Verify(s, key)
		if err != nil {
			return nil, segErr(i, err)
		}
		if err := rec.Audit(); err != nil {
			return nil, segErr(i, err)
		}
		switch {
		case merged == nil:
			merged = rec
		case rec.ProductID != merged.ProductID:
			return nil, segErr(i, fmt.Errorf("targets product %#x, chain is %#x: %w",
				rec.ProductID, merged.ProductID, grterr.ErrSKUMismatch))
		case rec.PoolSize != merged.PoolSize || !slices.Equal(rec.Regions, merged.Regions):
			return nil, segErr(i, fmt.Errorf("pool size or region map differs from segment 0: %w",
				grterr.ErrBadRecording))
		default:
			merged.Events = append(merged.Events, rec.Events...)
		}
	}
	return &Verified{rec: merged}, nil
}

// PoolSize is the audited secure-memory size the recording needs.
func (v *Verified) PoolSize() uint64 { return v.rec.PoolSize }

// Bind pins the verified recording to the local GPU and returns its
// replayer. It refuses a GPU of another SKU — the early-binding property of
// §2.4 — and one whose secure pool is smaller than the recording needs.
func (v *Verified) Bind(gpu *mali.GPU, ctrl *tee.Controller, clock timesim.Time) (*Replayer, error) {
	rec := v.rec
	if rec.ProductID != gpu.SKU().ProductID {
		return nil, fmt.Errorf("replay: recording is for GPU product %#x, this device is %#x: %w",
			rec.ProductID, gpu.SKU().ProductID, grterr.ErrSKUMismatch)
	}
	if gpu.Pool().Size() < rec.PoolSize {
		return nil, fmt.Errorf("replay: recording needs %d MB of secure memory, have %d MB",
			rec.PoolSize>>20, gpu.Pool().Size()>>20)
	}
	return &Replayer{
		rec: rec, gpu: gpu, ctrl: ctrl, clock: clock,
		lim:    poolLimits(rec.PoolSize),
		inject: map[string][]byte{},
		Strict: true,
	}, nil
}

// New opens one signed recording and binds it to a GPU the caller already
// sized. Recordings whose structure the recorded driver stack could not have
// produced are refused even when correctly sealed: the MAC authenticates the
// recorder, not the recording.
func New(signed *trace.Signed, key []byte, gpu *mali.GPU, ctrl *tee.Controller, clock timesim.Time) (*Replayer, error) {
	v, err := Open(key, signed)
	if err != nil {
		return nil, err
	}
	return v.Bind(gpu, ctrl, clock)
}

// poolLimits tightens the default decode limits with what the replayer
// knows: one dump can never legitimately materialize more bytes than the
// recording's pool holds, since dump regions must land inside it.
func poolLimits(poolSize uint64) wire.DecodeLimits {
	lim := wire.DefaultLimits()
	if poolSize > 0 && int64(poolSize) < lim.MaxDumpBytes {
		lim.MaxDumpBytes = int64(poolSize)
	}
	return lim
}

// Recording exposes the verified recording.
func (r *Replayer) Recording() *trace.Recording { return r.rec }

// SetRegionData stages raw program data for a named region (model
// parameters, auxiliary inputs). It is injected before the first job and
// re-applied after every restored memory dump.
func (r *Replayer) SetRegionData(name string, data []byte) error {
	reg, ok := r.rec.FindRegion(name)
	if !ok {
		return fmt.Errorf("replay: recording has no region %q", name)
	}
	if uint64(len(data)) > reg.Size {
		return fmt.Errorf("replay: %d bytes exceed region %q size %d", len(data), name, reg.Size)
	}
	r.inject[name] = data
	return nil
}

// SetInputF32 stages float32 input into the recording's (single) input
// region.
func (r *Replayer) SetInputF32(data []float32) error {
	ins := r.rec.RegionsOfKind(gpumem.KindInput)
	if len(ins) != 1 {
		return fmt.Errorf("replay: recording has %d input regions", len(ins))
	}
	return r.SetRegionData(ins[0].Name, f32Bytes(data))
}

// SetWeightsF32 stages float32 parameters into a named weights region.
func (r *Replayer) SetWeightsF32(name string, data []float32) error {
	return r.SetRegionData(name, f32Bytes(data))
}

func f32Bytes(data []float32) []byte {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// OutputF32 reads the recording's output region after a replay.
func (r *Replayer) OutputF32() ([]float32, error) {
	outs := r.rec.RegionsOfKind(gpumem.KindOutput)
	if len(outs) != 1 {
		return nil, fmt.Errorf("replay: recording has %d output regions", len(outs))
	}
	raw := make([]byte, outs[0].Size)
	r.gpu.Pool().Read(outs[0].PA, raw)
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

func (r *Replayer) spend(d time.Duration) {
	r.cpu += d
	r.clock.Advance(d)
}

// applyInjections writes the staged program data into shared memory.
func (r *Replayer) applyInjections() {
	for name, data := range r.inject {
		reg, _ := r.rec.FindRegion(name)
		r.gpu.Pool().Write(reg.PA, data)
		r.spend(time.Duration(len(data)) * restorePerByte)
	}
}

// Run replays the recording end to end. The GPU is claimed by the secure
// world for the whole session and scrubbed on both ends (§3.2).
//
// Run is a fail-closed boundary: whatever a hostile recording manages to
// provoke inside the replay loop surfaces as an ErrBadRecording-wrapped
// error, never a panic. Per-event work is budgeted — polls are hard-capped
// at maxPollIters, interrupt waits at maxIRQWaitSlices, and dump decodes at
// the pool-derived decode limits — so a replay terminates in time
// proportional to the recording regardless of its contents.
func (r *Replayer) Run() (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replay: panic replaying event: %v: %w", p, grterr.ErrBadRecording)
		}
	}()
	r.Obs.BindClockSource(r.clock)
	defer func() {
		res.publish(r.Obs)
		res.Obs = r.Obs.Snapshot()
	}()
	r.Obs.Emit(obs.FKReplay, "start", obs.A("events", int64(len(r.rec.Events))))
	defer func() {
		r.Obs.Emit(obs.FKReplay, "done",
			obs.A("events", int64(res.Events)), obs.A("verified_reads", int64(res.VerifiedReads)))
	}()
	endRun := r.Obs.Span("replay.run", "replay", obs.A("events", int64(len(r.rec.Events))))
	defer endRun()
	start := r.clock.Now()
	busyStart := r.gpu.Stats().Busy
	r.ctrl.ClaimForSecure()
	defer r.ctrl.ReleaseToNormal()
	r.gpu.HardReset()
	if r.img != nil {
		r.img.Release()
		r.img = nil
	}
	r.Mismatches = nil
	r.cpu = 0
	r.applyInjections()

	for i := range r.rec.Events {
		e := &r.rec.Events[i]
		if err := r.step(i, e, &res); err != nil {
			return res, err
		}
		res.Events++
	}
	res.Delay = r.clock.Now() - start
	res.GPUBusy = r.gpu.Stats().Busy - busyStart
	res.CPUTime = r.cpu
	return res, nil
}

func (r *Replayer) step(i int, e *trace.Event, res *Result) error {
	switch e.Kind {
	case trace.KWrite:
		r.spend(replayRegOpTime)
		r.gpu.WriteReg(e.Reg, e.Value)
		res.ByKind[e.Kind]++
	case trace.KRead:
		r.spend(replayRegOpTime)
		v := r.gpu.ReadReg(e.Reg)
		res.ByKind[e.Kind]++
		if nondetRegs[e.Reg] {
			res.SkippedNondet++
			return nil
		}
		res.VerifiedReads++
		if v != e.Value {
			m := Mismatch{EventIndex: i, Reg: e.Reg, Recorded: e.Value, Observed: v}
			res.ReadMismatches++
			r.Obs.Annotate("replay.mismatch", "replay",
				obs.A("event", int64(i)), obs.A("reg", int64(e.Reg)))
			r.Obs.Emit(obs.FKReplay, "mismatch",
				obs.A("event", int64(i)), obs.A("reg", int64(e.Reg)))
			if r.Strict {
				return &m
			}
			r.Mismatches = append(r.Mismatches, m)
		}
	case trace.KPoll:
		res.ByKind[e.Kind]++
		iters := e.MaxIters
		if iters > maxPollIters {
			iters = maxPollIters
		}
		done := false
		for it := uint32(0); it < iters; it++ {
			r.spend(replayPollStep)
			v := r.gpu.ReadReg(e.Reg)
			if v&e.DoneMask == e.DoneVal {
				done = true
				break
			}
		}
		if !done {
			m := Mismatch{EventIndex: i, Reg: e.Reg, Recorded: e.DoneVal}
			if r.Strict {
				return fmt.Errorf("replay: event %d: poll of %s never satisfied", i, mali.RegName(e.Reg))
			}
			r.Mismatches = append(r.Mismatches, m)
		}
	case trace.KIRQ:
		res.ByKind[e.Kind]++
		// Wait for the hardware to raise at least the recorded lines.
		for slice := 0; ; slice++ {
			job, gpu, mmu := r.gpu.PendingIRQ()
			if job&e.IRQJob == e.IRQJob && gpu&e.IRQGPU == e.IRQGPU && mmu&e.IRQMMU == e.IRQMMU {
				break
			}
			if slice >= maxIRQWaitSlices {
				return fmt.Errorf("replay: event %d: interrupt never arrived (want job=%#x gpu=%#x mmu=%#x)",
					i, e.IRQJob, e.IRQGPU, e.IRQMMU)
			}
			r.spend(irqWaitSliceTime)
		}
	case trace.KDumpToClient:
		res.ByKind[e.Kind]++
		// Non-delta dumps (first sync, or a structural change at record
		// time) apply standalone; delta dumps patch the image the previous
		// dump left, mirroring the record-side encoder.
		img, err := r.applyDump(i, e)
		if err != nil {
			return fmt.Errorf("replay: event %d: decoding memory dump: %v: %w",
				i, err, grterr.ErrBadRecording)
		}
		r.img = img
		endRestore := r.Obs.Span("replay.restore", "replay", obs.A("bytes", int64(len(e.Dump))))
		img.Restore(r.gpu.Pool())
		r.spend(time.Duration(len(e.Dump)) * restorePerByte)
		endRestore()
		res.RestoreBytes += int64(len(e.Dump))
		// Meta-only dumps never touch program data; only a naive
		// recording's full dumps (zero-filled program data) can clobber
		// injected input/parameters and force re-injection.
		for _, reg := range img.Regions {
			if !reg.Kind.Metastate() {
				r.applyInjections()
				break
			}
		}
	case trace.KDumpToCloud:
		// Client→cloud synchronization has no replay-side effect: the
		// GPU's real results already live in local memory.
		res.ByKind[e.Kind]++
	default:
		return fmt.Errorf("replay: event %d has unknown kind %v", i, e.Kind)
	}
	return nil
}

// applyDump applies event i's dump to the working image, parsing it on first
// use. A dump that fails to parse is never cached, so every Run fails on it
// the same way.
func (r *Replayer) applyDump(i int, e *trace.Event) (*gpumem.Snapshot, error) {
	d, ok := r.parsed[i]
	if !ok {
		var err error
		if d, err = gpumem.ParseDump(e.Dump, r.lim); err != nil {
			return nil, err
		}
		if r.parsed == nil {
			r.parsed = map[int]*gpumem.Dump{}
		}
		r.parsed[i] = d
	}
	return d.Apply(r.img)
}
