// Package record orchestrates GR-T's online recording (§3): a cloud VM dry
// runs the GPU stack (driver + runtime + workload) while every CPU/GPU
// interaction is tunnelled to the client's TEE-isolated GPU over the
// network, logged, and finally signed and returned as a replayable
// recording.
//
// The four recorder variants of the evaluation (§7.2) are composed from a
// shim mode and a memory-synchronization policy:
//
//	Naive   = per-access round trips + raw full-memory sync
//	OursM   = per-access round trips + meta-only delta sync (§5)
//	OursMD  = + register access deferral (§4.1) and poll offload (§4.3)
//	OursMDS = + speculation (§4.2)
package record

import (
	"context"
	"fmt"
	"time"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/energy"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/shim"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
	"gpurelay/internal/trace"
)

// Variant selects the recorder implementation (§7.2 methodology).
type Variant int

// Recorder variants. The zero value is OursMDS — the full GR-T recorder —
// so that zero-valued configurations default to the paper's system.
const (
	OursMDS Variant = iota
	OursMD
	OursM
	Naive
)

var variantNames = [...]string{OursMDS: "OursMDS", OursMD: "OursMD", OursM: "OursM", Naive: "Naive"}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// ShimMode returns the DriverShim mode the variant uses.
func (v Variant) ShimMode() shim.Mode {
	switch v {
	case OursMD:
		return shim.ModeDefer
	case OursMDS:
		return shim.ModeDeferSpec
	default:
		return shim.ModeSync
	}
}

// MetaOnly reports whether the variant uses §5 meta-only synchronization.
func (v Variant) MetaOnly() bool { return v != Naive }

// Variants lists all four in evaluation order.
var Variants = []Variant{Naive, OursM, OursMD, OursMDS}

// Config describes one record run.
type Config struct {
	Variant Variant
	Model   *mlfw.Model
	SKU     *mali.SKU
	Network netsim.Condition
	// SessionKey signs the recording; empty keys fail.
	SessionKey []byte
	// History carries speculation history across runs (the §7.3
	// evaluation retains it between benchmarks). Nil allocates a fresh
	// one with k=3.
	History *shim.History
	// ClientSeed seeds the GPU's nondeterministic flush IDs.
	ClientSeed uint64
	// InjectMispredictionAt arms the §7.3 fault-injection experiment
	// (the nth speculated commit mispredicts); negative disables.
	InjectMispredictionAt int
	// PoolSize overrides the shared-memory size (0 = sized from the
	// model).
	PoolSize uint64
	// Obs, when non-nil, collects this session's telemetry: phase spans on
	// the virtual clock plus the counters the evaluation tables read, which
	// the run publishes from its Stats once, however it ends. The scope is
	// bound to the session's virtual clock at the start of the run. Nil
	// leaves the run uninstrumented — a true no-op that changes no delays
	// and no outputs.
	Obs *obs.Scope
	// SessionID names the logical record session across resume attempts
	// (stamped into checkpoints; diagnostic).
	SessionID string
	// Faults, when non-nil, injects this session's deterministic fault
	// plan: the link consults it on every exchange and the orchestrator at
	// every job boundary. A fatal fault surfaces as an error wrapping
	// grterr.ErrSessionLost.
	Faults *faultsim.Session
	// Resume, when non-nil, resumes a lost session from a checkpoint: the
	// run re-derives the checkpointed log prefix with the link detached
	// (§4.2 replay), verifies every event, and continues recording from
	// the checkpointed job boundary.
	Resume *ckpt.Checkpoint
	// OnCheckpoint, when non-nil, receives a checkpoint after every fully
	// completed job (skipping jobs a Resume already covers). The callback
	// runs inside the session; it must not block.
	OnCheckpoint func(*ckpt.Checkpoint)
	// Clock, when non-nil, supplies the session's virtual timeline instead
	// of a freshly created Clock. The platform layer passes an engine
	// process clock here, which is how a whole record session runs as one
	// discrete-event process: identical code path, identical delays,
	// byte-identical recording — but every Advance is a scheduled wakeup
	// the engine can interleave with other sessions' events.
	Clock timesim.Time
}

// Stats aggregates everything the evaluation reports about a record run.
type Stats struct {
	// RecordingDelay is the end-to-end wall-clock (virtual) time of the
	// record run: Figure 7.
	RecordingDelay time.Duration
	// Link is the network-side view (blocking RTTs: Table 1).
	Link netsim.Stats
	// MemSyncBytes is the §5 synchronization traffic (Table 1's MemSync
	// column), both directions; SyncToClient and SyncToCloud break it down
	// by direction.
	MemSyncBytes              int64
	SyncToClient, SyncToCloud SyncTraffic
	// Shim holds the DriverShim counters (commits, speculation, Figure 8).
	Shim shim.Stats
	// GPUBusy is the client GPU's busy time; ClientCPU the client-side
	// shim CPU time. Both feed the Figure 9 energy model.
	GPUBusy   time.Duration
	ClientCPU time.Duration
	// GPUThrottled is the share of GPUBusy spent thermally throttled
	// (extra virtual time from capped clocks); the energy model bills it
	// at the throttled power draw.
	GPUThrottled time.Duration
	// Energy is the client's record-run energy (Figure 9).
	Energy energy.Joules
	Jobs   int
	// RegAccessesPerCommit is the §7.3 deferral statistic (3.8 in the
	// paper).
	RegAccessesPerCommit float64
	// GuardViolations counts §5 continuous-validation traps: spurious
	// cloud-side accesses to memory already synchronized to the client.
	// Zero in any healthy record run.
	GuardViolations int
	// Resumes counts session losses survived via checkpoint resume. The
	// resume loop, RunResumable, sets it; a single RunContext is always one
	// attempt and leaves it 0.
	Resumes int
	// Deprecated: CkptEpochs and CkptConflicts are always zero; every
	// session captures full checkpoints.
	CkptEpochs    int
	CkptConflicts int
	// Obs is the session's metrics snapshot taken at the end of the run;
	// nil when the run was uninstrumented. The run's counters are published
	// into the scope from the fields above once the run ends, so they agree
	// with them by construction (e.g. grt_net_rtts_total{mode="blocking"} ==
	// Link.BlockingRTTs) on top of what earlier attempts or sessions left in
	// the scope.
	Obs *obs.Snapshot
}

// publish adds an attempt's tallies to its session scope's counters: the
// link's, the shim's and the recorder's own, creating only the series the
// attempt touched.
func (st Stats) publish(scope *obs.Scope) {
	if scope == nil {
		return
	}
	st.Link.Publish(scope)
	st.Shim.Publish(scope)
	st.SyncToClient.publish(scope, "to_client")
	st.SyncToCloud.publish(scope, "to_cloud")
	if st.Jobs > 0 {
		scope.Count(obs.MRecordJobs, int64(st.Jobs))
	}
	if st.GuardViolations > 0 {
		scope.Count(obs.MRecordGuardViolations, int64(st.GuardViolations))
	}
}

// Result is a completed record run.
type Result struct {
	Recording *trace.Recording
	Signed    *trace.Signed
	Stats     Stats
	// JobLogOffsets[j] is the event-log length right after job j fully
	// completed — the clean cut points for segmenting the recording.
	JobLogOffsets []int
	sessionKey    []byte
	// fpHashed and fpStructHashed are the region bytes and structural
	// fingerprint bytes metaFP ran through its FNV byte loop, both
	// directions, for tests.
	fpHashed, fpStructHashed int64
}

// Segments splits the recording at the given job boundaries (each entry is
// the index of a segment's LAST job) and signs each segment independently —
// the per-layer recordings of the paper's Figure 2. The first segment
// includes the driver/runtime initialization prologue. Segments share the
// recording's region map and replay back-to-back on one device.
func (r *Result) Segments(boundaries []int) ([]*trace.Signed, []*trace.Recording, error) {
	if len(boundaries) == 0 {
		return nil, nil, fmt.Errorf("record: no segment boundaries")
	}
	if last := boundaries[len(boundaries)-1]; last != len(r.JobLogOffsets)-1 {
		return nil, nil, fmt.Errorf("record: last boundary %d must be the final job %d",
			last, len(r.JobLogOffsets)-1)
	}
	var signeds []*trace.Signed
	var recs []*trace.Recording
	prevOff := 0
	for i, b := range boundaries {
		if b < 0 || b >= len(r.JobLogOffsets) {
			return nil, nil, fmt.Errorf("record: boundary %d out of range", b)
		}
		if i > 0 && b <= boundaries[i-1] {
			return nil, nil, fmt.Errorf("record: boundaries not increasing at %d", b)
		}
		off := r.JobLogOffsets[b]
		seg := &trace.Recording{
			Workload:  fmt.Sprintf("%s[%d/%d]", r.Recording.Workload, i+1, len(boundaries)),
			ProductID: r.Recording.ProductID,
			PoolSize:  r.Recording.PoolSize,
			Events:    r.Recording.Events[prevOff:off],
			Regions:   r.Recording.Regions,
		}
		signed, err := trace.Sign(seg, r.sessionKey)
		if err != nil {
			return nil, nil, err
		}
		signeds = append(signeds, signed)
		recs = append(recs, seg)
		prevOff = off
	}
	return signeds, recs, nil
}

// snapshotCheckpoint captures the session at a just-completed job boundary.
// The event log is copied (DriverShim.EventLog returns its live slice); the
// dump payloads inside events are immutable after append and are shared.
func snapshotCheckpoint(cfg *Config, dshim *shim.DriverShim, sync *syncer,
	rt *mlfw.Runtime, poolSize uint64, job int) *ckpt.Checkpoint {
	out, in := sync.metaFP()
	return &ckpt.Checkpoint{
		SessionID:   cfg.SessionID,
		Workload:    cfg.Model.Name,
		ProductID:   cfg.SKU.ProductID,
		PoolSize:    poolSize,
		ClientSeed:  cfg.ClientSeed,
		Variant:     uint8(cfg.Variant),
		Network:     cfg.Network.Name,
		Job:         job,
		Events:      append([]trace.Event(nil), dshim.EventLog()...),
		Regions:     regionInfos(rt),
		SyncOutFP:   out,
		SyncInFP:    in,
		HistorySigs: uint32(dshim.History().Signatures()),
	}
}

// regionInfos is the recording's region map: every region of the runtime's
// GPU context, in allocation order.
func regionInfos(rt *mlfw.Runtime) []trace.RegionInfo {
	var regions []trace.RegionInfo
	for _, r := range rt.Context().Regions() {
		regions = append(regions, trace.RegionInfo{
			Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA, Size: r.Size,
		})
	}
	return regions
}

// poolSizeFor sizes the shared memory for a model: its buffers plus headroom
// for metastate and page tables, mirroring the §3.1 requirement that the TEE
// reserve as much secure memory as the workload needs.
func poolSizeFor(m *mlfw.Model) uint64 {
	size := m.TotalBytes()*3/2 + (64 << 20)
	return size &^ (gpumem.PageSize - 1)
}

// Run performs one complete record run and returns the signed recording plus
// its statistics.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the record session's network link is
// bound to ctx, so a deadline or cancel aborts the session at its next
// round trip (the driver cannot make progress without one, making this
// prompt). The abort surfaces deep inside the simulated driver as a
// netsim.Canceled panic — the driver, like its real counterpart, has no
// error path for a vanished remote GPU — which is recovered here and
// returned as an error wrapping the context's cause, so callers can test
// errors.Is(err, context.Canceled).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg, new(gpumem.Codec))
}

// run is RunContext with the memsync dumps coded by codec.
func run(ctx context.Context, cfg Config, codec dumpCodec) (res *Result, err error) {
	if cfg.Model == nil || cfg.SKU == nil {
		return nil, fmt.Errorf("record: config needs a model and a SKU")
	}
	if len(cfg.SessionKey) == 0 {
		return nil, fmt.Errorf("record: missing session key")
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("record: session not started: %w", cerr)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch e := r.(type) {
		case netsim.Canceled:
			res, err = nil, fmt.Errorf("record: session aborted: %w", e.Err)
		case netsim.SessionLost:
			res, err = nil, fmt.Errorf("record: session lost: %w", e.Err)
		case mali.DeviceLost:
			// The GPU died under the session (uncorrectable ECC or a bus
			// fall-off). e.Err wraps grterr.ErrDeviceLost — itself wrapping
			// ErrSessionLost — so resumable callers migrate to a different
			// device and non-resumable ECC runs still fail closed
			// (errors.Is(err, ErrBadRecording)): nothing was sealed.
			res, err = nil, fmt.Errorf("record: device lost: %w", e.Err)
		case shim.ResyncDiverged:
			res, err = nil, fmt.Errorf("record: %v: %w", e, grterr.ErrCheckpointCorrupt)
		default:
			// A resumed session drives the real driver stack with events
			// from the checkpoint; the stack, like its real counterpart,
			// panics rather than error-returns on impossible state. When
			// the events are untrusted that is an attack surface, so a
			// resume fails closed: any residual panic means the checkpoint
			// does not describe a session this stack can have run.
			if cfg.Resume != nil {
				res, err = nil, fmt.Errorf("record: resume panicked (%v): %w",
					r, grterr.ErrCheckpointCorrupt)
				return
			}
			panic(r)
		}
	}()
	resumeJob := -1
	if cfg.Resume != nil {
		if verr := cfg.Resume.Matches(cfg.Model.Name, cfg.SKU.ProductID); verr != nil {
			return nil, fmt.Errorf("record: resume: %w", verr)
		}
		if cfg.Resume.Variant != uint8(cfg.Variant) {
			return nil, fmt.Errorf("record: checkpoint recorded under variant %s, not %s: %w",
				Variant(cfg.Resume.Variant), cfg.Variant, grterr.ErrCheckpointCorrupt)
		}
		if cfg.Resume.ClientSeed != cfg.ClientSeed {
			return nil, fmt.Errorf("record: checkpoint bound to client seed %#x, not %#x: %w",
				cfg.Resume.ClientSeed, cfg.ClientSeed, grterr.ErrCheckpointCorrupt)
		}
		resumeJob = cfg.Resume.Job
	}
	clock := cfg.Clock
	if clock == nil {
		c := timesim.NewClock()
		c.SetOwner("record.Session " + cfg.SessionID)
		clock = c
	}
	cfg.Obs.BindClockSource(clock)
	poolSize := cfg.PoolSize
	if poolSize == 0 && cfg.Resume != nil {
		// The resumed run must lay memory out exactly as the original did.
		poolSize = cfg.Resume.PoolSize
	}
	if poolSize == 0 {
		poolSize = poolSizeFor(cfg.Model)
	}

	// Client side: physical GPU, TEE isolation, GPUShim.
	clientPool := gpumem.NewPool(poolSize)
	gpu := mali.New(cfg.SKU, clientPool, clock, cfg.ClientSeed|1)
	ctrl := tee.NewController(gpu)
	ctrl.ClaimForSecure()
	defer ctrl.ReleaseToNormal()
	gshim := shim.NewGPUShim(gpu, clock)
	gshim.SetLocked(true)

	// Cloud side: VM-local memory, DriverShim, kernel facade.
	cloudPool := gpumem.NewPool(poolSize)
	link := netsim.NewLink(cfg.Network, clock)
	link.Bind(ctx)
	link.Instrument(cfg.Obs)
	if cfg.Faults != nil {
		cfg.Faults.NextAttempt()
		link.InjectFaults(cfg.Faults)
	}
	kern := kbase.NewStdKernel(clock)
	recovery := shim.DefaultRecovery(cfg.Model.FLOPs())
	dshim := shim.NewDriverShim(shim.Config{
		Mode: cfg.Variant.ShimMode(), Link: link, Client: gshim, Clock: clock,
		Kernel: kern, History: cfg.History,
		Recovery: recovery,
		Obs:      cfg.Obs,
	})
	if cfg.InjectMispredictionAt >= 0 {
		dshim.InjectMispredictionAt(cfg.InjectMispredictionAt)
	}
	// However the attempt ends, the layers' tallies reach its scope once,
	// before a successful attempt's snapshot is taken.
	var sync *syncer
	guardViolations, jobs := 0, 0
	tally := func() Stats {
		st := Stats{Link: link.Stats(), Shim: dshim.Stats(), Jobs: jobs, GuardViolations: guardViolations}
		if sync != nil {
			st.SyncToClient, st.SyncToCloud = sync.toClient.traffic, sync.toCloud.traffic
			st.MemSyncBytes = st.SyncToClient.Bytes + st.SyncToCloud.Bytes
		}
		return st
	}
	defer func() {
		tally().publish(cfg.Obs)
		if res != nil {
			res.Stats.Obs = cfg.Obs.Snapshot()
		}
	}()
	if cfg.Resume != nil {
		cfg.Obs.Emit(obs.FKResync, "begin",
			obs.A("job", int64(resumeJob)), obs.A("events", int64(len(cfg.Resume.Events))))
		dshim.BeginResync(cfg.Resume.Events, recovery.ReplayPerEvent)
	}

	start := timesim.StartWatch(clock)
	gpuBusyStart := gpu.Stats().Busy
	gpuThrottledStart := gpu.Stats().Throttled

	// The cloud VM boots its GPU stack: driver probe runs against the
	// remote GPU through the shim.
	endPhase := cfg.Obs.Span("record.probe", "record")
	dev, err := kbase.Probe(dshim, dshim, cloudPool)
	endPhase()
	if err != nil {
		return nil, fmt.Errorf("record: driver probe over %v: %w", cfg.Network.Name, err)
	}
	endPhase = cfg.Obs.Span("record.runtime-init", "record")
	// Dry runs are serialized (§5): no pipelining.
	rt, err := mlfw.NewRuntime(dev, clock, cfg.Model, mlfw.Options{})
	endPhase()
	if err != nil {
		return nil, fmt.Errorf("record: runtime init: %w", err)
	}
	if cfg.Faults != nil {
		// Device-health injection: the GPU consults the fault plan at every
		// unit of device work. The resolver maps an ECC fault's region name
		// to the physical range to poison ("" = the first recorded region);
		// it is attached after runtime init because the regions only exist
		// once the model is loaded.
		gpu.AttachHealth(cfg.Faults, func(name string) (gpumem.PA, uint64, bool) {
			regions := rt.Context().Regions()
			if len(regions) == 0 {
				return 0, 0, false
			}
			if name == "" {
				return regions[0].PA, regions[0].Size, true
			}
			for _, r := range regions {
				if r.Name == name {
					return r.PA, r.Size, true
				}
			}
			return 0, 0, false
		})
	}

	sync = newSyncer(cfg.Variant.MetaOnly(), rt, cloudPool, clientPool, cfg.Obs, codec)
	defer sync.release()
	cloudPool.OnGuardViolation(func(v *gpumem.GuardViolation) {
		guardViolations++
		kern.Log("grt: continuous validation trapped %v", v)
	})
	jobIdx := 0
	// syncErr is the first memory-synchronization failure. The dry run goes
	// on to its end, but the session fails and takes no more checkpoints.
	var syncErr error
	syncFailed := func(err error) {
		if syncErr == nil {
			syncErr = err
		}
	}
	gshim.OnIRQDump = func() []byte {
		wire, err := sync.afterJob(jobIdx)
		if err != nil {
			syncFailed(err)
			return nil
		}
		return wire
	}
	var jobLogOffsets []int
	hooks := kbase.SyncHooks{
		BeforeJobStart: func(*kbase.Context) {
			wire, err := sync.beforeJob(jobIdx)
			if err != nil {
				syncFailed(err)
				return
			}
			dshim.StageDumpToClient(wire)
		},
		AfterJobIRQ: func(*kbase.Context) { jobIdx++ },
		AfterJobComplete: func(*kbase.Context) {
			jobLogOffsets = append(jobLogOffsets, len(dshim.EventLog()))
			job := len(jobLogOffsets) - 1
			if job == resumeJob {
				// The resync just crossed the checkpoint boundary: the
				// re-derived memsync metastate must match what the
				// checkpoint recorded, or every later delta dump would
				// silently diverge from the lost session.
				out, in := sync.metaFP()
				if out != cfg.Resume.SyncOutFP || in != cfg.Resume.SyncInFP {
					cfg.Obs.Emit(obs.FKResync, "diverged", obs.A("job", int64(job)))
					panic(shim.ResyncDiverged{Pos: jobLogOffsets[job],
						Reason: "memsync metastate fingerprint mismatch at resume boundary"})
				}
				cfg.Obs.Emit(obs.FKResync, "boundary_ok", obs.A("job", int64(job)))
			}
			if cfg.OnCheckpoint != nil && job > resumeJob && !dshim.Resyncing() {
				// No checkpoint leaves the session with a dump unchecked.
				if err := sync.settle(); err != nil {
					syncFailed(err)
				}
				if syncErr == nil {
					cp := snapshotCheckpoint(&cfg, dshim, sync, rt, poolSize, job)
					cfg.Obs.Annotate("ckpt.capture", "record",
						obs.A("job", int64(job)), obs.A("events", int64(len(cp.Events))))
					cfg.Obs.Emit(obs.FKCheckpoint, "capture",
						obs.A("job", int64(job)), obs.A("events", int64(len(cp.Events))))
					cfg.OnCheckpoint(cp)
				}
			}
			if cfg.Faults != nil {
				if ferr := cfg.Faults.JobBoundary(job); ferr != nil {
					panic(netsim.SessionLost{Err: ferr})
				}
			}
		},
	}

	endPhase = cfg.Obs.Span("record.dry-run", "record")
	runRes, err := rt.Run(hooks)
	endPhase()
	if err != nil {
		return nil, fmt.Errorf("record: dry run: %w", err)
	}
	// No recording is signed with a dump unchecked.
	if err := sync.settle(); err != nil {
		syncFailed(err)
	}
	if syncErr != nil {
		return nil, fmt.Errorf("record: memory synchronization: %w", syncErr)
	}
	jobs = runRes.Jobs

	// Finalize: assemble, sign, and "download" the recording.
	rec := &trace.Recording{
		Workload:  cfg.Model.Name,
		ProductID: cfg.SKU.ProductID,
		PoolSize:  poolSize,
		Events:    dshim.EventLog(),
		Regions:   regionInfos(rt),
	}
	endPhase = cfg.Obs.Span("record.sign", "record", obs.A("events", int64(len(rec.Events))))
	signed, err := trace.Sign(rec, cfg.SessionKey)
	endPhase()
	if err != nil {
		return nil, fmt.Errorf("record: signing: %w", err)
	}
	endPhase = cfg.Obs.Span("record.download", "record", obs.A("payload_bytes", int64(len(signed.Payload))))
	link.OneWay(int64(len(signed.Payload)) / 50) // download rides compressed
	endPhase()

	st := tally()
	st.RecordingDelay = start.Elapsed()
	st.GPUBusy = gpu.Stats().Busy - gpuBusyStart
	st.GPUThrottled = gpu.Stats().Throttled - gpuThrottledStart
	st.ClientCPU = gshim.CPUTime()
	if st.Shim.Commits > 0 {
		st.RegAccessesPerCommit = float64(st.Shim.RegAccesses) / float64(st.Shim.Commits)
	}
	st.Energy = energy.Default().RecordThrottled(st.Link, st.GPUBusy, st.GPUThrottled, st.ClientCPU, st.RecordingDelay)
	return &Result{
		Recording: rec, Signed: signed, Stats: st,
		JobLogOffsets:  jobLogOffsets,
		sessionKey:     append([]byte(nil), cfg.SessionKey...),
		fpHashed:       sync.toClient.fpc.hashed + sync.toCloud.fpc.hashed,
		fpStructHashed: sync.toClient.fpc.structHashed + sync.toCloud.fpc.structHashed,
	}, nil
}
