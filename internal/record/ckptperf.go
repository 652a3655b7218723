package record

// Checkpoint-capture benchmark harness: drives the REAL capture machinery —
// dirty-aware metastate capture (gpumem.CaptureState), the cached memsync
// fingerprint (snapFPCached), the epoch capturer's stage/validate protocol,
// and the checkpoint/epoch wire codecs and seals — over a synthetic
// steady-state session built on the gpumem footprint fixtures, without the
// driver stack or the network in the way. grtbench -ckpt uses it to pin
// full vs. incremental capture cost (a grt-ckpt/1 artifact), and the
// alloc-budget test gates the incremental boundary's allocation count.

import (
	"fmt"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali"
	"gpurelay/internal/trace"
)

// CkptPerf is one synthetic record session whose only variable cost is
// checkpoint capture. Each Boundary models one completed job: the fixture's
// inter-job mutation pattern dirties the pool, the append-only event log
// grows by a fixed delta, the memsync capture state advances (the ambient
// work both capture modes share), and then the selected checkpoint path
// runs — a full snapshotCheckpoint-equivalent capture + seal, or one
// epochCapturer boundary with per-epoch sealing.
type CkptPerf struct {
	mode         CkptMode
	jobs         int
	eventsPerJob int

	fp       *gpumem.Footprint
	regions  []*gpumem.Region
	regInfo  []trace.RegionInfo
	structFP string
	// eventsAll is the whole session's synthetic interaction log,
	// pre-generated: the live shim's log is append-only with immutable
	// entries, so growing a window over a fixed slice models it exactly.
	eventsAll []trace.Event
	key       []byte
	hdr       ckpt.Epoch

	// Per-session state (Reset starts a new session).
	job     int
	cs      gpumem.CaptureState
	cache   map[string]regionFP
	mispred int
	ec      *epochCapturer

	// Accumulated results.
	sealed    int64
	captures  int
	conflicts int
}

// NewCkptPerf builds the harness for one footprint. jobs bounds how many
// boundaries one session may run (0 → the spec's kernel count);
// eventsPerJob sizes the per-job log delta (0 → 96, the order the OursMDS
// recorder logs per job on the evaluation workloads).
func NewCkptPerf(spec gpumem.FootprintSpec, mode CkptMode, jobs, eventsPerJob int) (*CkptPerf, error) {
	if jobs <= 0 {
		jobs = spec.Kernels
	}
	if eventsPerJob <= 0 {
		eventsPerJob = 96
	}
	fp, err := gpumem.BuildFootprint(spec)
	if err != nil {
		return nil, err
	}
	p := &CkptPerf{
		mode: mode, jobs: jobs, eventsPerJob: eventsPerJob,
		fp: fp, regions: fp.Regions,
		key: []byte("grt-ckptperf-session-key-000001"),
	}
	for _, r := range fp.Regions {
		p.regInfo = append(p.regInfo, trace.RegionInfo{
			Name: r.Name, Kind: r.Kind, VA: r.VA, PA: r.PA, Size: r.Size,
		})
		p.structFP += fmt.Sprintf("%s:%x:%x;", r.Name, r.PA, r.Size)
	}
	p.eventsAll = synthEvents(jobs*eventsPerJob, eventsPerJob)
	p.hdr = ckpt.Epoch{
		SessionID: "ckptperf/" + spec.Name, Workload: spec.Name,
		ProductID: 0x60000001, PoolSize: 1 << 20, ClientSeed: 1,
		Network: "loopback",
	}
	p.Reset()
	return p, nil
}

// synthEvents generates a deterministic interaction log: per job, a
// cloud→client dump, a run of register writes and reads, and the completion
// IRQ — the shape an OursMDS recording has, at fixture scale.
func synthEvents(n, perJob int) []trace.Event {
	rng := uint64(0x1905E6F00D)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	ev := make([]trace.Event, n)
	for i := range ev {
		switch j := i % perJob; {
		case j == 0:
			dump := make([]byte, 192)
			for k := range dump {
				dump[k] = byte(next())
			}
			ev[i] = trace.Event{Kind: trace.KDumpToClient, Fn: "stage_dump", Dump: dump}
		case j == perJob-1:
			ev[i] = trace.Event{Kind: trace.KIRQ, Fn: "job_irq", IRQJob: 1}
		case j%5 == 3:
			ev[i] = trace.Event{Kind: trace.KRead, Fn: "reg_read",
				Reg: mali.Reg(0x1000 + (j%64)*4), Value: uint32(next())}
		default:
			ev[i] = trace.Event{Kind: trace.KWrite, Fn: "reg_write",
				Reg: mali.Reg(0x1000 + (j%64)*4), Value: uint32(next())}
		}
	}
	return ev
}

// Reset starts a fresh session over the same footprint: empty log window,
// cold capture state and fingerprint cache, a new epoch chain.
func (p *CkptPerf) Reset() {
	p.job = 0
	p.cs = gpumem.CaptureState{}
	p.cache = make(map[string]regionFP)
	p.mispred = 0
	p.ec = nil
	if p.mode == CkptIncremental {
		p.ec = &epochCapturer{
			cadence:    1,
			hdr:        p.hdr,
			onEpoch:    p.sealEpoch,
			eventCount: func() int { return p.job * p.eventsPerJob },
			events:     func(lo, hi int) []trace.Event { return p.eventsAll[lo:hi] },
			structFP:   func() string { return p.structFP },
			metaFP:     p.metaFP,
			regions:    func() []trace.RegionInfo { return p.regInfo },
			mispred:    func() int { return p.mispred },
			histSigs:   func() uint32 { return 7 },
		}
	}
}

func (p *CkptPerf) metaFP() (out, in uint64) {
	out = snapFPCached(p.structFP, p.cs.Prev(), p.fp.Pool, p.cs.Watermark(), p.cache)
	return out, out
}

func (p *CkptPerf) sealEpoch(e *ckpt.Epoch) {
	signed, err := e.Seal(p.key)
	if err != nil {
		return
	}
	p.sealed += int64(len(signed.Payload))
	p.captures++
}

// InjectConflict makes the next staged validation fail (the §4.2-rollback
// conflict signal), forcing the capturer onto its clean-capture fallback —
// the deterministic lever the conflict-path tests use.
func (p *CkptPerf) InjectConflict() { p.mispred++ }

// Boundary runs one job boundary. Panics past the session's job budget —
// call Reset to start the next session.
func (p *CkptPerf) Boundary() {
	if p.job >= p.jobs {
		panic("record: CkptPerf session exceeded its job budget")
	}
	p.job++
	p.fp.DirtySome(uint64(p.job))
	// Ambient memsync work both modes share: the boundary's dirty-aware
	// metastate capture keeps CaptureState.Prev (the delta base the
	// fingerprint describes) advancing exactly as the live syncer does.
	snap := p.cs.Capture(p.fp.Pool, p.regions, gpumem.MetastateOnly)
	p.cs.Commit(snap)
	if p.ec != nil {
		p.ec.boundary(p.job - 1)
		p.conflicts = p.ec.conflicts
		return
	}
	// Full capture: copy the whole log window, fingerprint, marshal, seal —
	// snapshotCheckpoint plus the sealing its consumers always pay.
	out, in := p.metaFP()
	cp := &ckpt.Checkpoint{
		SessionID: p.hdr.SessionID, Workload: p.hdr.Workload,
		ProductID: p.hdr.ProductID, PoolSize: p.hdr.PoolSize,
		ClientSeed: p.hdr.ClientSeed, Variant: p.hdr.Variant,
		Network: p.hdr.Network, Job: p.job - 1,
		Events:    append([]trace.Event(nil), p.eventsAll[:p.job*p.eventsPerJob]...),
		Regions:   p.regInfo,
		SyncOutFP: out, SyncInFP: in, HistorySigs: 7,
	}
	signed, err := cp.Seal(p.key)
	if err != nil {
		return
	}
	p.sealed += int64(len(signed.Payload))
	p.captures++
}

// RunSession records one full synthetic session: every boundary captured at
// cadence 1, plus one final boundary flush for the incremental mode's
// one-boundary staging lag.
func (p *CkptPerf) RunSession() {
	p.Reset()
	for j := 0; j < p.jobs; j++ {
		p.Boundary()
	}
}

// Sealed reports the total sealed checkpoint bytes produced so far, and
// Captures the number of sealed artifacts — both exist so benchmarks have a
// live result the compiler cannot discard.
func (p *CkptPerf) Sealed() int64 { return p.sealed }

// Captures reports sealed captures (full checkpoints or epochs).
func (p *CkptPerf) Captures() int { return p.captures }

// Conflicts reports staged captures discarded on validation conflict.
func (p *CkptPerf) Conflicts() int { return p.conflicts }
