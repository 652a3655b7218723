package gpurelay

// The resilience layer: deterministic fault injection (internal/faultsim)
// and job-boundary checkpoint/resume (internal/ckpt) behind one public
// entry point, Client.RecordResumable. It runs record.RunResumable, the one
// resume loop, which the fleet drill runs too: a session lost to a link
// outage, a VM crash or a failed GPU re-admits and attests through the
// service's session manager with exponential backoff + jitter on the
// client's virtual clock, restores the last checkpoint, re-synchronizes the
// fresh cloud driver by replaying the checkpointed log (the §4.2 rollback
// path, reused), and continues — the stitched recording is byte-identical
// to an uninterrupted run's.

import (
	"context"
	"errors"
	"fmt"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/trace"
)

// FaultPlan is a declarative, deterministic chaos schedule for one record
// session: faults positioned in virtual time or at job boundaries, fired
// identically on every run with the same session seed.
type FaultPlan = faultsim.Plan

// Fault is one planned fault of a FaultPlan.
type Fault = faultsim.Fault

// FaultKind discriminates fault types.
type FaultKind = faultsim.Kind

// Fault kinds.
const (
	FaultLinkOutage = faultsim.LinkOutage
	FaultLossBurst  = faultsim.LossBurst
	FaultDegrade    = faultsim.Degrade
	FaultVMCrash    = faultsim.VMCrash
	// Device-health kinds (Navarch-style GPU events): a thermal window
	// stretches job latencies, corrected single-bit ECC faults are
	// telemetry, an uncorrectable double-bit fault poisons a recorded
	// region and loses the device, and an XID-79 fall-off kills it.
	FaultThermalThrottle = faultsim.ThermalThrottle
	FaultECCSBE          = faultsim.ECCSBE
	FaultECCDBE          = faultsim.ECCDBE
	FaultXIDFallOff      = faultsim.XIDFallOff
)

// FaultPlanError is the typed rejection ParseFaultPlan returns for a
// malformed spec: a stable machine-readable Reason token (e.g.
// "unknown_kind", "bad_window") plus human detail. CLIs surface it as a
// structured JSON rejection with exit status 2.
type FaultPlanError = faultsim.PlanError

// ParseFaultPlan parses a fault-plan spec: a preset name (see FaultPresets)
// or a comma-separated fault list such as
// "loss@200ms+1s:15,crash@job8,timeout=1s".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faultsim.ParsePlan(spec) }

// FaultPresets lists the built-in fault-plan names.
func FaultPresets() []string { return faultsim.Presets() }

// Checkpoint is a sealed snapshot of a record session at a job boundary.
// RecordResumable hands one to OnCheckpoint after every completed job; a
// later process resumes the session by passing it back via
// ResilienceOptions.Resume (round-tripping through Bundle /
// CheckpointFromBundle to survive a client restart).
type Checkpoint struct {
	cp     *ckpt.Checkpoint
	signed *trace.Signed
	key    []byte
}

// SessionID identifies the logical record session the checkpoint belongs to.
func (c *Checkpoint) SessionID() string { return c.cp.SessionID }

// Workload names the checkpointed model.
func (c *Checkpoint) Workload() string { return c.cp.Workload }

// Job is the 0-based index of the last fully completed job.
func (c *Checkpoint) Job() int { return c.cp.Job }

// Events is the length of the checkpointed interaction-log prefix.
func (c *Checkpoint) Events() int { return len(c.cp.Events) }

// Bundle exports the sealed checkpoint (payload, authentication tag, session
// key) for storage, mirroring Recording.Bundle.
func (c *Checkpoint) Bundle() (payload, mac, key []byte) {
	return c.signed.Payload, c.signed.MAC[:], c.key
}

// CheckpointFromBundle reconstructs a Checkpoint from Bundle output,
// verifying its seal. Tampering yields ErrCheckpointCorrupt.
func CheckpointFromBundle(payload, mac, key []byte) (*Checkpoint, error) {
	if len(mac) != 32 {
		return nil, fmt.Errorf("gpurelay: checkpoint MAC must be 32 bytes, got %d: %w",
			len(mac), ErrCheckpointCorrupt)
	}
	s := &trace.Signed{Payload: payload}
	copy(s.MAC[:], mac)
	cp, err := ckpt.Open(s, key)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{cp: cp, signed: s, key: append([]byte(nil), key...)}, nil
}

// CkptMode named a checkpoint capture strategy. Every resumable session
// captures a full checkpoint after each completed job, so every mode records
// the same way.
//
// Deprecated: CkptMode has no effect.
type CkptMode int

// Checkpoint modes. Both record the same way.
//
// Deprecated: see CkptMode.
const (
	CkptFull CkptMode = iota
	CkptIncremental
)

func (m CkptMode) String() string {
	if m == CkptIncremental {
		return "incremental"
	}
	return "full"
}

// ResilienceOptions tunes a resumable record run. The zero value records
// like RecordOptions' zero value, with no injected faults and up to 3
// resumes. Before each resume the session backs off on the client's virtual
// clock: 250ms, doubling up to 8s, jittered deterministically from the
// session seed.
type ResilienceOptions struct {
	RecordOptions
	// Faults, when non-nil, injects a deterministic chaos schedule into
	// the session (testing and drills; production runs leave it nil and
	// only react to genuine losses).
	Faults *FaultPlan
	// MaxResumes bounds how many times a lost session is resumed before
	// giving up (0 → 3; negative → never resume).
	MaxResumes int
	// Resume continues a previously lost session from its checkpoint
	// instead of starting fresh (e.g. after a client restart; in-process
	// losses resume automatically).
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, receives the sealed checkpoint after
	// every fully completed job. The callback runs inside the record
	// session and must not block. Sealing costs O(session) per job, so
	// leave it nil on hot paths: in-process resumes keep the last
	// checkpoint internally.
	OnCheckpoint func(*Checkpoint)
	// Deprecated: CkptMode has no effect; every session checkpoints in full
	// after each completed job.
	CkptMode CkptMode
}

// RecordResumable is Record hardened against session loss: when the link
// stays dark past its liveness timeout or the recording VM or its GPU dies
// (ErrSessionLost), it re-admits through the service with exponential
// backoff + jitter on the virtual clock, restores the last job-boundary
// checkpoint, re-syncs a fresh cloud driver by replaying the checkpointed
// log, and continues recording. The returned recording is byte-identical to
// what an uninterrupted run would have produced; RecordStats.Resumes counts
// the losses survived. Errors other than session loss — cancellation,
// capacity, attestation — surface immediately, and exhausting MaxResumes
// returns an error naming the session and its last checkpointed job (still
// wrapping ErrSessionLost) so a later call can resume it.
func (c *Client) RecordResumable(ctx context.Context, svc *Service, model *Model, opts ResilienceOptions) (*Recording, RecordStats, error) {
	// The session identity: a fresh run draws the next client seed; a
	// resumed run re-adopts the lost session's (the seed feeds the GPU's
	// nondeterministic flush IDs — replaying under any other seed would
	// diverge from the checkpoint).
	var (
		seed      uint64
		sessionID string
		resume    *ckpt.Checkpoint
		ckptKey   []byte
	)
	if opts.Resume != nil {
		resume = opts.Resume.cp
		if err := resume.Matches(model.Name, c.SKU.ProductID); err != nil {
			return nil, RecordStats{}, err
		}
		seed = resume.ClientSeed
		sessionID = resume.SessionID
		opts.Variant = Variant(resume.Variant)
		ckptKey = opts.Resume.key
	} else {
		seed = c.nextSeed()
		sessionID = fmt.Sprintf("%s/%s/%016x", c.ID, model.Name, seed)
	}

	kh := svc.cacheKeyFor(c.SKU, model).Hash()
	admit := func(ctx context.Context) (*cloud.VM, error) { return svc.admit(ctx, c, kh, opts.Obs, seed) }
	vm, err := admit(ctx)
	if err != nil {
		return nil, RecordStats{}, err
	}
	if ckptKey == nil {
		// Checkpoints stay sealed under the first attempt's session key for
		// the whole logical session: the client copies it before the VM
		// (and its key) can be lost.
		ckptKey = append([]byte(nil), vm.SessionKey...)
	}
	cfg := svc.recordConfig(c, model, opts.RecordOptions, record.Config{
		ClientSeed: seed, SessionID: sessionID, Resume: resume,
		// Every session checkpoints, fault plan or not, since a production
		// session only reacts to genuine losses; a caller that persists
		// checkpoints gets each one sealed.
		OnCheckpoint: func(cp *ckpt.Checkpoint) {
			if opts.OnCheckpoint == nil {
				return
			}
			signed, serr := cp.Seal(ckptKey)
			if serr != nil {
				return
			}
			opts.Obs.CountOr(svc.fleet, obs.MCkptBytes, int64(len(signed.Payload)))
			opts.OnCheckpoint(&Checkpoint{cp: cp, signed: signed, key: ckptKey})
		},
	})
	if opts.Faults != nil {
		cfg.Faults = opts.Faults.Start(seed)
	}
	res, vm, err := record.RunResumable(ctx, cfg, opts.MaxResumes, vm, record.ResumeHost{
		Admit: admit, Crash: svc.pool.Crash,
		Fleet: svc.fleet, Flight: svc.flight, Clock: c.clock,
	})
	var key []byte
	if vm != nil {
		key = append([]byte(nil), vm.SessionKey...)
		svc.pool.Release(vm)
	}
	if err != nil {
		if errors.Is(err, grterr.ErrCheckpointCorrupt) {
			// The checkpoint failed resync verification (or parsing) — the
			// exact failure an operator needs evidence for: seal a
			// diagnostic bundle with the flight tail leading up to it.
			svc.captureBundle(sessionID, err, c.clock.Now(), nil)
		}
		return nil, RecordStats{}, err
	}
	c.clock.Advance(res.Stats.RecordingDelay)
	return &Recording{
		signed: res.Signed, key: key,
		Workload: res.Recording.Workload, ProductID: res.Recording.ProductID,
	}, res.Stats, nil
}
