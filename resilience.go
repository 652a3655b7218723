package gpurelay

// The resilience layer: deterministic fault injection (internal/faultsim)
// and job-boundary checkpoint/resume (internal/ckpt) behind one public
// entry point, Client.RecordResumable. A session lost to a link outage or a
// VM crash re-admits through the service's session manager with exponential
// backoff + jitter on the client's virtual clock, restores the last
// checkpoint, re-synchronizes the fresh cloud driver by replaying the
// checkpointed log (the §4.2 rollback path, reused), and continues — the
// stitched recording is byte-identical to an uninterrupted run's.

import (
	"context"
	"errors"
	"fmt"
	"time"

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
// like RecordOptions' zero value, with no injected faults, up to 3 resumes,
// and backoff from 250ms to 8s.
type ResilienceOptions struct {
	RecordOptions
	// Faults, when non-nil, injects a deterministic chaos schedule into
	// the session (testing and drills; production runs leave it nil and
	// only react to genuine losses).
	Faults *FaultPlan
	// MaxResumes bounds how many times a lost session is resumed before
	// giving up (0 → 3; negative → never resume).
	MaxResumes int
	// BackoffBase is the first re-admission backoff (0 → 250ms); each
	// further resume doubles it up to BackoffMax (0 → 8s). Backoff elapses
	// on the client's virtual clock, jittered deterministically from the
	// session seed.
	BackoffBase time.Duration
	BackoffMax  time.Duration
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

const (
	defaultMaxResumes  = 3
	defaultBackoffBase = 250 * time.Millisecond
	defaultBackoffMax  = 8 * time.Second
)

// RecordResumable is Record hardened against session loss: when the link
// stays dark past its liveness timeout or the recording VM dies
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
	// Checkpoint and resume telemetry routes through the session scope when
	// one is carried (it double-writes into the fleet registry), so a
	// session's own snapshot tells its full resilience story; an
	// uninstrumented session still lands the fleet-level counts.
	countFleet := func(name string, n int64, labels ...obs.Label) {
		if opts.Obs != nil {
			opts.Obs.Count(name, n, labels...)
		} else {
			svc.fleet.Add(name, n, labels...)
		}
	}
	observeFleet := func(name string, v float64) {
		if opts.Obs != nil {
			opts.Obs.Observe(name, v)
		} else {
			svc.fleet.Observe(name, v)
		}
	}
	maxResumes := opts.MaxResumes
	switch {
	case maxResumes == 0:
		maxResumes = defaultMaxResumes
	case maxResumes < 0:
		maxResumes = 0
	}
	backoffBase := opts.BackoffBase
	if backoffBase <= 0 {
		backoffBase = defaultBackoffBase
	}
	backoffMax := opts.BackoffMax
	if backoffMax <= 0 {
		backoffMax = defaultBackoffMax
	}

	// The session identity: a fresh run draws the next client seed; a
	// resumed run re-adopts the lost session's (the seed feeds the GPU's
	// nondeterministic flush IDs — replaying under any other seed would
	// diverge from the checkpoint).
	var (
		seed      uint64
		sessionID string
		last      *ckpt.Checkpoint
		ckptKey   []byte
	)
	if opts.Resume != nil {
		last = opts.Resume.cp
		if err := last.Matches(model.Name, c.SKU.ProductID); err != nil {
			return nil, RecordStats{}, err
		}
		seed = last.ClientSeed
		sessionID = last.SessionID
		opts.Variant = Variant(last.Variant)
		ckptKey = opts.Resume.key
	} else {
		seed = c.nextSeed()
		sessionID = fmt.Sprintf("%s/%s/%016x", c.ID, model.Name, seed)
	}

	var faults *faultsim.Session
	if opts.Faults != nil {
		faults = opts.Faults.Start(seed)
		if opts.Obs != nil {
			faults.Instrument(opts.Obs, nil) // scope double-writes into the fleet
		} else {
			faults.Instrument(nil, svc.fleet)
		}
	}
	// Backoff jitter is deterministic per session, independent of the
	// fault-plan jitter stream.
	jrng := seed ^ 0xD1B54A32D192ED03
	if jrng == 0 {
		jrng = 1
	}

	// Device-health bookkeeping across attempts: lostDev is the GPU the
	// previous attempt died on (marked degraded or dead, awaiting its
	// migration note once the session re-admits on different silicon);
	// bookedSBE/bookedStretch track how much of faultsim's cross-attempt
	// tally has already been attributed to a device — the injector's books
	// are the only record that survives an attempt whose stats died with it.
	var lostDev *cloud.Device
	bookedSBE := 0
	var bookedStretch time.Duration
	bookHealth := func(vm *cloud.VM) {
		if faults == nil || vm.Device == nil {
			return
		}
		hc := faults.HealthCounts()
		if d := hc.SBE - bookedSBE; d > 0 {
			vm.Device.AddSBE(d)
			bookedSBE = hc.SBE
		}
		if d := hc.Throttled - bookedStretch; d > 0 {
			vm.Device.AddThrottle(d)
			bookedStretch = hc.Throttled
		}
	}

	// Every completed job's checkpoint becomes the resume point; a caller
	// that persists checkpoints gets each one sealed.
	onCkpt := func(cp *ckpt.Checkpoint) {
		last = cp
		countFleet(obs.MCkptCheckpoints, 1)
		if opts.OnCheckpoint == nil {
			return
		}
		signed, serr := cp.Seal(ckptKey)
		if serr != nil {
			return
		}
		countFleet(obs.MCkptBytes, int64(len(signed.Payload)))
		opts.OnCheckpoint(&Checkpoint{cp: cp, signed: signed, key: ckptKey})
	}

	kh := svc.cacheKeyFor(c.SKU, model).Hash()
	for attempt := 0; ; attempt++ {
		vm, err := svc.admit(ctx, c, kh, opts.Obs, seed)
		if err != nil {
			return nil, RecordStats{}, err
		}
		if lostDev != nil {
			// Cross-VM migration landed: the replacement VM's device is
			// different silicon by construction — degraded and dead devices
			// are never offered to new sessions (cloud.assignDevice).
			lostDev.NoteMigration()
			toDev := ""
			if vm.Device != nil {
				toDev = vm.Device.ID()
			}
			// Flight args are numeric; the migration route rides in the
			// outcome ("gpu-00->gpu-01"), greppable in trace exports.
			svc.flight.Emit(c.clock.Now(), sessionID, obs.FKHealthMigrate,
				lostDev.ID()+"->"+toDev, obs.A("attempt", int64(attempt)))
			opts.Obs.Annotate("session.migrated "+lostDev.ID()+"->"+toDev, "session",
				obs.A("attempt", int64(attempt)))
			lostDev = nil
		}
		key := append([]byte(nil), vm.SessionKey...)
		if ckptKey == nil {
			// Checkpoints stay sealed under the first attempt's session
			// key for the whole logical session: the client copied it
			// before the VM (and its key) can be lost.
			ckptKey = key
		}

		res, err := svc.run(ctx, c, model, opts.RecordOptions, record.Config{
			SessionKey: key, ClientSeed: seed,
			SessionID: sessionID, Faults: faults,
			Resume: last, OnCheckpoint: onCkpt,
		})
		if err == nil {
			bookHealth(vm)
			svc.releaseVM(vm)
			res.Stats.Resumes = attempt
			return &Recording{
				signed: res.Signed, key: key,
				Workload: res.Recording.Workload, ProductID: res.Recording.ProductID,
			}, res.Stats, nil
		}
		if !errors.Is(err, grterr.ErrSessionLost) {
			svc.releaseVM(vm)
			if errors.Is(err, grterr.ErrCheckpointCorrupt) {
				// The checkpoint failed resync verification (or parsing) —
				// the exact failure an operator needs evidence for: seal a
				// diagnostic bundle with the flight tail leading up to it.
				svc.captureBundle(sessionID, err, c.clock.Now(), nil)
			}
			return nil, RecordStats{}, err
		}
		// Session lost: the VM (and its key) are gone.
		bookHealth(vm)
		if errors.Is(err, grterr.ErrDeviceLost) && vm.Device != nil {
			// The GPU itself failed, not the link or VM. Mark the device so
			// it is never scheduled again, and remember it so the migration
			// is noted once the session re-admits elsewhere. An uncorrectable
			// ECC fault degrades (orderly teardown, poisoned memory); a bus
			// fall-off (XID 79) kills the device outright.
			if errors.Is(err, grterr.ErrBadRecording) {
				vm.Device.MarkDBE()
			} else {
				vm.Device.MarkFallOff()
			}
			lostDev = vm.Device
			svc.flight.Emit(c.clock.Now(), sessionID, obs.FKHealthEvent,
				"device_lost "+vm.Device.ID(), obs.A("attempt", int64(attempt)))
		}
		svc.crashVM(vm)
		if attempt >= maxResumes {
			countFleet(obs.MFleetResumes, 1, obs.L("outcome", "gave_up"))
			lastJob := -1
			if last != nil {
				lastJob = last.Job
			}
			svc.flight.Emit(c.clock.Now(), sessionID, obs.FKResume, "gave_up",
				obs.A("attempts", int64(attempt+1)), obs.A("last_job", int64(lastJob)))
			return nil, RecordStats{}, fmt.Errorf(
				"gpurelay: session %s lost after %d attempts (last checkpoint: job %d): %w",
				sessionID, attempt+1, lastJob, err)
		}
		// Exponential backoff + deterministic jitter on the virtual clock
		// before re-admission.
		d := backoffBase << attempt
		if d <= 0 || d > backoffMax {
			d = backoffMax
		}
		jrng ^= jrng << 13
		jrng ^= jrng >> 7
		jrng ^= jrng << 17
		d += time.Duration(jrng % uint64(d/2+1))
		c.clock.Advance(d)
		countFleet(obs.MFleetResumes, 1, obs.L("outcome", "resumed"))
		observeFleet(obs.MResumeBackoff, d.Seconds())
		resumeJob := int64(-1)
		if last != nil {
			resumeJob = int64(last.Job)
		}
		opts.Obs.Annotate("session.resume", "session",
			obs.A("attempt", int64(attempt+1)), obs.A("from_job", resumeJob),
			obs.A("backoff_ns", int64(d)))
		svc.flight.Emit(c.clock.Now(), sessionID, obs.FKResume, "resumed",
			obs.A("attempt", int64(attempt+1)), obs.A("from_job", resumeJob),
			obs.A("backoff_ns", int64(d)))
	}
}
