package record

// The resume loop: one logical record session carried across lost VMs.
// Client.RecordResumable and the fleet drill both run it, so a session that
// loses its link, its VM or its GPU is handled one way wherever it records.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gpurelay/internal/ckpt"
	"gpurelay/internal/cloud"
	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// A resumed session backs off before it re-admits: 250ms before the first
// resume, doubling for each further one up to 8s, plus a jitter of up to
// half that drawn deterministically from the session's client seed.
const (
	defaultMaxResumes = 3
	backoffBase       = 250 * time.Millisecond
	backoffMax        = 8 * time.Second
)

// ResumeHost is the service a resumable session records through.
type ResumeHost struct {
	// Admit launches and attests the VM of a resumed attempt. A VM it does
	// not trust it releases and refuses with grterr.ErrAttestation.
	Admit func(ctx context.Context) (*cloud.VM, error)
	// Crash tears down the VM of a lost attempt.
	Crash func(vm *cloud.VM)
	// Fleet counts the session's faults, checkpoints and resumes when the
	// session carries no telemetry scope (Config.Obs); a scope forwards them
	// to its own fleet registry. Flight journals device losses, migrations
	// and resumes.
	Fleet  *obs.Registry
	Flight *obs.FlightRecorder
	// Clock is the timeline the backoff elapses on and the journal entries
	// are stamped with.
	Clock timesim.Time
}

// RunResumable records cfg on vm, an admitted and attested VM, and carries
// the session across every loss (an error wrapping grterr.ErrSessionLost).
// After a lost attempt it books the attempt's corrected ECC faults and
// throttled time on its device, marks a device lost to an uncorrectable ECC
// fault (degraded) or a bus fall-off (dead), crashes the VM, backs off on
// h.Clock, re-admits through h.Admit, notes the migration off a lost device,
// and resumes from the last job-boundary checkpoint. The stitched recording
// is byte-identical to an uninterrupted run's.
//
// Every attempt seals under cfg.SessionKey, or under its own VM's session
// key when cfg.SessionKey is empty. cfg.Faults is the session's fault plan,
// started once for all attempts, and cfg.Resume the first resume point. A
// session checkpoints after every job when it has a fault plan or when its
// caller takes the checkpoints: cfg.OnCheckpoint then receives each one
// after the loop has made it the resume point.
//
// On success RunResumable returns the result, with Stats.Resumes set, and
// the VM that recorded it, still held. Any error other than a loss returns
// at once, with the attempt's VM still held; the caller releases it. A
// session lost more than maxResumes times (0 → 3; negative → never resume)
// returns an error that names it and its last checkpointed job and wraps the
// last loss.
func RunResumable(ctx context.Context, cfg Config, maxResumes int, vm *cloud.VM, h ResumeHost) (*Result, *cloud.VM, error) {
	switch {
	case maxResumes == 0:
		maxResumes = defaultMaxResumes
	case maxResumes < 0:
		maxResumes = 0
	}

	// Fault, checkpoint and resume telemetry lands on the session scope when
	// one is carried, so a session's own snapshot tells its whole resilience
	// story; an uninstrumented session still lands the fleet-level counts.
	faults := cfg.Faults
	if faults != nil {
		faults.Instrument(cfg.Obs, h.Fleet)
	}

	// Every completed job's checkpoint becomes the resume point.
	last := cfg.Resume
	if hook := cfg.OnCheckpoint; faults != nil || hook != nil {
		cfg.OnCheckpoint = func(cp *ckpt.Checkpoint) {
			last = cp
			cfg.Obs.CountOr(h.Fleet, obs.MCkptCheckpoints, 1)
			if hook != nil {
				hook(cp)
			}
		}
	}

	// Backoff jitter is deterministic per session, independent of the
	// fault plan's jitter stream.
	jrng := cfg.ClientSeed ^ 0xD1B54A32D192ED03
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
		if faults == nil {
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

	key := cfg.SessionKey
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			var err error
			if vm, err = h.Admit(ctx); err != nil {
				return nil, nil, err
			}
		}
		if lostDev != nil {
			// Cross-VM migration landed: the replacement VM's device is
			// different silicon by construction — degraded and dead devices
			// are never offered to new sessions (cloud.assignDevice).
			lostDev.NoteMigration()
			toDev := vm.Device.ID()
			// Flight args are numeric; the migration route rides in the
			// outcome ("s0/gpu-00->s0/gpu-01"), greppable in trace exports.
			h.Flight.Emit(h.Clock.Now(), cfg.SessionID, obs.FKHealthMigrate,
				lostDev.ID()+"->"+toDev, obs.A("attempt", int64(attempt)))
			cfg.Obs.Annotate("session.migrated "+lostDev.ID()+"->"+toDev, "session",
				obs.A("attempt", int64(attempt)))
			lostDev = nil
		}
		cfg.SessionKey = key
		if len(key) == 0 {
			cfg.SessionKey = append([]byte(nil), vm.SessionKey...)
		}
		cfg.Resume = last

		res, err := RunContext(ctx, cfg)
		if err == nil {
			bookHealth(vm)
			res.Stats.Resumes = attempt
			return res, vm, nil
		}
		if !errors.Is(err, grterr.ErrSessionLost) {
			return nil, vm, err
		}
		// Session lost: the VM (and its key) are gone.
		bookHealth(vm)
		if errors.Is(err, grterr.ErrDeviceLost) {
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
			h.Flight.Emit(h.Clock.Now(), cfg.SessionID, obs.FKHealthEvent,
				"device_lost "+vm.Device.ID(), obs.A("attempt", int64(attempt)))
		}
		h.Crash(vm)
		lastJob := -1
		if last != nil {
			lastJob = last.Job
		}
		if attempt >= maxResumes {
			cfg.Obs.CountOr(h.Fleet, obs.MFleetResumes, 1, obs.L("outcome", "gave_up"))
			h.Flight.Emit(h.Clock.Now(), cfg.SessionID, obs.FKResume, "gave_up",
				obs.A("attempts", int64(attempt+1)), obs.A("last_job", int64(lastJob)))
			return nil, nil, fmt.Errorf(
				"record: session %s lost after %d attempts (last checkpoint: job %d): %w",
				cfg.SessionID, attempt+1, lastJob, err)
		}
		// Exponential backoff + deterministic jitter on the host's timeline
		// before re-admission.
		d := backoffBase << attempt
		if d <= 0 || d > backoffMax {
			d = backoffMax
		}
		jrng ^= jrng << 13
		jrng ^= jrng >> 7
		jrng ^= jrng << 17
		d += time.Duration(jrng % uint64(d/2+1))
		h.Clock.Advance(d)
		cfg.Obs.CountOr(h.Fleet, obs.MFleetResumes, 1, obs.L("outcome", "resumed"))
		cfg.Obs.ObserveOr(h.Fleet, obs.MResumeBackoff, d.Seconds())
		cfg.Obs.Annotate("session.resume", "session",
			obs.A("attempt", int64(attempt+1)), obs.A("from_job", int64(lastJob)),
			obs.A("backoff_ns", int64(d)))
		h.Flight.Emit(h.Clock.Now(), cfg.SessionID, obs.FKResume, "resumed",
			obs.A("attempt", int64(attempt+1)), obs.A("from_job", int64(lastJob)),
			obs.A("backoff_ns", int64(d)))
	}
}
