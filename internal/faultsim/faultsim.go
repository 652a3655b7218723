// Package faultsim provides deterministic fault plans for chaos-testing
// GR-T record sessions. A Plan declares faults positioned in the session's
// virtual time (link outage windows, loss bursts, latency degradation) or at
// job boundaries (mid-session VM crashes); Plan.Start binds it to a
// session's seed, yielding a Session that netsim.Link consults on every
// exchange and record.RunContext consults at every job boundary.
//
// Everything is driven by the virtual clock and the session seed — no wall
// clock, no global randomness — so a chaos run is exactly as reproducible as
// a healthy one: the same seed yields the same faults at the same virtual
// instants, the same session losses, and (via checkpoint resume) the same
// stitched recording.
package faultsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
)

// Kind discriminates fault types.
type Kind uint8

// Fault kinds.
const (
	// LinkOutage makes the link dark for a window. An exchange inside the
	// window waits the outage out; when the window is at least the plan's
	// liveness timeout long, the session is torn down instead (fatal).
	LinkOutage Kind = iota + 1
	// LossBurst adds extra packet loss (percent) for a window.
	LossBurst
	// Degrade multiplies exchange latency for a window.
	Degrade
	// VMCrash kills the recording VM when job AtJob completes.
	VMCrash
	// ThermalThrottle caps the GPU's clocks for a window: device work
	// (job chains, poll iterations) takes Factor times longer in virtual
	// time. Durations stretch; event content — and therefore the sealed
	// recording — does not change.
	ThermalThrottle
	// ECCSBE is a corrected single-bit ECC fault at a virtual instant:
	// counters tick, the session is unharmed.
	ECCSBE
	// ECCDBE is an uncorrectable double-bit ECC fault: the device poisons
	// the targeted recorded region (Region, "" = first region) and raises
	// a fault IRQ; the attempt dies with an error that is both
	// grterr.ErrDeviceLost and grterr.ErrBadRecording, so resumable
	// sessions migrate and non-resumable ones fail closed.
	ECCDBE
	// XIDFallOff is the Navarch XID-79 shape: the GPU falls off the bus
	// and the device is permanently dead. The attempt dies with
	// grterr.ErrDeviceLost; resume must land on a different device.
	XIDFallOff
)

var kindNames = [...]string{LinkOutage: "link_outage", LossBurst: "loss_burst",
	Degrade: "degrade", VMCrash: "vm_crash", ThermalThrottle: "thermal_throttle",
	ECCSBE: "ecc_sbe", ECCDBE: "ecc_dbe", XIDFallOff: "xid_falloff"}

// Health reports whether k is a device-health fault (GPU-side) as opposed
// to a link or VM fault. Health faults are consulted by the GPU model via
// DeviceTick and surface as FKHealthEvent flight events.
func (k Kind) Health() bool {
	switch k {
	case ThermalThrottle, ECCSBE, ECCDBE, XIDFallOff:
		return true
	}
	return false
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DefaultTimeout is the link liveness timeout: an outage at least this long
// is indistinguishable from a dead peer and tears the session down.
const DefaultTimeout = 2 * time.Second

// Fault is one planned fault.
type Fault struct {
	Kind Kind
	// At is the virtual session time the fault window opens (link faults).
	At time.Duration
	// Duration is the window length (link faults).
	Duration time.Duration
	// Jitter, when positive, shifts At by a seed-derived amount in
	// [0, Jitter) at Plan.Start — deterministic per seed.
	Jitter time.Duration
	// AtJob is the 0-based job whose completion triggers a VMCrash.
	AtJob int
	// LossPct is the extra loss probability (percent) of a LossBurst.
	LossPct float64
	// Factor is the latency multiplier of a Degrade or ThermalThrottle
	// window (>1).
	Factor float64
	// Region names the recorded memory region an ECCDBE poisons; empty
	// targets the session's first recorded region.
	Region string
}

// Plan is a declarative chaos schedule for one record session.
type Plan struct {
	Name   string
	Faults []Fault
	// Timeout overrides the link liveness timeout (0 → DefaultTimeout).
	Timeout time.Duration
}

// String renders the plan compactly for logs.
func (p *Plan) String() string {
	if p == nil {
		return "<no plan>"
	}
	return fmt.Sprintf("plan %q (%d faults)", p.Name, len(p.Faults))
}

// Start binds the plan to a session seed, drawing each fault's jitter
// deterministically. The returned Session spans every resume attempt of one
// logical record session: fatal faults are one-shot across attempts (so a
// resumed session does not die at the same instant forever), while window
// faults apply to whatever virtual-time window each attempt passes through.
func (p *Plan) Start(seed uint64) *Session {
	rng := seed ^ 0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 1
	}
	jitter := make([]time.Duration, len(p.Faults))
	for i := range p.Faults {
		if j := p.Faults[i].Jitter; j > 0 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			jitter[i] = time.Duration(rng % uint64(j))
		}
	}
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Session{
		plan: p, timeout: timeout, jitter: jitter,
		fired: make([]bool, len(p.Faults)),
		noted: make([]bool, len(p.Faults)),
	}
}

// Session is a plan in flight for one record session (including its resume
// attempts). It implements netsim.FaultInjector structurally; the record
// orchestrator additionally calls JobBoundary after each completed job.
type Session struct {
	plan    *Plan
	timeout time.Duration
	jitter  []time.Duration

	mu sync.Mutex
	// fired marks fatal faults (VM crashes, timeout-length outages) that
	// already killed an attempt — one-shot, so resumes make progress.
	fired []bool
	// noted marks window faults already counted this attempt (telemetry
	// only; the windows themselves are stateless in virtual time).
	noted []bool

	scope *obs.Scope
	fleet *obs.Registry

	// Cross-attempt device-health tallies. record.Stats are lost when an
	// attempt dies, so the session keeps its own books for the health
	// report the orchestrator files after the stitched run seals.
	health HealthCounts
}

// HealthCounts tallies device-health faults fired across every attempt of
// one logical session.
type HealthCounts struct {
	ThermalWindows int // throttle windows entered (per attempt)
	SBE            int // corrected single-bit ECC faults
	DBE            int // uncorrectable double-bit ECC faults (fatal)
	FallOffs       int // XID-79 bus fall-offs (fatal)
	// Throttled is the extra virtual time thermal windows added to device
	// work, summed across every attempt — including attempts that died
	// before their stats could be read. Mirrors mali's per-run
	// Stats.Throttled accounting (same base×(stretch−1) formula).
	Throttled time.Duration
}

// HealthCounts returns the device-health tallies accumulated so far.
func (s *Session) HealthCounts() HealthCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// Instrument attaches telemetry: fired-fault counters land in the session
// scope (which forwards them to its own fleet registry) or, when no scope is
// carried, directly in the fleet registry. Either may be nil.
func (s *Session) Instrument(scope *obs.Scope, fleet *obs.Registry) {
	s.mu.Lock()
	s.scope, s.fleet = scope, fleet
	s.mu.Unlock()
}

// NextAttempt resets per-attempt state; the record orchestrator calls it at
// the start of every (re)try. Fatal one-shot faults stay consumed.
func (s *Session) NextAttempt() {
	s.mu.Lock()
	for i := range s.noted {
		s.noted[i] = false
	}
	s.mu.Unlock()
}

// count records one fired fault. Callers hold s.mu.
func (s *Session) count(k Kind) {
	fk := obs.FKFault
	if k.Health() {
		fk = obs.FKHealthEvent
	}
	s.scope.CountOr(s.fleet, obs.MFaultsFired, 1, obs.L("kind", k.String()))
	s.scope.Emit(fk, k.String())
}

// note counts a window fault's first activation this attempt. Callers hold
// s.mu.
func (s *Session) note(i int, k Kind) {
	if !s.noted[i] {
		s.noted[i] = true
		s.count(k)
	}
}

// Exchange implements the netsim fault-injection hook: called once per link
// exchange with the virtual now and the exchange's unperturbed latency.
func (s *Session) Exchange(now, base time.Duration) (extra time.Duration, lossPct float64, kill error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.plan.Faults {
		f := &s.plan.Faults[i]
		at := f.At + s.jitter[i]
		switch f.Kind {
		case LinkOutage:
			if f.Duration >= s.timeout {
				// Fatal: the link stays dark past the liveness timeout.
				if !s.fired[i] && now >= at {
					s.fired[i] = true
					s.count(f.Kind)
					return 0, 0, fmt.Errorf("faultsim: link outage at %v for %v (liveness timeout %v): %w",
						at, f.Duration, s.timeout, grterr.ErrSessionLost)
				}
				continue
			}
			// Transient: an exchange inside the window waits it out.
			if now >= at && now < at+f.Duration {
				s.note(i, f.Kind)
				extra += at + f.Duration - now
			}
		case LossBurst:
			if now >= at && now < at+f.Duration {
				s.note(i, f.Kind)
				lossPct += f.LossPct
			}
		case Degrade:
			if now >= at && now < at+f.Duration && f.Factor > 1 {
				s.note(i, f.Kind)
				extra += time.Duration(float64(base) * (f.Factor - 1))
			}
		}
	}
	return extra, lossPct, nil
}

// JobBoundary fires VM-crash faults: the record orchestrator calls it after
// job (0-based) fully completes. A non-nil return wraps
// grterr.ErrSessionLost and must tear the session down.
func (s *Session) JobBoundary(job int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.plan.Faults {
		f := &s.plan.Faults[i]
		if f.Kind != VMCrash || s.fired[i] || job != f.AtJob {
			continue
		}
		s.fired[i] = true
		s.count(VMCrash)
		return fmt.Errorf("faultsim: recording VM crashed after job %d: %w", job, grterr.ErrSessionLost)
	}
	return nil
}

// DeviceTick implements the GPU-model health hook (mali.HealthInjector,
// structurally): the device consults it at every unit of device work — a
// job-chain execution, a register poll iteration — with the virtual now.
//
// stretch is the multiplicative latency factor from every thermal-throttle
// window covering now (≥ 1; windows compound). sbe counts corrected
// single-bit ECC faults to note. A non-nil dbe means an uncorrectable
// double-bit fault hit the recorded region named dbeRegion ("" = first):
// the device must poison it, raise a fault IRQ, and die — the error is both
// grterr.ErrDeviceLost and grterr.ErrBadRecording. A non-nil fallOff means
// the GPU fell off the bus (grterr.ErrDeviceLost); the device is
// permanently dead. Fatal faults are one-shot across resume attempts, and at
// most one fires per tick — the earliest due — because a dead device cannot
// take a second fatal: when coarse virtual-time jumps carry the clock past
// two fatal instants at once, the later one stays armed and kills the *next*
// attempt's replacement device instead of being silently consumed. That is
// what makes a multi-fatal plan produce one migration per fatal.
func (s *Session) DeviceTick(now, base time.Duration) (stretch float64, sbe int, dbeRegion string, dbe, fallOff error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stretch = 1
	fatal := -1
	var fatalAt time.Duration
	for i := range s.plan.Faults {
		f := &s.plan.Faults[i]
		at := f.At + s.jitter[i]
		switch f.Kind {
		case ThermalThrottle:
			if now >= at && now < at+f.Duration && f.Factor > 1 {
				if !s.noted[i] {
					s.health.ThermalWindows++
				}
				s.note(i, f.Kind)
				stretch *= f.Factor
			}
		case ECCSBE:
			if now >= at && !s.noted[i] {
				s.noted[i] = true
				s.health.SBE++
				s.count(f.Kind)
				sbe++
			}
		case ECCDBE, XIDFallOff:
			if now >= at && !s.fired[i] && (fatal < 0 || at < fatalAt) {
				fatal, fatalAt = i, at
			}
		}
	}
	if stretch > 1 {
		s.health.Throttled += time.Duration(float64(base) * (stretch - 1))
	}
	if fatal >= 0 {
		f := &s.plan.Faults[fatal]
		s.fired[fatal] = true
		switch f.Kind {
		case ECCDBE:
			s.health.DBE++
			s.count(f.Kind)
			dbeRegion = f.Region
			dbe = fmt.Errorf("faultsim: uncorrectable ECC fault at %v (region %q): %w",
				fatalAt, f.Region, errors.Join(grterr.ErrDeviceLost, grterr.ErrBadRecording))
		case XIDFallOff:
			s.health.FallOffs++
			s.count(f.Kind)
			fallOff = fmt.Errorf("faultsim: XID 79 at %v: GPU has fallen off the bus: %w",
				fatalAt, grterr.ErrDeviceLost)
		}
	}
	return stretch, sbe, dbeRegion, dbe, fallOff
}
