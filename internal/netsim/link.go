// Package netsim models the cloud↔client network path of GR-T.
//
// The paper shapes the path with NetEm into two conditions (§7.2): a WiFi-like
// link (20 ms RTT, 80 Mbps) and a cellular-like link (50 ms RTT, 40 Mbps).
// netsim reproduces the same first-order model — a fixed propagation RTT plus
// store-and-forward serialization at the bottleneck bandwidth — on top of the
// virtual clock, and keeps the traffic statistics that the paper's Table 1
// reports (blocking round trips, synchronization bytes).
package netsim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// Condition describes a network condition, mirroring a NetEm configuration.
type Condition struct {
	Name string
	// RTT is the round-trip propagation delay (both directions combined).
	RTT time.Duration
	// Bandwidth is the bottleneck bandwidth in bits per second, applied to
	// payloads in each direction.
	Bandwidth int64
	// Jitter adds a deterministic pseudo-random delay in [0, Jitter) to
	// each round trip, like NetEm's delay variance.
	Jitter time.Duration
	// LossPct is the per-round-trip probability (in percent) of a lost
	// exchange; a loss costs a retransmission timeout plus a retry. The
	// paper's §3.1 limitation — "poor network condition can slow down the
	// entire recording" — shows up through this knob.
	LossPct float64
}

// retransmitTimeout is the cost of detecting one lost exchange before the
// retry, a TCP-like RTO floor.
const retransmitTimeout = 200 * time.Millisecond

// maxEffectiveLossPct caps the combined (condition + injected) loss
// probability so the retransmit retry loop always terminates: a link that
// never delivers anything is a fatal fault, not a loss rate.
const maxEffectiveLossPct = 95.0

// The two conditions evaluated in the paper (§7.2), plus a loopback used to
// model local (on-device) recording baselines and unit tests.
var (
	WiFi     = Condition{Name: "wifi", RTT: 20 * time.Millisecond, Bandwidth: 80_000_000}
	Cellular = Condition{Name: "cellular", RTT: 50 * time.Millisecond, Bandwidth: 40_000_000}
	Loopback = Condition{Name: "loopback", RTT: 10 * time.Microsecond, Bandwidth: 10_000_000_000}
	// PoorCellular models the §3.1 "poor network condition" limitation:
	// higher latency, jitter, and packet loss.
	PoorCellular = Condition{Name: "poor-cellular", RTT: 120 * time.Millisecond,
		Bandwidth: 10_000_000, Jitter: 40 * time.Millisecond, LossPct: 1}
)

// TransferTime returns the serialization delay of n payload bytes at the
// condition's bandwidth.
func (c Condition) TransferTime(n int64) time.Duration {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative payload %d", n))
	}
	if c.Bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: condition %q has no bandwidth", c.Name))
	}
	bits := n * 8
	return time.Duration(float64(bits) / float64(c.Bandwidth) * float64(time.Second))
}

// Stats accumulates traffic statistics for one link.
type Stats struct {
	// BlockingRTTs counts round trips during which the initiator stalled.
	// This is the "# Blocking RTTs" column of Table 1.
	BlockingRTTs int
	// AsyncRTTs counts round trips whose latency was hidden by speculation.
	AsyncRTTs int
	// BytesSent and BytesReceived count payload bytes from the initiator's
	// point of view (cloud → client and client → cloud respectively).
	BytesSent     int64
	BytesReceived int64
	// Busy is the total virtual time the radio spent transmitting or
	// receiving, used by the energy model.
	Busy time.Duration
	// Retransmits counts lost exchanges that had to be retried.
	Retransmits int
	// FaultStalls counts exchanges delayed by an injected link fault, and
	// FaultDelay their total injected latency (chaos testing only; both
	// stay zero on a healthy link).
	FaultStalls int
	FaultDelay  time.Duration
	// Stalled is the virtual time WaitUntil spent waiting for speculated
	// round trips to complete.
	Stalled time.Duration
}

// TotalRTTs returns all round trips regardless of blocking behaviour.
func (s Stats) TotalRTTs() int { return s.BlockingRTTs + s.AsyncRTTs }

// TotalBytes returns payload bytes in both directions.
func (s Stats) TotalBytes() int64 { return s.BytesSent + s.BytesReceived }

// Publish adds the link's tallies to a session scope's counters, creating
// only the series a round trip, one-way message, retransmit, stall or fault
// stall touched. The recorder publishes once per attempt, however it ends.
func (s Stats) Publish(scope *obs.Scope) {
	if scope == nil {
		return
	}
	count := func(name string, n int64, touched bool, labels ...obs.Label) {
		if touched {
			scope.Count(name, n, labels...)
		}
	}
	count(obs.MNetRTTs, int64(s.BlockingRTTs), s.BlockingRTTs > 0, obs.L("mode", "blocking"))
	count(obs.MNetRTTs, int64(s.AsyncRTTs), s.AsyncRTTs > 0, obs.L("mode", "async"))
	count(obs.MNetBytes, s.BytesSent, s.TotalRTTs() > 0 || s.BytesSent > 0, obs.L("dir", "sent"))
	count(obs.MNetBytes, s.BytesReceived, s.TotalRTTs() > 0, obs.L("dir", "recv"))
	count(obs.MNetRetransmits, int64(s.Retransmits), s.Retransmits > 0)
	count(obs.MNetStallNS, int64(s.Stalled), s.Stalled > 0)
	count(obs.MNetFaultStallNS, int64(s.FaultDelay), s.FaultStalls > 0)
}

// Canceled is thrown (via panic) out of a blocking link operation when the
// link's bound context is done. The blocking round trips happen deep inside
// the simulated GPU driver, which — like the real kbase driver — has no
// error-return path for "the remote side hung up"; record.RunContext
// recovers the panic at the session boundary and converts it into an
// ordinary error wrapping the context's cause. Code outside the record path
// never observes it.
type Canceled struct{ Err error }

func (c Canceled) Error() string { return "netsim: link canceled: " + c.Err.Error() }

// Unwrap exposes the context error (context.Canceled or DeadlineExceeded)
// to errors.Is.
func (c Canceled) Unwrap() error { return c.Err }

// SessionLost is thrown (via panic) out of a link operation when an injected
// fault kills the session — an outage past the liveness timeout, or a VM
// crash surfacing as a dead peer. Like Canceled, it exists because the
// simulated driver has no error path for a vanished remote; record.RunContext
// recovers it at the session boundary and converts it into an error wrapping
// grterr.ErrSessionLost (carried by Err).
type SessionLost struct{ Err error }

func (s SessionLost) Error() string { return "netsim: session lost: " + s.Err.Error() }

// Unwrap exposes the underlying fault error to errors.Is.
func (s SessionLost) Unwrap() error { return s.Err }

// FaultInjector perturbs link exchanges for chaos testing. Exchange is
// consulted once per round trip (or one-way message) with the current
// virtual time and the exchange's unperturbed latency; it returns extra
// latency to add, extra loss probability (percent) to apply, and — for
// fatal faults — a non-nil kill error that tears the session down via a
// SessionLost panic. Implementations must be deterministic in virtual time
// and safe for concurrent use.
type FaultInjector interface {
	Exchange(now, base time.Duration) (extra time.Duration, lossPct float64, kill error)
}

// Link is one end-to-end path between the cloud VM and the client TEE,
// bound to a virtual clock. Methods advance that clock; they never sleep.
type Link struct {
	cond  Condition
	clock timesim.Time
	ctx   context.Context
	// obs receives the session's exchange spans on the virtual clock; nil
	// means uninstrumented and is a true no-op.
	obs *obs.Scope
	// faults, when non-nil, perturbs every exchange (chaos testing). Like
	// obs and ctx it is installed before the link is shared.
	faults FaultInjector

	mu    sync.Mutex
	stats Stats
	rng   uint64
}

// NewLink creates a link with the given condition on clock. Jitter and loss
// draws are deterministic for a given condition (seeded from its name), so
// experiments stay reproducible.
func NewLink(cond Condition, clock timesim.Time) *Link {
	if clock == nil {
		panic("netsim: nil clock")
	}
	seed := uint64(88172645463325252)
	for _, c := range cond.Name {
		seed = seed*31 + uint64(c)
	}
	return &Link{cond: cond, clock: clock, rng: seed | 1}
}

// draw returns a deterministic pseudo-random float64 in [0, 1).
func (l *Link) draw() float64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return float64(l.rng%1_000_000) / 1_000_000
}

// perturb applies jitter and loss (the condition's own plus any injected
// extra) to one exchange's base latency, updating the retransmit counter
// under l.mu. It returns the perturbed latency.
func (l *Link) perturb(base time.Duration, extraLoss float64) time.Duration {
	if l.cond.Jitter > 0 {
		base += time.Duration(l.draw() * float64(l.cond.Jitter))
	}
	loss := l.cond.LossPct + extraLoss
	if loss > maxEffectiveLossPct {
		loss = maxEffectiveLossPct
	}
	for loss > 0 && l.draw()*100 < loss {
		base += retransmitTimeout + l.cond.RTT
		l.stats.Retransmits++
	}
	return base
}

// Instrument attaches a telemetry scope: every subsequent exchange records a
// span on it (capacity permitting) on the virtual clock; the link's counters
// reach it through Stats.Publish. A nil scope leaves the link uninstrumented.
func (l *Link) Instrument(scope *obs.Scope) { l.obs = scope }

// InjectFaults installs a fault injector consulted on every exchange. Like
// Bind, it must be called before the link is shared with the recording
// pipeline.
func (l *Link) InjectFaults(f FaultInjector) { l.faults = f }

// applyFaults consults the injector for one exchange of the given base
// latency. Fatal faults abort the session with a SessionLost panic;
// otherwise the injected extra latency and extra loss probability are
// returned for the caller to fold into the exchange.
func (l *Link) applyFaults(base time.Duration) (time.Duration, float64) {
	f := l.faults
	if f == nil {
		return 0, 0
	}
	extra, loss, kill := f.Exchange(l.clock.Now(), base)
	if kill != nil {
		panic(SessionLost{Err: kill})
	}
	if extra < 0 {
		extra = 0
	}
	if loss < 0 {
		loss = 0
	}
	if extra > 0 {
		l.mu.Lock()
		l.stats.FaultStalls++
		l.stats.FaultDelay += extra
		l.mu.Unlock()
	}
	return extra, loss
}

// Bind attaches a context to the link. Every subsequent blocking operation
// checks the context before advancing the clock and aborts the session with
// a Canceled panic once the context is done. Bind must be called before the
// link is shared with the recording pipeline.
func (l *Link) Bind(ctx context.Context) { l.ctx = ctx }

// checkCtx aborts the in-flight exchange if the bound context is done.
func (l *Link) checkCtx() {
	if l.ctx == nil {
		return
	}
	if err := l.ctx.Err(); err != nil {
		panic(Canceled{Err: err})
	}
}

// Condition returns the link's network condition.
func (l *Link) Condition() Condition { return l.cond }

// Stats returns a snapshot of the link's accumulated statistics.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// cost returns the end-to-end latency of one round trip carrying the given
// payloads.
func (l *Link) cost(reqBytes, respBytes int64) (total, busy time.Duration) {
	busy = l.cond.TransferTime(reqBytes) + l.cond.TransferTime(respBytes)
	return l.cond.RTT + busy, busy
}

// RoundTrip performs a synchronous (blocking) round trip: the initiator sends
// reqBytes, the peer replies with respBytes, and the initiator stalls for the
// whole exchange. The virtual clock advances by RTT plus serialization time.
// It returns the time at which the response arrived.
func (l *Link) RoundTrip(reqBytes, respBytes int64) time.Duration {
	l.checkCtx()
	total, busy := l.cost(reqBytes, respBytes)
	extra, extraLoss := l.applyFaults(total)
	total += extra
	l.mu.Lock()
	total = l.perturb(total, extraLoss)
	l.mu.Unlock()
	endSpan := l.obs.Span("net.rtt", "net",
		obs.A("req_bytes", reqBytes), obs.A("resp_bytes", respBytes))
	done := l.clock.Advance(total)
	endSpan()
	l.mu.Lock()
	l.stats.BlockingRTTs++
	l.stats.BytesSent += reqBytes
	l.stats.BytesReceived += respBytes
	l.stats.Busy += busy
	l.mu.Unlock()
	return done
}

// AsyncRoundTrip initiates a round trip whose latency is overlapped with the
// initiator's continued execution (a speculative commit, §4.2). The clock is
// NOT advanced; instead the completion time is returned so the caller can
// later wait for it with WaitUntil if and when validation requires it.
func (l *Link) AsyncRoundTrip(reqBytes, respBytes int64) (completion time.Duration) {
	l.checkCtx()
	total, busy := l.cost(reqBytes, respBytes)
	extra, extraLoss := l.applyFaults(total)
	total += extra
	l.mu.Lock()
	total = l.perturb(total, extraLoss)
	l.stats.AsyncRTTs++
	l.stats.BytesSent += reqBytes
	l.stats.BytesReceived += respBytes
	l.stats.Busy += busy
	l.mu.Unlock()
	return l.clock.Now() + total
}

// WaitUntil blocks (in virtual time) until t: if t is still in the future the
// clock advances to it, otherwise nothing happens. It returns the stall
// duration that was actually incurred.
func (l *Link) WaitUntil(t time.Duration) time.Duration {
	l.checkCtx()
	now := l.clock.Now()
	if t <= now {
		return 0
	}
	endSpan := l.obs.Span("net.wait", "net")
	l.clock.AdvanceTo(t)
	endSpan()
	l.mu.Lock()
	l.stats.Stalled += t - now
	l.mu.Unlock()
	return t - now
}

// OneWay models a unidirectional message (e.g. the final recording download
// or an interrupt notification) of n bytes: half an RTT plus serialization.
func (l *Link) OneWay(n int64) time.Duration {
	l.checkCtx()
	busy := l.cond.TransferTime(n)
	extra, _ := l.applyFaults(l.cond.RTT/2 + busy)
	endSpan := l.obs.Span("net.oneway", "net", obs.A("bytes", n))
	done := l.clock.Advance(l.cond.RTT/2 + busy + extra)
	endSpan()
	l.mu.Lock()
	l.stats.BytesSent += n
	l.stats.Busy += busy
	l.mu.Unlock()
	return done
}
