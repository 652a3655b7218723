package cloud

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// SessionConfig tunes a SessionManager. The zero value gives a pool of 16
// VMs and an admission queue of four times the pool. A client holds one
// session at a time.
type SessionConfig struct {
	// Capacity is the maximum number of concurrently live recording VMs;
	// 0 or negative selects the default of 16.
	Capacity int
	// QueueLimit is the maximum number of admissions allowed to wait for
	// a VM slot once the pool is full; beyond it Acquire fails
	// immediately with ErrCapacity. 0 selects the default of
	// 4×Capacity; negative disables queueing entirely.
	QueueLimit int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Capacity <= 0 {
		c.Capacity = 16
	}
	switch {
	case c.QueueLimit == 0:
		c.QueueLimit = 4 * c.Capacity
	case c.QueueLimit < 0:
		c.QueueLimit = 0
	}
	return c
}

// SessionManager is the admission controller in front of a Service: it
// bounds the number of concurrently live recording VMs, queues admissions
// FIFO when the pool is saturated, and rejects with ErrCapacity once the
// queue is full too. Waiting is context-aware: a queued admission whose
// context ends leaves the queue without consuming a slot.
//
// A freed slot is handed directly to the oldest waiter (the pool's in-use
// count never dips while someone is queued), so admission order is strictly
// first-come-first-served.
type SessionManager struct {
	svc *Service
	cfg SessionConfig

	mu      sync.Mutex
	inUse   int
	queue   []chan struct{}
	granted map[*VM]bool
	// reg, when set, carries the fleet metrics: active-VM and queue-depth
	// gauges, admission outcome counters, and the (wall-clock) admission
	// wait histogram.
	reg *obs.Registry
	// timeSrc, when set, measures admission waits on a virtual timeline
	// instead of the wall clock — a fleet drill running on a discrete-event
	// engine passes the engine here so the wait histogram is deterministic.
	timeSrc timesim.Source
	// flight, when set, journals every admission decision as a flight-
	// recorder event alongside the counters.
	flight *obs.FlightRecorder
	// gaugeLabels, when set, label this manager's pool gauges (active VMs,
	// queue depth) so several managers sharing one registry — the shards of
	// a ShardedService — publish distinct series instead of clobbering one.
	gaugeLabels []obs.Label
}

// NewSessionManager wraps a Service with admission control.
func NewSessionManager(svc *Service, cfg SessionConfig) *SessionManager {
	return &SessionManager{svc: svc, cfg: cfg.withDefaults(), granted: map[*VM]bool{}}
}

// Config returns the manager's effective (defaulted) configuration.
func (m *SessionManager) Config() SessionConfig { return m.cfg }

// InstrumentShard attaches the fleet metrics registry and labels this
// manager's pool gauges with the given labels. Counter families and the
// admission-wait histogram stay unlabeled so they aggregate across shards
// into the fleet-wide series. Admission wait times are measured on the wall
// clock unless a time source is set — admission happens before a session's
// virtual clock exists — so only the fleet registry (never a session scope)
// carries them, keeping per-session telemetry deterministic.
func (m *SessionManager) InstrumentShard(reg *obs.Registry, labels ...obs.Label) {
	m.mu.Lock()
	m.reg = reg
	m.gaugeLabels = labels
	m.mu.Unlock()
	m.svc.InstrumentDevices(reg)
}

// SetTimeSource measures subsequent admission waits on the given virtual
// timeline instead of the wall clock. Fleet drills sharing one engine pass
// the engine here, which keeps the admission-wait histogram deterministic
// across runs and GOMAXPROCS settings.
func (m *SessionManager) SetTimeSource(s timesim.Source) {
	m.mu.Lock()
	m.timeSrc = s
	m.mu.Unlock()
}

// waitTimer starts one admission-wait measurement on whichever timeline the
// manager uses: the returned function reports the elapsed wait.
func (m *SessionManager) waitTimer() func() time.Duration {
	m.mu.Lock()
	s := m.timeSrc
	m.mu.Unlock()
	if s != nil {
		start := s.Now()
		return func() time.Duration { return s.Now() - start }
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// InstrumentFlight attaches a flight recorder: every admission decision is
// journaled with its outcome (immediate, queued, rejected, abandoned,
// launch_failed). A nil recorder detaches.
func (m *SessionManager) InstrumentFlight(f *obs.FlightRecorder) {
	m.mu.Lock()
	m.flight = f
	m.mu.Unlock()
}

// emitAdmission journals one admission decision. Admission happens before a
// session's virtual clock exists, so the event is stamped with the shared
// time source when one is set (a fleet drill's engine time) and 0 otherwise.
func (m *SessionManager) emitAdmission(clientID, outcome string, args ...obs.Arg) {
	m.mu.Lock()
	f, src := m.flight, m.timeSrc
	m.mu.Unlock()
	if f == nil {
		return
	}
	var vt time.Duration
	if src != nil {
		vt = src.Now()
	}
	f.Emit(vt, clientID, obs.FKAdmission, outcome, args...)
}

// registry reads the attached registry (nil when uninstrumented).
func (m *SessionManager) registry() *obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg
}

// syncGauges publishes the pool gauges. Callers hold m.mu.
func (m *SessionManager) syncGauges() {
	if m.reg == nil {
		return
	}
	m.reg.GaugeSet(obs.MFleetQueueDepth, int64(len(m.queue)), m.gaugeLabels...)
	m.reg.GaugeSet(obs.MFleetActiveVMs, int64(m.inUse), m.gaugeLabels...)
}

// ActiveVMs reports the number of live recording VMs.
func (m *SessionManager) ActiveVMs() int { return m.svc.ActiveVMs() }

// Queued reports the number of admissions currently waiting for a slot.
func (m *SessionManager) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Acquire admits one recording session and launches its VM, waiting (FIFO,
// honoring ctx) for a pool slot when the service is saturated. Errors
// unwrap to grterr.ErrCapacity (pool and queue both full),
// grterr.ErrSessionLimit (the client already holds a session),
// grterr.ErrSKUMismatch (image cannot drive the GPU), or the context's
// error when the wait is abandoned. The returned VM must be released with
// Release.
func (m *SessionManager) Acquire(ctx context.Context, clientID, imageName, gpuCompatible string, clientNonce []byte) (*VM, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cloud: admission: %w", err)
	}
	m.mu.Lock()
	if m.inUse < m.cfg.Capacity && len(m.queue) == 0 {
		m.inUse++
		m.syncGauges()
		m.mu.Unlock()
		if reg := m.registry(); reg != nil {
			reg.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "immediate"))
		}
		m.emitAdmission(clientID, "immediate")
	} else {
		if len(m.queue) >= m.cfg.QueueLimit {
			busy, queued := m.inUse, len(m.queue)
			m.mu.Unlock()
			if reg := m.registry(); reg != nil {
				reg.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "rejected"))
			}
			m.emitAdmission(clientID, "rejected",
				obs.A("busy", int64(busy)), obs.A("queued", int64(queued)))
			return nil, fmt.Errorf("cloud: pool saturated (%d VMs busy, %d admissions queued): %w",
				busy, queued, grterr.ErrCapacity)
		}
		turn := make(chan struct{})
		m.queue = append(m.queue, turn)
		m.syncGauges()
		m.mu.Unlock()
		waited := m.waitTimer()
		select {
		case <-turn:
			// The releaser handed its slot to us; inUse already counts it.
			// Read the wait once, so the histogram and the journal agree.
			wait := waited()
			if reg := m.registry(); reg != nil {
				reg.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "queued"))
				reg.Observe(obs.MFleetAdmissionWait, wait.Seconds())
			}
			m.emitAdmission(clientID, "queued", obs.A("wait_ns", int64(wait)))
		case <-ctx.Done():
			m.abandon(turn)
			if reg := m.registry(); reg != nil {
				reg.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "abandoned"))
			}
			m.emitAdmission(clientID, "abandoned")
			return nil, fmt.Errorf("cloud: admission wait: %w", ctx.Err())
		}
	}
	vm, err := m.svc.Launch(clientID, imageName, gpuCompatible, clientNonce)
	if err != nil {
		m.releaseSlot()
		if reg := m.registry(); reg != nil {
			reg.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "launch_failed"))
		}
		m.emitAdmission(clientID, "launch_failed")
		return nil, err
	}
	m.mu.Lock()
	m.granted[vm] = true
	m.mu.Unlock()
	return vm, nil
}

// Release tears down a VM acquired through this manager and passes its pool
// slot to the oldest waiter, if any. Releasing a VM twice, or one the
// manager did not grant, is a no-op.
func (m *SessionManager) Release(vm *VM) {
	m.release(vm, obs.MFleetSessions)
}

// Crash tears down a VM whose session was lost mid-record (link liveness
// timeout or VM death). The pool slot moves on exactly as in Release — the
// fleet just counts a crash instead of a completed session. Idempotent the
// same way Release is.
func (m *SessionManager) Crash(vm *VM) {
	m.release(vm, obs.MFleetVMCrashes)
}

func (m *SessionManager) release(vm *VM, metric string) {
	m.mu.Lock()
	if !m.granted[vm] {
		m.mu.Unlock()
		return
	}
	delete(m.granted, vm)
	m.mu.Unlock()
	m.svc.Release(vm)
	m.releaseSlot()
	if reg := m.registry(); reg != nil {
		reg.Add(metric, 1)
	}
}

// releaseSlot returns one pool slot: directly to the head-of-line waiter
// when the queue is non-empty, otherwise back to the free pool.
func (m *SessionManager) releaseSlot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) > 0 {
		turn := m.queue[0]
		m.queue = m.queue[1:]
		close(turn)
		m.syncGauges()
		return
	}
	m.inUse--
	m.syncGauges()
}

// abandon removes a canceled waiter from the queue. If the waiter had
// already been granted a slot (the grant raced the cancellation), the slot
// is passed on.
func (m *SessionManager) abandon(turn chan struct{}) {
	m.mu.Lock()
	for i, t := range m.queue {
		if t == turn {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.syncGauges()
			m.mu.Unlock()
			return
		}
	}
	m.mu.Unlock()
	m.releaseSlot()
}
