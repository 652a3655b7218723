// Sharded admission: one pool of recording VMs split into partitions under
// consistent hashing on the recording cache key. One admission queue in
// front of one set of slots is a single convoy at fleet scale — 10k clients
// contending on one mutex and one FIFO. Partitioning by cache key keeps
// every request for the same (SKU, stack, workload, input shape) on the
// same partition, which is what makes the cache-first path compose: the
// singleflight leader and all of its followers land on one partition, so a
// workload's first record occupies exactly one partition's slot while the
// others serve unrelated keys.
package cloud

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/tee"
	"gpurelay/internal/timesim"
)

// PoolConfig fixes a Pool's shape and telemetry at construction. The zero
// value gives one partition of 16 VMs, an admission queue of four times
// that, and a private metrics registry.
type PoolConfig struct {
	// Shards is the partition count (0 → 1).
	Shards int
	// Capacity is each partition's maximum number of concurrently live
	// recording VMs; 0 or negative selects the default of 16.
	Capacity int
	// QueueLimit is the maximum number of admissions allowed to wait for
	// one partition's slot once its slots are full; beyond it Admit sheds
	// with a *SheddingError. 0 selects the default of 4×Capacity; negative
	// disables queueing entirely.
	QueueLimit int
	// Fleet receives the admission counters and wait histogram (unlabeled,
	// so they aggregate across partitions), the pool gauges (labeled
	// {shard}) and every device's grt_device_* series. Nil gives the pool a
	// private registry.
	Fleet *obs.Registry
	// Flight, when set, journals every admission decision and shed.
	Flight *obs.FlightRecorder
	// Time, when set, measures admission waits and stamps admission events
	// on a virtual timeline; a fleet drill passes its engine so the wait
	// histogram is deterministic. Nil measures waits on the wall clock and
	// stamps events at 0: admission happens before a session's virtual
	// clock exists, so only the fleet registry, never a session scope,
	// carries these waits.
	Time timesim.Source
}

const (
	// virtualNodes is the number of ring positions per partition. More
	// positions smooth the key distribution across partitions.
	virtualNodes = 64
	// shedRetryBase scales the retry-after hint attached to a shedding
	// rejection. The hint grows with the rejecting partition's queue depth,
	// so a deeply backed-up partition pushes retries further out.
	shedRetryBase = 250 * time.Millisecond
)

// SheddingError is a typed per-partition load-shedding rejection: the
// partition's slots and queue are both full. It unwraps to
// grterr.ErrShedding, which marks the typed rejection, and to
// grterr.ErrCapacity, which every full pool reports, and carries a
// deterministic retry-after hint derived from the partition's queue depth.
type SheddingError struct {
	// Shard is the rejecting partition.
	Shard int
	// RetryAfter is when the client should try this partition again. The
	// cache key pins the workload to its partition, so failing over is not
	// an option.
	RetryAfter time.Duration
	// Busy and Queued snapshot the partition at rejection time.
	Busy, Queued int
}

func (e *SheddingError) Error() string {
	return fmt.Sprintf("cloud: shard %d shedding load (%d VMs busy, %d queued), retry after %s: %s",
		e.Shard, e.Busy, e.Queued, e.RetryAfter, grterr.ErrShedding)
}

// Unwrap lets errors.Is match a shed admission as both grterr.ErrShedding
// and grterr.ErrCapacity.
func (e *SheddingError) Unwrap() []error { return []error{grterr.ErrShedding, grterr.ErrCapacity} }

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	pos   uint64
	shard int
}

// Pool is the cloud recording service's admission layer: a fleet of
// single-tenant recording VMs hosting one image, split into partitions by
// the recording cache key. Each partition bounds its live VMs, queues
// admissions FIFO once it is full, sheds once its queue is full too, and
// keeps its own GPU devices. Admit is the one admission decision, and every
// way of waiting sits on it. A freed slot is handed directly to the
// partition's oldest turn (its in-use count never dips while someone is
// queued), so admission order is strictly first-come-first-served, whether
// the turn's owner blocks, parks on an engine or waits for a callback. One
// client table covers every partition: a client holds one VM at a time
// across the whole pool, and VMs are never shared or reused across clients
// (§3.1).
type Pool struct {
	image      *Image
	capacity   int
	queueLimit int
	fleet      *obs.Registry
	flight     *obs.FlightRecorder
	clock      timesim.Source
	parts      []*partition
	// ring maps cache keys to partitions; nil with one partition, which
	// takes every key.
	ring []ringPoint

	// mu guards the client table, the VM sequence and every VM's released
	// flag. Launch takes a partition's lock under it, never the reverse.
	mu      sync.Mutex
	clients map[string]*VM
	seq     int
}

// partition is one shard of the pool: its slots, its FIFO admission queue
// and its device inventory.
type partition struct {
	index int
	label obs.Label // {shard: index}, on the gauges and shard counters

	mu      sync.Mutex
	inUse   int
	queue   []*Turn
	devices []*Device
}

// NewPool builds cfg.Shards partitions (at least one) hosting the image.
func NewPool(img *Image, cfg PoolConfig) *Pool {
	p := &Pool{image: img, capacity: cfg.Capacity, queueLimit: cfg.QueueLimit,
		fleet: cfg.Fleet, flight: cfg.Flight, clock: cfg.Time, clients: map[string]*VM{}}
	if p.capacity <= 0 {
		p.capacity = 16
	}
	switch {
	case p.queueLimit == 0:
		p.queueLimit = 4 * p.capacity
	case p.queueLimit < 0:
		p.queueLimit = 0
	}
	if p.fleet == nil {
		p.fleet = obs.NewRegistry()
	}
	for i := range max(cfg.Shards, 1) {
		p.parts = append(p.parts, &partition{index: i, label: obs.L("shard", strconv.Itoa(i))})
	}
	if len(p.parts) > 1 {
		for i := range p.parts {
			for j := range virtualNodes {
				p.ring = append(p.ring, ringPoint{pos: ringPos(i, j), shard: i})
			}
		}
		sort.Slice(p.ring, func(a, b int) bool { return p.ring[a].pos < p.ring[b].pos })
	}
	return p
}

// ringPos derives one virtual node's deterministic ring position.
func ringPos(shard, vnode int) uint64 {
	var buf [32]byte
	copy(buf[:], "grt-shard-ring/1")
	binary.LittleEndian.PutUint32(buf[16:], uint32(shard))
	binary.LittleEndian.PutUint32(buf[20:], uint32(vnode))
	sum := sha256.Sum256(buf[:24])
	return binary.BigEndian.Uint64(sum[:8])
}

// NumShards returns the partition count.
func (p *Pool) NumShards() int { return len(p.parts) }

// Image returns the image every VM boots.
func (p *Pool) Image() *Image { return p.image }

// Shard maps a cache-key hash to its partition: the first ring position at
// or clockwise after the key's point, wrapping at the top.
func (p *Pool) Shard(key [32]byte) int {
	if p.ring == nil {
		return 0
	}
	x := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].pos >= x })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].shard
}

// Request is one admission: the cache-key hash that picks its partition,
// the client that will hold the VM, the compatible string of the client's
// GPU and the client's attestation nonce.
type Request struct {
	Key      [32]byte
	ClientID string
	GPU      string
	Nonce    []byte
}

// A Turn is an admission waiting in its partition's FIFO queue.
type Turn struct {
	// Place is the queue's length once the admission joined it, itself
	// included.
	Place int

	r       Request
	pt      *partition
	waited  func() time.Duration
	granted func(*VM, error)
}

// Admit is the pool's one admission decision, and it never blocks. It
// routes r to its key's partition, which has one of three answers. With a
// slot free and nobody queued, Admit launches r's VM now and returns it.
// With its slots full but room in its queue, Admit returns r's Turn: the
// Release or Crash that hands r the slot launches its VM then and passes it,
// or the launch's error, to granted, outside every pool lock. With its queue
// full too, the partition sheds r with a *SheddingError (unwrapping to
// grterr.ErrShedding and grterr.ErrCapacity) carrying a retry-after hint.
// A launch fails with grterr.ErrSessionLimit (the client already holds a VM
// on some partition) or grterr.ErrSKUMismatch (the image cannot drive the
// GPU), and hands its slot on. The VM must be released with Release or
// Crash.
func (p *Pool) Admit(r Request, granted func(*VM, error)) (*VM, *Turn, error) {
	pt := p.parts[p.Shard(r.Key)]
	p.fleet.Add(obs.MShardRequests, 1, pt.label)
	pt.mu.Lock()
	if pt.inUse < p.capacity && len(pt.queue) == 0 {
		pt.inUse++
		p.syncGauges(pt)
		pt.mu.Unlock()
		p.fleet.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "immediate"))
		p.emit(r.ClientID, obs.FKAdmission, "immediate")
		vm, err := p.launch(pt, r)
		return vm, nil, err
	}
	if len(pt.queue) >= p.queueLimit {
		busy, queued := pt.inUse, len(pt.queue)
		pt.mu.Unlock()
		p.fleet.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "rejected"))
		p.emit(r.ClientID, obs.FKAdmission, "rejected",
			obs.A("busy", int64(busy)), obs.A("queued", int64(queued)))
		shed := &SheddingError{Shard: pt.index, RetryAfter: shedRetryBase * time.Duration(queued+1),
			Busy: busy, Queued: queued}
		p.fleet.Add(obs.MShardShed, 1, pt.label)
		p.emit(r.ClientID, obs.FKShardShed, "",
			obs.A("shard", int64(pt.index)), obs.A("retry_after_ns", int64(shed.RetryAfter)))
		return nil, nil, shed
	}
	t := &Turn{Place: len(pt.queue) + 1, r: r, pt: pt, waited: p.waitTimer(), granted: granted}
	pt.queue = append(pt.queue, t)
	p.syncGauges(pt)
	pt.mu.Unlock()
	return nil, t, nil
}

// Acquire is Admit for a caller that waits for its turn on its timeline t.
// An engine process parks until the Release that hands it the slot
// schedules its wakeup. Any other caller, t nil included, blocks until then
// or until ctx ends, when it leaves the queue without consuming a slot and
// returns an error wrapping the context's. Other errors are Admit's.
func (p *Pool) Acquire(ctx context.Context, t timesim.Time, r Request) (*VM, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cloud: admission: %w", err)
	}
	woke := timesim.NewWakeup()
	var got *VM
	var gotErr error
	vm, turn, err := p.Admit(r, func(v *VM, e error) { got, gotErr = v, e; woke.Wake() })
	if turn == nil {
		return vm, err
	}
	if err := woke.Wait(ctx, t); err != nil {
		if p.withdraw(turn) {
			p.fleet.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "abandoned"))
			p.emit(r.ClientID, obs.FKAdmission, "abandoned")
			return nil, fmt.Errorf("cloud: admission wait: %w", err)
		}
		// The slot was handed over as the wait ended: take it.
		woke.Wait(context.Background(), nil)
	}
	return got, gotErr
}

// MaxShedRetries bounds how many times AcquireShedAware waits out a shed
// hint before it returns the rejection.
const MaxShedRetries = 4

// AcquireShedAware is Acquire for a client that honours shed hints. When
// r's partition sheds it, the client waits out the rejection's retry-after
// hint on t, plus a jitter of up to an eighth of it drawn deterministically
// from jitterSeed, so a herd of shed clients does not come back in lockstep;
// then it asks again, up to MaxShedRetries times. Each retry is counted on
// scope (on the pool's registry when scope is nil), annotated on scope and
// journaled at t's time. Any other error returns at once.
func (p *Pool) AcquireShedAware(ctx context.Context, t timesim.Time, scope *obs.Scope, jitterSeed uint64, r Request) (*VM, error) {
	vm, err := p.Acquire(ctx, t, r)
	jrng := max(jitterSeed^0xA24BAED4963EE407, 1) // xorshift never leaves 0
	for try := 1; err != nil && try <= MaxShedRetries; try++ {
		var shed *SheddingError
		if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
			break
		}
		jrng ^= jrng << 13
		jrng ^= jrng >> 7
		jrng ^= jrng << 17
		d := shed.RetryAfter + time.Duration(jrng%uint64(shed.RetryAfter/8+1))
		t.Advance(d)
		args := []obs.Arg{obs.A("try", int64(try)), obs.A("wait_ns", int64(d)), obs.A("shard", int64(shed.Shard))}
		scope.CountOr(p.fleet, obs.MShedRetries, 1)
		scope.Annotate("session.shed-retry", "session", args...)
		p.flight.Emit(t.Now(), r.ClientID, obs.FKShardShed, "retry", args...)
		vm, err = p.Acquire(ctx, t, r)
	}
	return vm, err
}

// launch boots r's dedicated VM on a slot pt granted it: the devicetree
// matching the client's GPU is selected, the VM is measured, and a session
// key is derived from the measurement and both nonces. The client check
// comes after admission, so in a full partition a client's second session
// is shed rather than refused as a session limit. A launch that fails hands
// its slot on.
func (p *Pool) launch(pt *partition, r Request) (*VM, error) {
	vm, err := p.boot(pt, r)
	if err != nil {
		p.fleet.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "launch_failed"))
		p.emit(r.ClientID, obs.FKAdmission, "launch_failed")
		p.handOn(pt)
	}
	return vm, err
}

// boot is launch's work, under the client table's lock.
func (p *Pool) boot(pt *partition, r Request) (*VM, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.clients[r.ClientID] != nil {
		return nil, fmt.Errorf("cloud: client %q already holds a recording VM: %w",
			r.ClientID, grterr.ErrSessionLimit)
	}
	dt, ok := p.image.DeviceTrees[r.GPU]
	if !ok {
		return nil, fmt.Errorf("cloud: image %q cannot drive GPU %q: %w",
			p.image.Name, r.GPU, grterr.ErrSKUMismatch)
	}
	cloudNonce := make([]byte, 16)
	if _, err := rand.Read(cloudNonce); err != nil {
		return nil, err
	}
	p.seq++
	m := measurement(p.image, dt)
	vm := &VM{
		ID:          fmt.Sprintf("vm-%04d", p.seq),
		Image:       p.image,
		DeviceTree:  dt,
		Measurement: m,
		ClientID:    r.ClientID,
		SessionKey:  tee.DeriveSessionKey(m, r.Nonce, cloudNonce),
		Device:      p.assignDevice(pt),
		pool:        p,
		part:        pt,
	}
	p.clients[r.ClientID] = vm
	return vm, nil
}

// Release tears a VM down after its single recording session and passes
// its slot to the partition's oldest waiter, if any. Releasing a VM twice,
// or one this pool did not launch, is a no-op.
func (p *Pool) Release(vm *VM) { p.release(vm, obs.MFleetSessions) }

// Crash tears down a VM whose session was lost mid-record (link liveness
// timeout or VM death). The slot moves on exactly as in Release — the fleet
// just counts a crash instead of a completed session. Idempotent the same
// way Release is.
func (p *Pool) Crash(vm *VM) { p.release(vm, obs.MFleetVMCrashes) }

func (p *Pool) release(vm *VM, metric string) {
	if vm.pool != p {
		return
	}
	p.mu.Lock()
	if vm.released {
		p.mu.Unlock()
		return
	}
	vm.released = true
	delete(p.clients, vm.ClientID)
	p.mu.Unlock()
	vm.Device.free()
	// The recording never persists cloud-side: no caching across clients
	// (§3.1), so the session key is scrubbed with the VM.
	clear(vm.SessionKey)
	p.handOn(vm.part)
	p.fleet.Add(metric, 1)
}

// handOn passes one of pt's slots to the partition's oldest turn, or frees
// it when nobody is queued. The turn's admission is counted, its wait
// observed and journaled (read once, so the two agree), and its VM launched
// and granted outside every pool lock.
func (p *Pool) handOn(pt *partition) {
	pt.mu.Lock()
	if len(pt.queue) == 0 {
		pt.inUse--
		p.syncGauges(pt)
		pt.mu.Unlock()
		return
	}
	t := pt.queue[0]
	pt.queue = pt.queue[1:]
	p.syncGauges(pt)
	pt.mu.Unlock()
	wait := t.waited()
	p.fleet.Add(obs.MFleetAdmissions, 1, obs.L("outcome", "queued"))
	p.fleet.Observe(obs.MFleetAdmissionWait, wait.Seconds())
	p.emit(t.r.ClientID, obs.FKAdmission, "queued", obs.A("wait_ns", int64(wait)))
	t.granted(p.launch(pt, t.r))
}

// withdraw takes t out of its partition's queue. It reports false when t's
// slot was already handed over.
func (p *Pool) withdraw(t *Turn) bool {
	t.pt.mu.Lock()
	defer t.pt.mu.Unlock()
	i := slices.Index(t.pt.queue, t)
	if i < 0 {
		return false
	}
	t.pt.queue = slices.Delete(t.pt.queue, i, i+1)
	p.syncGauges(t.pt)
	return true
}

// syncGauges publishes pt's gauges. Callers hold pt.mu.
func (p *Pool) syncGauges(pt *partition) {
	p.fleet.GaugeSet(obs.MFleetQueueDepth, int64(len(pt.queue)), pt.label)
	p.fleet.GaugeSet(obs.MFleetActiveVMs, int64(pt.inUse), pt.label)
}

// waitTimer starts one admission-wait measurement on the pool's timeline:
// the returned function reports the elapsed wait.
func (p *Pool) waitTimer() func() time.Duration {
	if p.clock != nil {
		start := p.clock.Now()
		return func() time.Duration { return p.clock.Now() - start }
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// emit journals one admission-layer event, stamped with the pool's time
// source when it has one and 0 otherwise.
func (p *Pool) emit(clientID, kind, note string, args ...obs.Arg) {
	if p.flight == nil {
		return
	}
	var vt time.Duration
	if p.clock != nil {
		vt = p.clock.Now()
	}
	p.flight.Emit(vt, clientID, kind, note, args...)
}

// ActiveVMs reports the number of live recording VMs across partitions.
func (p *Pool) ActiveVMs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clients)
}

// Queued totals admissions waiting for a slot across partitions.
func (p *Pool) Queued() int {
	var n int
	for _, pt := range p.parts {
		pt.mu.Lock()
		n += len(pt.queue)
		pt.mu.Unlock()
	}
	return n
}
