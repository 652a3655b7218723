package cloud

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
)

const testCompat = "arm,mali-g71-mp8"

func keyOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func newTestPool(cfg PoolConfig) *Pool { return NewPool(DefaultImage(), cfg) }

// mustAcquire admits the client under a key of its own name, which on a
// one-partition pool lands on partition 0.
func mustAcquire(t *testing.T, p *Pool, client string) *VM {
	t.Helper()
	vm, err := p.Acquire(context.Background(), keyOf(client), client, testCompat, []byte("n"))
	if err != nil {
		t.Fatalf("acquire for %s: %v", client, err)
	}
	return vm
}

// shardKeys finds one cache key per partition of p, in partition order.
func shardKeys(p *Pool) [][32]byte {
	keys := make([][32]byte, p.NumShards())
	found := map[int]bool{}
	for i := 0; len(found) < len(keys); i++ {
		k := keyOf(fmt.Sprintf("k%d", i))
		if s := p.Shard(k); !found[s] {
			found[s], keys[s] = true, k
		}
	}
	return keys
}

func TestSessionManagerCapacityAndQueueLimit(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 2, QueueLimit: -1})
	vm1 := mustAcquire(t, p, "c1")
	vm2 := mustAcquire(t, p, "c2")
	if p.ActiveVMs() != 2 {
		t.Fatalf("active = %d", p.ActiveVMs())
	}
	// Pool full, no queue: immediate ErrCapacity.
	_, err := p.Acquire(context.Background(), keyOf("c3"), "c3", testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("saturated acquire: %v", err)
	}
	p.Release(vm1)
	p.Release(vm2)
	if p.ActiveVMs() != 0 {
		t.Fatalf("active after release = %d", p.ActiveVMs())
	}
	mustAcquire(t, p, "c3")
}

func TestSessionManagerQueueIsFIFO(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 8})
	holder := mustAcquire(t, p, "holder")

	// Queue three waiters in a known order; gate each goroutine's start so
	// the enqueue order is deterministic.
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vm := mustAcquire(t, p, fmt.Sprintf("w%d", i))
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			p.Release(vm)
		}(i)
		// Wait until this goroutine is queued before starting the next.
		for deadline := time.Now().Add(5 * time.Second); p.Queued() != i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (queued=%d)", i, p.Queued())
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.Release(holder)
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order %v, want [0 1 2]", order)
	}
	if p.ActiveVMs() != 0 || p.Queued() != 0 {
		t.Fatalf("end state: active=%d queued=%d", p.ActiveVMs(), p.Queued())
	}
}

func TestSessionManagerQueueOverflowFailsFast(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 1})
	holder := mustAcquire(t, p, "holder")
	defer p.Release(holder)

	// First waiter occupies the queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, keyOf("queued"), "queued", testCompat, []byte("n"))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second waiter overflows the queue.
	_, err := p.Acquire(context.Background(), keyOf("overflow"), "overflow", testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("overflow acquire: %v", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire after cancel: %v", err)
	}
	if p.Queued() != 0 {
		t.Fatalf("queued = %d after cancellation", p.Queued())
	}
}

func TestSessionManagerCanceledWaiterDoesNotLeakSlot(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 4})
	holder := mustAcquire(t, p, "holder")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, keyOf("canceled"), "canceled", testCompat, []byte("n"))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: %v", err)
	}
	// The abandoned wait must not have consumed the slot: releasing the
	// holder leaves the pool fully available again.
	p.Release(holder)
	vm := mustAcquire(t, p, "after")
	p.Release(vm)
	if p.ActiveVMs() != 0 {
		t.Fatalf("active = %d", p.ActiveVMs())
	}
}

// TestSessionManagerPerClientLimit: a client holds one VM across the whole
// pool. Its second admission is refused with ErrSessionLimit on the first
// VM's partition and on any other, and the refused admission leaks no slot.
func TestSessionManagerPerClientLimit(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := newTestPool(PoolConfig{Shards: shards, Capacity: 4, QueueLimit: -1})
			keys := shardKeys(p)
			home, away := keys[0], keys[shards-1]
			acquire := func(key [32]byte, client string) (*VM, error) {
				return p.Acquire(context.Background(), key, client, testCompat, []byte("n"))
			}
			phone, err := acquire(home, "phone")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := acquire(away, "phone"); !errors.Is(err, grterr.ErrSessionLimit) {
				t.Fatalf("second session for one client: %v", err)
			}
			// The rejected admission must not leak its slot: the partition
			// it was refused on still admits up to its capacity.
			vms := []*VM{phone}
			for len(vms) < 4+shards-1 {
				vm, err := acquire(away, fmt.Sprintf("other-%d", len(vms)))
				if err != nil {
					t.Fatalf("after the refusal, admission %d: %v", len(vms), err)
				}
				vms = append(vms, vm)
			}
			if _, err := acquire(away, "late"); !errors.Is(err, grterr.ErrCapacity) {
				t.Fatalf("admission past capacity: %v", err)
			}
			for _, vm := range vms {
				p.Release(vm)
			}
			if p.ActiveVMs() != 0 {
				t.Fatalf("active = %d", p.ActiveVMs())
			}
		})
	}
}

func TestSessionManagerDoubleReleaseIsNoop(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: -1})
	vm := mustAcquire(t, p, "c")
	p.Release(vm)
	p.Release(vm) // must not free a second slot
	vm2 := mustAcquire(t, p, "c")
	_, err := p.Acquire(context.Background(), keyOf("d"), "d", testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("capacity after double release drifted: %v", err)
	}
	p.Release(vm2)
}

func TestSessionManagerSKUMismatchSentinel(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: -1})
	_, err := p.Acquire(context.Background(), keyOf("c"), "c", "nvidia,gtx-4090", []byte("n"))
	if !errors.Is(err, grterr.ErrSKUMismatch) {
		t.Fatalf("unsupported GPU: %v", err)
	}
	// The failed launch returned its slot.
	vm := mustAcquire(t, p, "c")
	p.Release(vm)
}

// tickSource is a time source that moves forward by one millisecond on
// every read, the way the wall clock moves between two reads.
type tickSource struct{ ticks atomic.Int64 }

func (s *tickSource) Now() time.Duration { return time.Duration(s.ticks.Add(1)) * time.Millisecond }

// TestSessionManagerQueuedWaitReadOnce: a queued admission's wait is read
// once, so the wait histogram and the flight journal report the same wait
// even on a clock that moves between reads.
func TestSessionManagerQueuedWaitReadOnce(t *testing.T) {
	reg, flight := obs.NewRegistry(), obs.NewFlightRecorder(0)
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 1, Fleet: reg, Flight: flight, Time: &tickSource{}})
	holder := mustAcquire(t, p, "holder")
	admitted := make(chan *VM, 1)
	go func() {
		vm, err := p.Acquire(context.Background(), keyOf("waiter"), "waiter", testCompat, []byte("n"))
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		admitted <- vm
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.Release(holder)
	p.Release(<-admitted)

	var journaled time.Duration
	for _, e := range flight.Events() {
		if e.Kind == obs.FKAdmission && e.Note == "queued" {
			for _, a := range e.Args {
				if a.Key == "wait_ns" {
					journaled = time.Duration(a.Value)
				}
			}
		}
	}
	var observed time.Duration
	for _, f := range reg.Snapshot().Families {
		if f.Name == obs.MFleetAdmissionWait && len(f.Series) == 1 && f.Series[0].Count == 1 {
			observed = time.Duration(math.Round(f.Series[0].Sum * 1e9))
		}
	}
	if journaled <= 0 || observed != journaled {
		t.Fatalf("queued wait: histogram %v, flight journal %v; want one positive wait", observed, journaled)
	}
}

func TestShardedRingDeterministicAndCovering(t *testing.T) {
	a := newTestPool(PoolConfig{Shards: 4})
	b := newTestPool(PoolConfig{Shards: 4})
	used := map[int]int{}
	for i := 0; i < 4096; i++ {
		k := keyOf(fmt.Sprintf("workload-%d", i))
		sa, sb := a.Shard(k), b.Shard(k)
		if sa != sb {
			t.Fatalf("key %d: shard %d on one service, %d on its twin", i, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("key %d routed to shard %d of 4", i, sa)
		}
		used[sa]++
	}
	for s := 0; s < 4; s++ {
		// 4096 keys over 4 shards: consistent hashing with 64 vnodes keeps
		// every shard in play and no shard hoarding the ring.
		if used[s] < 256 {
			t.Fatalf("shard %d received only %d of 4096 keys", s, used[s])
		}
	}
	// One partition takes every key without a ring.
	if one := newTestPool(PoolConfig{}); one.ring != nil || one.Shard(keyOf("workload-0")) != 0 {
		t.Fatal("a one-partition pool built a ring or routed off partition 0")
	}
}

func TestShardedSameKeySameShard(t *testing.T) {
	s := newTestPool(PoolConfig{Shards: 8})
	k := keyOf("MNIST")
	want := s.Shard(k)
	for i := 0; i < 100; i++ {
		if got := s.Shard(k); got != want {
			t.Fatalf("shard for the same key moved: %d then %d", want, got)
		}
	}
}

func TestShardedAcquireReleaseRouting(t *testing.T) {
	s := newTestPool(PoolConfig{Shards: 2, Capacity: 1, QueueLimit: -1})
	if s.NumShards() != 2 {
		t.Fatalf("%d shards, want 2", s.NumShards())
	}
	keys := shardKeys(s)
	var vms []*VM
	for shard, k := range keys {
		vm, err := s.Acquire(context.Background(), k, fmt.Sprintf("c%d", shard), testCompat, []byte("n"))
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		vms = append(vms, vm)
	}
	if s.ActiveVMs() != 2 {
		t.Fatalf("%d VMs live, want 2", s.ActiveVMs())
	}
	for _, vm := range vms {
		s.Release(vm)
	}
	if s.ActiveVMs() != 0 {
		t.Fatalf("%d VMs live after release", s.ActiveVMs())
	}
	// Double release is a no-op, as on the single manager.
	s.Release(vms[0])
	if s.ActiveVMs() != 0 {
		t.Fatal("double release disturbed the pool")
	}
}

func TestShardedShedding(t *testing.T) {
	reg, flight := obs.NewRegistry(), obs.NewFlightRecorder(0)
	s := newTestPool(PoolConfig{Capacity: 1, QueueLimit: -1, Fleet: reg, Flight: flight})

	k := keyOf("hot-workload")
	vm, err := s.Acquire(context.Background(), k, "c1", testCompat, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Acquire(context.Background(), k, "c2", testCompat, []byte("n"))
	if err == nil {
		t.Fatal("saturated shard admitted")
	}
	if !errors.Is(err, grterr.ErrShedding) {
		t.Fatalf("shed rejection does not unwrap to ErrShedding: %v", err)
	}
	var shed *SheddingError
	if !errors.As(err, &shed) {
		t.Fatalf("rejection is not a *SheddingError: %v", err)
	}
	if shed.Shard != 0 || shed.Busy != 1 || shed.Queued != 0 {
		t.Fatalf("shed snapshot %+v", shed)
	}
	if shed.RetryAfter != 250*time.Millisecond {
		t.Fatalf("retry-after %s, want the base hint for an empty queue", shed.RetryAfter)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.MShardShed, obs.L("shard", "0")); got != 1 {
		t.Fatalf("shed counter %d", got)
	}
	if got := snap.Counter(obs.MShardRequests, obs.L("shard", "0")); got != 2 {
		t.Fatalf("request counter %d", got)
	}
	var shedEvents int
	for _, e := range flight.Events() {
		if e.Kind == obs.FKShardShed {
			shedEvents++
		}
	}
	if shedEvents != 1 {
		t.Fatalf("%d shed flight events", shedEvents)
	}

	// The slot frees, the same key admits again.
	s.Release(vm)
	vm2, err := s.Acquire(context.Background(), k, "c3", testCompat, []byte("n"))
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	s.Release(vm2)
}

// Non-capacity errors pass through unchanged — a SKU mismatch must not be
// dressed up as load shedding.
func TestShardedNonCapacityErrorPassthrough(t *testing.T) {
	s := newTestPool(PoolConfig{Shards: 2})
	_, err := s.Acquire(context.Background(), keyOf("x"), "c1", "nvidia,gtx-4090", []byte("n"))
	if err == nil {
		t.Fatal("incompatible GPU admitted")
	}
	if errors.Is(err, grterr.ErrShedding) {
		t.Fatalf("SKU mismatch reported as shedding: %v", err)
	}
	if !errors.Is(err, grterr.ErrSKUMismatch) {
		t.Fatalf("lost the SKU-mismatch sentinel: %v", err)
	}
}

// Shard gauges must not clobber each other on the shared registry: each
// partition publishes its pool gauges under its own {shard} label while the
// admission counters aggregate unlabeled.
func TestShardedGaugeLabels(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestPool(PoolConfig{Shards: 2, Capacity: 2, Fleet: reg})
	var vms []*VM
	for shard, k := range shardKeys(s) {
		vm, err := s.Acquire(context.Background(), k, fmt.Sprintf("c%d", shard), testCompat, []byte("n"))
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	snap := reg.Snapshot()
	for i := 0; i < 2; i++ {
		lbl := obs.L("shard", fmt.Sprintf("%d", i))
		if got := snap.Gauge(obs.MFleetActiveVMs, lbl); got != 1 {
			t.Fatalf("shard %d active-VM gauge %d, want 1", i, got)
		}
	}
	if got := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")); got != 2 {
		t.Fatalf("aggregated admission counter %d, want 2", got)
	}
	for _, vm := range vms {
		s.Release(vm)
	}
}
