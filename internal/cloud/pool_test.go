package cloud

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

const testCompat = "arm,mali-g71-mp8"

func keyOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func newTestPool(cfg PoolConfig) *Pool { return NewPool(DefaultImage(), cfg) }

// mustAcquire admits the client under a key of its own name, which on a
// one-partition pool lands on partition 0.
func mustAcquire(t *testing.T, p *Pool, client string) *VM {
	t.Helper()
	vm, err := p.Acquire(context.Background(), nil, Request{Key: keyOf(client), ClientID: client, GPU: testCompat, Nonce: []byte("n")})
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
	_, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("c3"), ClientID: "c3", GPU: testCompat, Nonce: []byte("n")})
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
		_, err := p.Acquire(ctx, nil, Request{Key: keyOf("queued"), ClientID: "queued", GPU: testCompat, Nonce: []byte("n")})
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); p.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second waiter overflows the queue.
	_, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("overflow"), ClientID: "overflow", GPU: testCompat, Nonce: []byte("n")})
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
		_, err := p.Acquire(ctx, nil, Request{Key: keyOf("canceled"), ClientID: "canceled", GPU: testCompat, Nonce: []byte("n")})
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
				return p.Acquire(context.Background(), nil, Request{Key: key, ClientID: client, GPU: testCompat, Nonce: []byte("n")})
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
	_, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("d"), ClientID: "d", GPU: testCompat, Nonce: []byte("n")})
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("capacity after double release drifted: %v", err)
	}
	p.Release(vm2)
}

func TestSessionManagerSKUMismatchSentinel(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: -1})
	_, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("c"), ClientID: "c", GPU: "nvidia,gtx-4090", Nonce: []byte("n")})
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
		vm, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("waiter"), ClientID: "waiter", GPU: testCompat, Nonce: []byte("n")})
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
		vm, err := s.Acquire(context.Background(), nil, Request{Key: k, ClientID: fmt.Sprintf("c%d", shard), GPU: testCompat, Nonce: []byte("n")})
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
	vm, err := s.Acquire(context.Background(), nil, Request{Key: k, ClientID: "c1", GPU: testCompat, Nonce: []byte("n")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Acquire(context.Background(), nil, Request{Key: k, ClientID: "c2", GPU: testCompat, Nonce: []byte("n")})
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
	vm2, err := s.Acquire(context.Background(), nil, Request{Key: k, ClientID: "c3", GPU: testCompat, Nonce: []byte("n")})
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	s.Release(vm2)
}

// Non-capacity errors pass through unchanged — a SKU mismatch must not be
// dressed up as load shedding.
func TestShardedNonCapacityErrorPassthrough(t *testing.T) {
	s := newTestPool(PoolConfig{Shards: 2})
	_, err := s.Acquire(context.Background(), nil, Request{Key: keyOf("x"), ClientID: "c1", GPU: "nvidia,gtx-4090", Nonce: []byte("n")})
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
		vm, err := s.Acquire(context.Background(), nil, Request{Key: k, ClientID: fmt.Sprintf("c%d", shard), GPU: testCompat, Nonce: []byte("n")})
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

// admitOK asks p for a slot for client and fails the test unless the
// answer is a VM granted now.
func admitOK(t *testing.T, p *Pool, client string) *VM {
	t.Helper()
	vm, turn, err := p.Admit(Request{Key: keyOf(client), ClientID: client, GPU: testCompat, Nonce: []byte("n")},
		func(*VM, error) { t.Errorf("%s: granted a slot it already had", client) })
	if err != nil || turn != nil {
		t.Fatalf("admit %s: turn %v, err %v", client, turn, err)
	}
	return vm
}

// grants collects the outcomes a pool hands to queued admissions.
type grants struct {
	mu  sync.Mutex
	got []string
}

// to returns the grant callback of client: it notes the outcome, and with
// release set hands the slot straight back.
func (g *grants) to(p *Pool, client string, release bool) func(*VM, error) {
	return func(vm *VM, err error) {
		g.mu.Lock()
		if err != nil {
			g.got = append(g.got, client+":"+err.Error())
		} else {
			g.got = append(g.got, client)
		}
		g.mu.Unlock()
		if vm != nil && release {
			p.Release(vm)
		}
	}
}

func (g *grants) list() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.got...)
}

// TestAdmitNeverBlocks: on a full partition the admission core answers at
// once, with a turn while the queue has room and a shed once it is full;
// the release that frees the slot grants the turn.
func TestAdmitNeverBlocks(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 1})
	holder := admitOK(t, p, "holder")
	var g grants
	vm, turn, err := p.Admit(Request{Key: keyOf("waiter"), ClientID: "waiter", GPU: testCompat}, g.to(p, "waiter", false))
	if vm != nil || err != nil || turn == nil || turn.Place != 1 {
		t.Fatalf("full partition: vm %v, turn %+v, err %v; want a turn at place 1", vm, turn, err)
	}
	_, turn, err = p.Admit(Request{Key: keyOf("late"), ClientID: "late", GPU: testCompat}, g.to(p, "late", false))
	var shed *SheddingError
	if turn != nil || !errors.As(err, &shed) || shed.Queued != 1 {
		t.Fatalf("full queue: turn %v, err %v; want a shed behind one queued", turn, err)
	}
	if len(g.list()) != 0 || p.Queued() != 1 {
		t.Fatalf("before any release: grants %v, %d queued", g.list(), p.Queued())
	}
	p.Release(holder)
	if got := g.list(); len(got) != 1 || got[0] != "waiter" || p.ActiveVMs() != 1 || p.Queued() != 0 {
		t.Fatalf("after the release: grants %v, %d live, %d queued", got, p.ActiveVMs(), p.Queued())
	}
}

// TestGrantCallbackReentersPool: a grant callback runs outside every pool
// lock, so it may release its VM or admit again on the same pool.
func TestGrantCallbackReentersPool(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 4})
	holder := admitOK(t, p, "holder")
	var g grants
	req := func(c string) Request { return Request{Key: keyOf(c), ClientID: c, GPU: testCompat} }
	p.Admit(req("a"), g.to(p, "a", true))
	p.Admit(req("b"), func(vm *VM, err error) {
		g.to(p, "b", false)(vm, err)
		// Admit again from inside the grant: the slot is taken, so the
		// new admission queues and is granted by b's own release.
		p.Admit(req("c"), g.to(p, "c", true))
		p.Release(vm)
	})
	done := make(chan struct{})
	go func() {
		p.Release(holder)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a release whose grants re-enter the pool did not return")
	}
	if got := fmt.Sprint(g.list()); got != "[a b c]" {
		t.Fatalf("grants %s, want [a b c]", got)
	}
	if p.ActiveVMs() != 0 || p.Queued() != 0 {
		t.Fatalf("end state: %d live, %d queued", p.ActiveVMs(), p.Queued())
	}
}

// TestFIFOAcrossWaiterKinds: goroutines blocked in Acquire and callbacks
// queued through Admit share one FIFO queue per partition.
func TestFIFOAcrossWaiterKinds(t *testing.T) {
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 8})
	holder := admitOK(t, p, "holder")
	var g grants
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		client := fmt.Sprintf("w%d", i)
		if i%2 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vm := mustAcquire(t, p, client)
				g.to(p, client, true)(vm, nil)
			}()
		} else {
			wg.Add(1)
			p.Admit(Request{Key: keyOf(client), ClientID: client, GPU: testCompat}, func(vm *VM, err error) {
				defer wg.Done()
				g.to(p, client, true)(vm, err)
			})
		}
		for deadline := time.Now().Add(5 * time.Second); p.Queued() != i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (queued=%d)", i, p.Queued())
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.Release(holder)
	wg.Wait()
	if got := fmt.Sprint(g.list()); got != "[w0 w1 w2 w3]" {
		t.Fatalf("admission order %s, want [w0 w1 w2 w3]", got)
	}
	if p.ActiveVMs() != 0 || p.Queued() != 0 {
		t.Fatalf("end state: %d live, %d queued", p.ActiveVMs(), p.Queued())
	}
}

// TestGrantedLaunchFailureHandsSlotOn: a queued admission whose launch
// fails once it is granted gets the launch's error, and the slot goes on to
// the next turn. One client waits on a partition while it holds a VM on the
// other, so its launch is refused as a session limit.
func TestGrantedLaunchFailureHandsSlotOn(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPool(PoolConfig{Shards: 2, Capacity: 1, QueueLimit: 4, Fleet: reg})
	keys := shardKeys(p)
	admit := func(key [32]byte, client, gpu string, g func(*VM, error)) *VM {
		vm, _, err := p.Admit(Request{Key: key, ClientID: client, GPU: gpu}, g)
		if err != nil {
			t.Fatalf("admit %s: %v", client, err)
		}
		return vm
	}
	var g grants
	twice := admit(keys[0], "twice", testCompat, nil)
	holder := admit(keys[1], "holder", testCompat, nil)
	admit(keys[1], "twice", testCompat, g.to(p, "twice", false))
	admit(keys[1], "bad-gpu", "nvidia,gtx-4090", g.to(p, "bad-gpu", false))
	admit(keys[1], "next", testCompat, g.to(p, "next", true))
	p.Release(holder)
	got := g.list()
	if len(got) != 3 || got[0] != "next" ||
		!strings.Contains(got[1], grterr.ErrSKUMismatch.Error()) ||
		!strings.Contains(got[2], grterr.ErrSessionLimit.Error()) {
		t.Fatalf("grants %q: want next granted after bad-gpu and twice were refused", got)
	}
	if n := reg.Counter(obs.MFleetAdmissions, obs.L("outcome", "launch_failed")); n != 2 {
		t.Fatalf("%d failed launches counted, want 2", n)
	}
	p.Release(twice)
	if p.ActiveVMs() != 0 || p.Queued() != 0 {
		t.Fatalf("end state: %d live, %d queued", p.ActiveVMs(), p.Queued())
	}
}

// TestQueuedAdmissionCountedAtHandOver: a queued admission is counted,
// its wait observed and journaled exactly once, when its slot is handed
// over, for a callback waiter and a goroutine blocked in Acquire alike.
func TestQueuedAdmissionCountedAtHandOver(t *testing.T) {
	reg, flight := obs.NewRegistry(), obs.NewFlightRecorder(0)
	clock := timesim.NewClock()
	p := newTestPool(PoolConfig{Capacity: 1, QueueLimit: 2, Fleet: reg, Flight: flight, Time: clock})
	holder := admitOK(t, p, "holder")
	var cb *VM
	p.Admit(Request{Key: keyOf("cb"), ClientID: "cb", GPU: testCompat}, func(vm *VM, _ error) { cb = vm })
	clock.Advance(time.Millisecond)
	blocked := make(chan *VM)
	go func() { blocked <- mustAcquire(t, p, "goroutine") }()
	for deadline := time.Now().Add(5 * time.Second); p.Queued() != 2; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	queued := func() (n int64, waits []int64) {
		n = reg.Counter(obs.MFleetAdmissions, obs.L("outcome", "queued"))
		for _, e := range flight.Events() {
			if e.Kind == obs.FKAdmission && e.Note == "queued" {
				waits = append(waits, e.Args[0].Value)
			}
		}
		return n, waits
	}
	if n, waits := queued(); n != 0 || len(waits) != 0 {
		t.Fatalf("before any hand-over: %d queued admissions counted, %d journaled", n, len(waits))
	}
	clock.Advance(2 * time.Millisecond)
	p.Release(holder)
	clock.Advance(4 * time.Millisecond)
	p.Release(cb)
	p.Release(<-blocked)
	n, waits := queued()
	if n != 2 || fmt.Sprint(waits) != "[3000000 6000000]" {
		t.Fatalf("%d queued admissions counted, waits %v journaled; want 2, [3ms 6ms]", n, waits)
	}
	for _, f := range reg.Snapshot().Families {
		if f.Name == obs.MFleetAdmissionWait && (f.Series[0].Count != 2 || math.Abs(f.Series[0].Sum-0.009) > 1e-12) {
			t.Fatalf("wait histogram: %d observations summing %vs, want 2 summing 0.009s", f.Series[0].Count, f.Series[0].Sum)
		}
	}
}
