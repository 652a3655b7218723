package cloud

import (
	"context"
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

const (
	testImage  = "grt-bifrost"
	testCompat = "arm,mali-g71-mp8"
)

func newTestManager(cfg SessionConfig) *SessionManager {
	return NewSessionManager(NewService(DefaultImage()), cfg)
}

func mustAcquire(t *testing.T, m *SessionManager, client string) *VM {
	t.Helper()
	vm, err := m.Acquire(context.Background(), client, testImage, testCompat, []byte("n"))
	if err != nil {
		t.Fatalf("acquire for %s: %v", client, err)
	}
	return vm
}

func TestSessionManagerCapacityAndQueueLimit(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 2, QueueLimit: -1})
	vm1 := mustAcquire(t, m, "c1")
	vm2 := mustAcquire(t, m, "c2")
	if m.ActiveVMs() != 2 {
		t.Fatalf("active = %d", m.ActiveVMs())
	}
	// Pool full, no queue: immediate ErrCapacity.
	_, err := m.Acquire(context.Background(), "c3", testImage, testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("saturated acquire: %v", err)
	}
	m.Release(vm1)
	m.Release(vm2)
	if m.ActiveVMs() != 0 {
		t.Fatalf("active after release = %d", m.ActiveVMs())
	}
	mustAcquire(t, m, "c3")
}

func TestSessionManagerQueueIsFIFO(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: 8})
	holder := mustAcquire(t, m, "holder")

	// Queue three waiters in a known order; gate each goroutine's start so
	// the enqueue order is deterministic.
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vm := mustAcquire(t, m, fmt.Sprintf("w%d", i))
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.Release(vm)
		}(i)
		// Wait until this goroutine is queued before starting the next.
		for deadline := time.Now().Add(5 * time.Second); m.Queued() != i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (queued=%d)", i, m.Queued())
			}
			time.Sleep(time.Millisecond)
		}
	}
	m.Release(holder)
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order %v, want [0 1 2]", order)
	}
	if m.ActiveVMs() != 0 || m.Queued() != 0 {
		t.Fatalf("end state: active=%d queued=%d", m.ActiveVMs(), m.Queued())
	}
}

func TestSessionManagerQueueOverflowFailsFast(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: 1})
	holder := mustAcquire(t, m, "holder")
	defer m.Release(holder)

	// First waiter occupies the queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx, "queued", testImage, testCompat, []byte("n"))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); m.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second waiter overflows the queue.
	_, err := m.Acquire(context.Background(), "overflow", testImage, testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("overflow acquire: %v", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire after cancel: %v", err)
	}
	if m.Queued() != 0 {
		t.Fatalf("queued = %d after cancellation", m.Queued())
	}
}

func TestSessionManagerCanceledWaiterDoesNotLeakSlot(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: 4})
	holder := mustAcquire(t, m, "holder")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx, "canceled", testImage, testCompat, []byte("n"))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); m.Queued() != 1; {
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
	m.Release(holder)
	vm := mustAcquire(t, m, "after")
	m.Release(vm)
	if m.ActiveVMs() != 0 {
		t.Fatalf("active = %d", m.ActiveVMs())
	}
}

func TestSessionManagerPerClientLimit(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 4, QueueLimit: -1})
	vm1 := mustAcquire(t, m, "phone")
	_, err := m.Acquire(context.Background(), "phone", testImage, testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrSessionLimit) {
		t.Fatalf("second session for one client: %v", err)
	}
	// The rejected admission must not leak its pool slot.
	vm2 := mustAcquire(t, m, "other-1")
	vm3 := mustAcquire(t, m, "other-2")
	vm4 := mustAcquire(t, m, "other-3")
	for _, vm := range []*VM{vm1, vm2, vm3, vm4} {
		m.Release(vm)
	}
	if m.ActiveVMs() != 0 {
		t.Fatalf("active = %d", m.ActiveVMs())
	}
}

func TestSessionManagerDoubleReleaseIsNoop(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: -1})
	vm := mustAcquire(t, m, "c")
	m.Release(vm)
	m.Release(vm) // must not free a second slot
	vm2 := mustAcquire(t, m, "c")
	_, err := m.Acquire(context.Background(), "d", testImage, testCompat, []byte("n"))
	if !errors.Is(err, grterr.ErrCapacity) {
		t.Fatalf("capacity after double release drifted: %v", err)
	}
	m.Release(vm2)
}

func TestSessionManagerSKUMismatchSentinel(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: -1})
	_, err := m.Acquire(context.Background(), "c", testImage, "nvidia,gtx-4090", []byte("n"))
	if !errors.Is(err, grterr.ErrSKUMismatch) {
		t.Fatalf("unsupported GPU: %v", err)
	}
	// The failed launch returned its slot.
	vm := mustAcquire(t, m, "c")
	m.Release(vm)
}

// tickSource is a time source that moves forward by one millisecond on
// every read, the way the wall clock moves between two reads.
type tickSource struct{ ticks atomic.Int64 }

func (s *tickSource) Now() time.Duration { return time.Duration(s.ticks.Add(1)) * time.Millisecond }

// TestSessionManagerQueuedWaitReadOnce: a queued admission's wait is read
// once, so the wait histogram and the flight journal report the same wait
// even on a clock that moves between reads.
func TestSessionManagerQueuedWaitReadOnce(t *testing.T) {
	m := newTestManager(SessionConfig{Capacity: 1, QueueLimit: 1})
	reg := obs.NewRegistry()
	m.InstrumentShard(reg)
	flight := obs.NewFlightRecorder(0)
	m.InstrumentFlight(flight)
	m.SetTimeSource(&tickSource{})
	holder := mustAcquire(t, m, "holder")
	admitted := make(chan *VM, 1)
	go func() {
		vm, err := m.Acquire(context.Background(), "waiter", testImage, testCompat, []byte("n"))
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		admitted <- vm
	}()
	for deadline := time.Now().Add(5 * time.Second); m.Queued() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	m.Release(holder)
	m.Release(<-admitted)

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
