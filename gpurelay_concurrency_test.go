package gpurelay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitForActiveVM polls until the service holds at least one live VM —
// i.e. a concurrently launched record session is past admission and mid
// recording. Record runs take hundreds of milliseconds of real time, so a
// millisecond poll has ample margin.
func waitForActiveVM(t *testing.T, svc *Service) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); svc.ActiveVMs() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no record session became active")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentRecordSharedWarmHistory is the headline concurrency test: 8
// clients record the same model in parallel against one service with a
// pool of 4 VMs. All must complete (the surplus queues for a slot), and
// every one of them must benefit from the speculation history the cold
// first session left in the service's shared store — strictly fewer
// blocking round trips than the cold run.
func TestConcurrentRecordSharedWarmHistory(t *testing.T) {
	svc := NewServiceWith(ServiceConfig{Capacity: 4, QueueLimit: 16})

	cold := NewClient("cold-phone", MaliG71MP8)
	_, coldStats, err := cold.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	warm := make([]RecordStats, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := NewClient(fmt.Sprintf("warm-phone-%d", i), MaliG71MP8)
			rec, stats, err := client.Record(svc, MNIST(), RecordOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			warm[i] = stats
			// Each recording must still replay on its own device.
			sess, err := client.NewReplaySession(rec)
			if err != nil {
				errs[i] = err
				return
			}
			if err := sess.SetInput(make([]float32, 28*28)); err != nil {
				errs[i] = err
				return
			}
			if _, err := sess.Run(); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("leaked VMs: ActiveVMs() = %d", n)
	}
	if n := svc.QueuedSessions(); n != 0 {
		t.Fatalf("leaked admissions: QueuedSessions() = %d", n)
	}
	for i, w := range warm {
		if w.Link.BlockingRTTs >= coldStats.Link.BlockingRTTs {
			t.Fatalf("session %d did not reuse warm history: %d blocking RTTs, cold run had %d",
				i, w.Link.BlockingRTTs, coldStats.Link.BlockingRTTs)
		}
		if w.Shim.AsyncCommits <= coldStats.Shim.AsyncCommits {
			t.Fatalf("session %d speculated %d commits, cold run %d",
				i, w.Shim.AsyncCommits, coldStats.Shim.AsyncCommits)
		}
	}
}

// TestRecordErrCapacity saturates a pool of one VM with no admission queue:
// while one session is mid-recording, a second admission must fail with
// ErrCapacity once it has waited out the partition's shed hints.
func TestRecordErrCapacity(t *testing.T) {
	svc := NewServiceWith(ServiceConfig{Capacity: 1, QueueLimit: -1})
	holder := NewClient("holder", MaliG71MP8)
	done := make(chan error, 1)
	go func() {
		_, _, err := holder.Record(svc, AlexNet(), RecordOptions{})
		done <- err
	}()
	waitForActiveVM(t, svc)

	other := NewClient("other", MaliG71MP8)
	_, _, err := other.Record(svc, MNIST(), RecordOptions{})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("saturated record: %v, want ErrCapacity", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("holder session: %v", err)
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("ActiveVMs() = %d after sessions ended", n)
	}
}

// TestRecordErrSessionLimit: one client may hold only one concurrent
// session, even when the pool has room, and across partitions: at two
// shards AlexNet and MNIST land on different partitions.
func TestRecordErrSessionLimit(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := NewServiceWith(ServiceConfig{Capacity: 4, QueueLimit: -1, Shards: shards})
			shardOf := func(m *Model) int { return svc.pool.Shard(svc.cacheKeyFor(MaliG71MP8, m).Hash()) }
			if cross := shardOf(AlexNet()) != shardOf(MNIST()); cross != (shards > 1) {
				t.Fatalf("AlexNet and MNIST on different partitions: %v at %d shard(s)", cross, shards)
			}
			client := NewClient("busy-phone", MaliG71MP8)
			done := make(chan error, 1)
			go func() {
				_, _, err := client.Record(svc, AlexNet(), RecordOptions{})
				done <- err
			}()
			waitForActiveVM(t, svc)

			_, _, err := client.Record(svc, MNIST(), RecordOptions{})
			if !errors.Is(err, ErrSessionLimit) {
				t.Fatalf("second session for one client: %v, want ErrSessionLimit", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("first session: %v", err)
			}
		})
	}
}

// TestRecordContextCancellation cancels a record session mid-flight: the
// call must return promptly with an error wrapping context.Canceled, and
// the session's VM must be released.
func TestRecordContextCancellation(t *testing.T) {
	svc := NewService()
	client := NewClient("cancel-phone", MaliG71MP8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := client.RecordContext(ctx, svc, AlexNet(), RecordOptions{})
		done <- err
	}()
	waitForActiveVM(t, svc)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled record: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("record did not return after cancellation")
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("canceled session leaked its VM: ActiveVMs() = %d", n)
	}
}

// TestRecordContextDeadline: a deadline shorter than the session aborts it
// with context.DeadlineExceeded and no leaked VM.
func TestRecordContextDeadline(t *testing.T) {
	svc := NewService()
	client := NewClient("deadline-phone", MaliG71MP8)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := client.RecordContext(ctx, svc, AlexNet(), RecordOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined record: %v, want context.DeadlineExceeded", err)
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("deadlined session leaked its VM: ActiveVMs() = %d", n)
	}
}

// TestRecordContextPreCanceled: an already-dead context never launches a VM.
func TestRecordContextPreCanceled(t *testing.T) {
	svc := NewService()
	client := NewClient("dead-phone", MaliG71MP8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := client.RecordContext(ctx, svc, MNIST(), RecordOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled record: %v", err)
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("ActiveVMs() = %d", n)
	}
}

// TestHistoryOverrideStaysIsolated: an explicit RecordOptions.History must
// bypass the shared store (the §7.3 ablation contract) — a cold explicit
// history on a warm service still records cold.
func TestHistoryOverrideStaysIsolated(t *testing.T) {
	svc := NewService()
	client := NewClient("ablation-phone", MaliG71MP8)
	// Warm the service's shared store.
	if _, _, err := client.Record(svc, MNIST(), RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	_, sharedWarm, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, coldOverride, err := client.Record(svc, MNIST(), RecordOptions{History: NewSpeculationHistory()})
	if err != nil {
		t.Fatal(err)
	}
	if coldOverride.Shim.AsyncCommits >= sharedWarm.Shim.AsyncCommits {
		t.Fatalf("explicit cold history speculated %d commits, shared warm store %d — override not isolated",
			coldOverride.Shim.AsyncCommits, sharedWarm.Shim.AsyncCommits)
	}
}

// TestSentinelErrors covers errors.Is across the layers: verification
// failures on bundles and cross-SKU replay rejection.
func TestSentinelErrors(t *testing.T) {
	client := NewClient("sentinel-phone", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	payload, mac, key := rec.Bundle()
	if _, err := RecordingFromBundle(payload, mac[:16], key); !errors.Is(err, ErrBadRecording) {
		t.Fatalf("short MAC: %v, want ErrBadRecording", err)
	}
	tampered := append([]byte(nil), payload...)
	tampered[len(tampered)/2] ^= 0xFF
	if _, err := RecordingFromBundle(tampered, mac, key); !errors.Is(err, ErrBadRecording) {
		t.Fatalf("tampered payload: %v, want ErrBadRecording", err)
	}
	if _, err := RecordingFromBundle(payload, mac, []byte("wrong-key-0123456789abcdef012345")); !errors.Is(err, ErrBadRecording) {
		t.Fatalf("wrong key: %v, want ErrBadRecording", err)
	}

	other := NewClient("sentinel-g52", MaliG52MP2)
	if _, err := other.NewReplaySession(rec); !errors.Is(err, ErrSKUMismatch) {
		t.Fatalf("cross-SKU replay: %v, want ErrSKUMismatch", err)
	}
}
