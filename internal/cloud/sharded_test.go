package cloud

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"gpurelay/internal/grterr"
	"gpurelay/internal/obs"
)

func keyOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func TestShardedRingDeterministicAndCovering(t *testing.T) {
	a := NewShardedService(DefaultImage(), ShardedConfig{Shards: 4})
	b := NewShardedService(DefaultImage(), ShardedConfig{Shards: 4})
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
}

func TestShardedSameKeySameShard(t *testing.T) {
	s := NewShardedService(DefaultImage(), ShardedConfig{Shards: 8})
	k := keyOf("MNIST")
	want := s.Shard(k)
	for i := 0; i < 100; i++ {
		if got := s.Shard(k); got != want {
			t.Fatalf("shard for the same key moved: %d then %d", want, got)
		}
	}
}

func TestShardedAcquireReleaseRouting(t *testing.T) {
	s := NewShardedService(DefaultImage(), ShardedConfig{
		Shards: 2,
		Shard:  SessionConfig{Capacity: 1, QueueLimit: -1},
	})
	if s.TotalCapacity() != 2 || s.NumShards() != 2 {
		t.Fatalf("capacity %d over %d shards", s.TotalCapacity(), s.NumShards())
	}
	// Find keys landing on each shard.
	keys := map[int][32]byte{}
	for i := 0; len(keys) < 2; i++ {
		k := keyOf(fmt.Sprintf("k%d", i))
		keys[s.Shard(k)] = k
	}
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
	s := NewShardedService(DefaultImage(), ShardedConfig{
		Shards: 1,
		Shard:  SessionConfig{Capacity: 1, QueueLimit: -1},
	})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	flight := obs.NewFlightRecorder(0)
	s.InstrumentFlight(flight)

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
	s := NewShardedService(DefaultImage(), ShardedConfig{Shards: 2})
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
	s := NewShardedService(DefaultImage(), ShardedConfig{
		Shards: 2,
		Shard:  SessionConfig{Capacity: 2},
	})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	keys := map[int][32]byte{}
	for i := 0; len(keys) < 2; i++ {
		k := keyOf(fmt.Sprintf("g%d", i))
		keys[s.Shard(k)] = k
	}
	var vms []*VM
	for shard, k := range keys {
		vm, err := s.Acquire(context.Background(), k, fmt.Sprintf("c%d", shard), testCompat, []byte("n"))
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		_ = shard
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
