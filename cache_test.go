package gpurelay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpurelay/internal/cloud"
	"gpurelay/internal/obs"
	"gpurelay/internal/timesim"
)

// TestRecordCachedHitByteIdentity: the second client asking for the same
// (SKU, stack, workload, input shape) is served from the store — zero VM
// time, zero RecordStats, byte-identical bundle — and the cached artifact
// still audits.
func TestRecordCachedHitByteIdentity(t *testing.T) {
	svc := NewService()
	a := NewClient("phone-a", MaliG71MP8)
	b := NewClient("phone-b", MaliG71MP8)

	rec1, out1, stats1, err := a.RecordCached(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != CacheRecorded {
		t.Fatalf("first request outcome %q, want %q", out1, CacheRecorded)
	}
	if stats1.Jobs == 0 || stats1.RecordingDelay == 0 {
		t.Fatalf("leader reports empty stats: %+v", stats1)
	}

	rec2, out2, stats2, err := b.RecordCached(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != CacheHit {
		t.Fatalf("second request outcome %q, want %q", out2, CacheHit)
	}
	if stats2.Jobs != 0 || stats2.RecordingDelay != 0 || stats2.MemSyncBytes != 0 {
		t.Fatalf("cache hit carries record stats: %+v", stats2)
	}
	p1, m1, k1 := rec1.Bundle()
	p2, m2, k2 := rec2.Bundle()
	if !bytes.Equal(p1, p2) || !bytes.Equal(m1, m2) || !bytes.Equal(k1, k2) {
		t.Fatal("cache hit is not byte-identical to the recorded artifact")
	}
	if err := rec2.Audit(); err != nil {
		t.Fatalf("cached recording fails audit: %v", err)
	}

	// Zero VM time for the hit: the fleet hosted exactly one session.
	snap := svc.Metrics()
	if got := snap.Counter(obs.MFleetSessions); got != 1 {
		t.Fatalf("%d fleet sessions for 1 record + 1 hit", got)
	}
	if got := snap.Counter(obs.MCacheLookups, obs.L("result", "hit")); got != 1 {
		t.Fatalf("hit counter %d", got)
	}
	entries, _, keys := svc.CacheStats()
	if entries != 1 || keys != 1 {
		t.Fatalf("store holds %d entries over %d keys, want 1/1", entries, keys)
	}

	// The cached recording replays like a directly recorded one.
	sess, err := b.NewReplaySession(rec2)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 28*28)
	if err := sess.SetInput(in); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCachedCoalesces is the singleflight acceptance test: K
// concurrent identical requests produce exactly one record session, K
// byte-identical sealed results, and K−1 coalesce events.
func TestRecordCachedCoalesces(t *testing.T) {
	const K = 8
	svc := NewService()

	type reply struct {
		rec *Recording
		out CacheOutcome
	}
	replies := make(chan reply, K)
	runOne := func(id string) {
		c := NewClient(id, MaliG71MP8)
		rec, out, _, err := c.RecordCached(svc, MNIST(), RecordOptions{})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			replies <- reply{}
			return
		}
		replies <- reply{rec, out}
	}

	// The leader admits first; followers arrive while its session runs, so
	// they all coalesce onto the one flight.
	go runOne("leader")
	waitForActiveVM(t, svc)
	var wg sync.WaitGroup
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runOne("follower-" + string(rune('a'+i)))
		}(i)
	}
	wg.Wait()

	var recorded, coalesced int
	var ref *Recording
	for i := 0; i < K; i++ {
		r := <-replies
		if r.rec == nil {
			t.Fatal("a caller failed")
		}
		switch r.out {
		case CacheRecorded:
			recorded++
		case CacheCoalesced:
			coalesced++
		default:
			t.Fatalf("unexpected outcome %q", r.out)
		}
		if ref == nil {
			ref = r.rec
			continue
		}
		p0, m0, k0 := ref.Bundle()
		p, m, k := r.rec.Bundle()
		if !bytes.Equal(p0, p) || !bytes.Equal(m0, m) || !bytes.Equal(k0, k) {
			t.Fatal("coalesced callers received differing sealed results")
		}
	}
	if recorded != 1 || coalesced != K-1 {
		t.Fatalf("%d recorded / %d coalesced for %d callers, want 1/%d", recorded, coalesced, K, K-1)
	}

	snap := svc.Metrics()
	if got := snap.Counter(obs.MFleetSessions); got != 1 {
		t.Fatalf("%d fleet sessions for %d coalesced callers", got, K)
	}
	if got := snap.Counter(obs.MCacheFills); got != 1 {
		t.Fatalf("%d cache fills", got)
	}
	if got := snap.Counter(obs.MCacheCoalesced); got != K-1 {
		t.Fatalf("coalesce counter %d, want %d", got, K-1)
	}
	var coalesceEvents int
	for _, e := range svc.FlightEvents() {
		if e.Kind == obs.FKCacheCoalesce {
			coalesceEvents++
		}
	}
	if coalesceEvents != K-1 {
		t.Fatalf("%d coalesce flight events, want %d", coalesceEvents, K-1)
	}
}

// TestRecordCachedLeaderCancellationPromotes: the leader's client hangs up
// mid-record; a waiting follower must be promoted to lead a fresh session
// and still come away with a valid recording.
func TestRecordCachedLeaderCancellationPromotes(t *testing.T) {
	svc := NewService()
	leader := NewClient("doomed-leader", MaliG71MP8)
	follower := NewClient("heir", MaliG71MP8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := leader.RecordCachedContext(ctx, svc, MNIST(), RecordOptions{})
		leaderErr <- err
	}()
	waitForActiveVM(t, svc)

	type followRes struct {
		rec *Recording
		out CacheOutcome
		err error
	}
	followDone := make(chan followRes, 1)
	go func() {
		rec, out, _, err := follower.RecordCachedContext(context.Background(), svc, MNIST(), RecordOptions{})
		followDone <- followRes{rec, out, err}
	}()
	// Wait until the follower has registered its miss (it is attached, or
	// about to attach, to the doomed flight), then kill the leader.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var missed bool
		for _, e := range svc.FlightEvents() {
			if e.Kind == obs.FKCacheMiss && e.Session == follower.ID {
				missed = true
			}
		}
		if missed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()

	if err := <-leaderErr; err == nil {
		t.Fatal("canceled leader reported success")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: %v, want context.Canceled", err)
	}
	f := <-followDone
	if f.err != nil {
		t.Fatalf("promoted follower failed: %v", f.err)
	}
	// The follower either led the retry itself or — if it arrived after the
	// cancellation already unwound the flight — recorded fresh; both serve.
	if f.out != CacheRecorded {
		t.Fatalf("follower outcome %q, want %q", f.out, CacheRecorded)
	}
	if err := f.rec.Audit(); err != nil {
		t.Fatalf("follower's recording fails audit: %v", err)
	}
	if n := svc.ActiveVMs(); n != 0 {
		t.Fatalf("%d VMs still live", n)
	}
}

// TestQuarantinedCacheRegression is the poison interlock at the service
// surface: quarantining a cached recording purges it from the store, the
// next request misses and re-records, and — because the cache-derived
// session key and seed make the artifact deterministic — the re-recorded
// bytes carry the same poisoned fingerprint and are refused publication,
// so the service serves them uncached rather than re-caching poison.
func TestQuarantinedCacheRegression(t *testing.T) {
	svc := NewService()
	c := NewClient("phone-q", MaliG71MP8)
	// Pin the history per call so both record sessions run under identical
	// speculation state and reproduce the same bytes.
	opts := func() RecordOptions { return RecordOptions{History: NewSpeculationHistory()} }

	rec, out, _, err := c.RecordCached(svc, MNIST(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if out != CacheRecorded {
		t.Fatalf("outcome %q", out)
	}
	if entries, _, _ := svc.CacheStats(); entries != 1 {
		t.Fatalf("%d cached entries", entries)
	}

	q := svc.QuarantineRecording(rec, errors.New("operator poisoned"))
	if q.Fingerprint == "" {
		t.Fatal("quarantine entry has no fingerprint")
	}
	if entries, _, _ := svc.CacheStats(); entries != 0 {
		t.Fatal("poisoned entry still resident")
	}

	// The next request must miss (never serve the poison), re-record, and
	// be refused publication under the same fingerprint.
	rec2, out2, stats2, err := c.RecordCached(svc, MNIST(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if out2 != CacheRecorded {
		t.Fatalf("post-quarantine outcome %q, want a fresh record", out2)
	}
	if stats2.Jobs == 0 {
		t.Fatal("post-quarantine request did not actually record")
	}
	if err := rec2.Audit(); err != nil {
		t.Fatalf("re-recorded artifact fails audit: %v", err)
	}
	p1, m1, _ := rec.Bundle()
	p2, m2, _ := rec2.Bundle()
	if !bytes.Equal(p1, p2) || !bytes.Equal(m1, m2) {
		t.Fatal("deterministic re-record produced different bytes")
	}
	if entries, _, _ := svc.CacheStats(); entries != 0 {
		t.Fatal("poisoned fingerprint was re-cached")
	}
	snap := svc.Metrics()
	if got := snap.Counter(obs.MCacheRejects, obs.L("reason", "quarantined")); got < 1 {
		t.Fatalf("quarantine reject counter %d", got)
	}
}

// TestShardedServiceShedding: at every shard count, one included, a
// saturated partition rejects with the typed shedding error — carrying the
// shard and a retry-after hint — which wraps both ErrShedding and
// ErrCapacity. Every record entry point waits out the hint maxShedRetries
// times on the client's clock before it surfaces the rejection, and admits
// again once the partition drains.
func TestShardedServiceShedding(t *testing.T) {
	for _, ep := range recordEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					svc := NewServiceWith(ServiceConfig{Shards: shards, Capacity: 1, QueueLimit: -1})
					if svc.NumShards() != shards {
						t.Fatalf("%d shards, want %d", svc.NumShards(), shards)
					}
					release := holdShard(t, svc, MNIST())
					c := NewClient("shed-phone", MaliG71MP8)
					err := ep.record(c, svc)
					var shed *SheddingError
					if !errors.Is(err, ErrShedding) || !errors.As(err, &shed) || !errors.Is(err, ErrCapacity) {
						t.Fatalf("saturated shard: %v, want a *SheddingError that is also ErrCapacity", err)
					}
					if shed.Busy != 1 || shed.RetryAfter <= 0 {
						t.Fatalf("shed snapshot %+v", shed)
					}
					if n := svc.Metrics().Counter(obs.MShedRetries); n != maxShedRetries {
						t.Fatalf("%d shed retries, want %d", n, maxShedRetries)
					}
					if floor := time.Duration(maxShedRetries) * shed.RetryAfter; c.Elapsed() < floor {
						t.Fatalf("client clock advanced %v, want at least %d hints of %v",
							c.Elapsed(), maxShedRetries, shed.RetryAfter)
					}
					// Shedding is load signal, not failure: the drained
					// partition admits the same request.
					release()
					if err := ep.record(c, svc); err != nil {
						t.Fatalf("post-shed record: %v", err)
					}
				})
			}
		})
	}
}

// TestRecordCachedOnShardedService: the cache-first path and sharded
// admission compose — the leader records through its key's shard, and a
// later client on another shard-eligible key hits the shared store.
func TestRecordCachedOnShardedService(t *testing.T) {
	svc := NewServiceWith(ServiceConfig{Shards: 4})
	var sessions int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient("shard-phone-"+string(rune('a'+i)), MaliG71MP8)
			_, out, _, err := c.RecordCached(svc, MNIST(), RecordOptions{})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if out == CacheRecorded {
				atomic.AddInt64(&sessions, 1)
			}
		}(i)
	}
	wg.Wait()
	if sessions != 1 {
		t.Fatalf("%d record sessions for one workload on a sharded service", sessions)
	}
	c := NewClient("late-phone", MaliG71MP8)
	rec, out, _, err := c.RecordCached(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != CacheHit {
		t.Fatalf("late client outcome %q, want %q", out, CacheHit)
	}
	if err := rec.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestShedRetryHonorsHint pins the shed-aware admission retry: every wait
// lands at the shard's retry-after hint plus at most hint/8 of deterministic
// jitter on the client's virtual clock, the retries are counted, and the
// whole schedule is a pure function of the jitter seed.
func TestShedRetryHonorsHint(t *testing.T) {
	newShedService := func() (*Service, [32]byte, string, []byte) {
		svc := NewServiceWith(ServiceConfig{Shards: 2, Capacity: 1, QueueLimit: -1})
		key := svc.cacheKeyFor(MaliG71MP8, MNIST()).Hash()
		compat, err := NewClient("shed-probe", MaliG71MP8).compatible()
		if err != nil {
			t.Fatal(err)
		}
		nonce := []byte("shed-test-nonce!")
		// Saturate the key's shard: capacity 1, queueing disabled, so the
		// next acquire for this key sheds with a retry-after hint.
		if _, err := svc.pool.Acquire(context.Background(), nil, cloud.Request{Key: key, ClientID: "blocker", GPU: compat, Nonce: nonce}); err != nil {
			t.Fatalf("saturating the shard: %v", err)
		}
		return svc, key, compat, nonce
	}

	run := func(seed uint64) (time.Duration, int64) {
		svc, key, compat, nonce := newShedService()
		clock := timesim.NewClock()
		scope := NewScope("shed-retry")
		_, err := svc.pool.AcquireShedAware(context.Background(), clock, scope,
			seed, cloud.Request{Key: key, ClientID: "shed-client", GPU: compat, Nonce: nonce})
		var shed *SheddingError
		if !errors.As(err, &shed) {
			t.Fatalf("held shard: err = %v, want *SheddingError", err)
		}
		return clock.Now(), scope.Snapshot().Counter(obs.MShedRetries)
	}

	waited, retries := run(7)
	if retries != maxShedRetries {
		t.Fatalf("shed retries = %d, want %d", retries, maxShedRetries)
	}
	// Each retry waits hint + jitter with jitter in [0, hint/8]; with the
	// queue empty the hint is the shard's base (250ms), so the total for
	// maxShedRetries waits is bounded both ways.
	hint := 250 * time.Millisecond
	lo := time.Duration(maxShedRetries) * hint
	hi := time.Duration(maxShedRetries) * (hint + hint/8)
	if waited < lo || waited > hi {
		t.Fatalf("total shed wait %v outside [%v, %v]", waited, lo, hi)
	}

	// Deterministic: the same jitter seed reproduces the schedule exactly;
	// a different seed still lands in the hint window.
	again, _ := run(7)
	if again != waited {
		t.Fatalf("same seed waited %v then %v; jitter must be deterministic", waited, again)
	}
	other, _ := run(8)
	if other < lo || other > hi {
		t.Fatalf("seed 8 waited %v outside [%v, %v]", other, lo, hi)
	}

	// A free shard admits immediately: no retries, no virtual wait.
	svc := NewServiceWith(ServiceConfig{Shards: 2, Capacity: 1, QueueLimit: -1})
	key := svc.cacheKeyFor(MaliG71MP8, MNIST()).Hash()
	compat, err := NewClient("shed-free", MaliG71MP8).compatible()
	if err != nil {
		t.Fatal(err)
	}
	clock := timesim.NewClock()
	vm, err := svc.pool.AcquireShedAware(context.Background(), clock, nil, 7,
		cloud.Request{Key: key, ClientID: "free-client", GPU: compat, Nonce: []byte("shed-test-nonce!")})
	if err != nil {
		t.Fatalf("free shard: %v", err)
	}
	defer svc.pool.Release(vm)
	if clock.Now() != 0 {
		t.Fatalf("free shard advanced the clock by %v", clock.Now())
	}
}
