package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpurelay/internal/timesim"
)

func TestTransferTime(t *testing.T) {
	// 80 Mbps = 10 MB/s, so 1 MB takes 100 ms.
	got := WiFi.TransferTime(1_000_000)
	if got != 100*time.Millisecond {
		t.Fatalf("WiFi transfer of 1MB = %v, want 100ms", got)
	}
	if got := Cellular.TransferTime(0); got != 0 {
		t.Fatalf("zero payload transfer = %v, want 0", got)
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative payload did not panic")
		}
	}()
	WiFi.TransferTime(-1)
}

func TestRoundTripAdvancesClock(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	l.RoundTrip(200, 400) // 600 bytes at 10MB/s = 60us
	want := 20*time.Millisecond + 60*time.Microsecond
	if got := clock.Now(); got != want {
		t.Fatalf("clock after round trip = %v, want %v", got, want)
	}
	s := l.Stats()
	if s.BlockingRTTs != 1 || s.AsyncRTTs != 0 {
		t.Fatalf("stats = %+v, want 1 blocking RTT", s)
	}
	if s.BytesSent != 200 || s.BytesReceived != 400 {
		t.Fatalf("byte counters = %+v", s)
	}
}

func TestAsyncRoundTripDoesNotBlock(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(Cellular, clock)
	completion := l.AsyncRoundTrip(1000, 1000)
	if got := clock.Now(); got != 0 {
		t.Fatalf("async round trip advanced clock to %v", got)
	}
	if completion <= 50*time.Millisecond {
		t.Fatalf("completion %v too early, want > RTT", completion)
	}
	if s := l.Stats(); s.AsyncRTTs != 1 || s.BlockingRTTs != 0 {
		t.Fatalf("stats = %+v, want 1 async RTT", s)
	}
}

func TestWaitUntil(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	completion := l.AsyncRoundTrip(0, 0)
	// Driver does 5ms of work, then must validate: stalls for the rest.
	clock.Advance(5 * time.Millisecond)
	stall := l.WaitUntil(completion)
	if want := 15 * time.Millisecond; stall != want {
		t.Fatalf("stall = %v, want %v", stall, want)
	}
	// Waiting again for a past deadline is free.
	if stall := l.WaitUntil(completion); stall != 0 {
		t.Fatalf("second wait stalled %v, want 0", stall)
	}
}

func TestWaitUntilFullyHidden(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	completion := l.AsyncRoundTrip(0, 0)
	clock.Advance(time.Second) // plenty of overlapping work
	if stall := l.WaitUntil(completion); stall != 0 {
		t.Fatalf("stall = %v, want 0 for fully hidden RTT", stall)
	}
}

func TestOneWay(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	l.OneWay(1_000_000)
	want := 10*time.Millisecond + 100*time.Millisecond
	if got := clock.Now(); got != want {
		t.Fatalf("one-way = %v, want %v", got, want)
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{BlockingRTTs: 3, AsyncRTTs: 4, BytesSent: 10, BytesReceived: 20}
	if s.TotalRTTs() != 7 {
		t.Fatalf("TotalRTTs = %d, want 7", s.TotalRTTs())
	}
	if s.TotalBytes() != 30 {
		t.Fatalf("TotalBytes = %d, want 30", s.TotalBytes())
	}
}

func TestCellularSlowerThanWiFi(t *testing.T) {
	// Sanity: same exchange must take strictly longer on cellular.
	run := func(cond Condition) time.Duration {
		clock := timesim.NewClock()
		l := NewLink(cond, clock)
		for i := 0; i < 10; i++ {
			l.RoundTrip(300, 300)
		}
		return clock.Now()
	}
	if w, c := run(WiFi), run(Cellular); c <= w {
		t.Fatalf("cellular (%v) not slower than wifi (%v)", c, w)
	}
}

func TestJitterBounds(t *testing.T) {
	cond := Condition{Name: "jittery", RTT: 20 * time.Millisecond,
		Bandwidth: 80_000_000, Jitter: 10 * time.Millisecond}
	clock := timesim.NewClock()
	l := NewLink(cond, clock)
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 50; i++ {
		before := clock.Now()
		l.RoundTrip(0, 0)
		d := clock.Now() - before
		if d < cond.RTT || d >= cond.RTT+cond.Jitter {
			t.Fatalf("round trip %v outside [RTT, RTT+jitter)", d)
		}
		if prev >= 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter produced constant delays")
	}
}

func TestLossCostsRetransmits(t *testing.T) {
	lossy := Condition{Name: "lossy", RTT: 20 * time.Millisecond,
		Bandwidth: 80_000_000, LossPct: 20}
	clean := Condition{Name: "clean", RTT: 20 * time.Millisecond, Bandwidth: 80_000_000}
	run := func(cond Condition) (time.Duration, Stats) {
		clock := timesim.NewClock()
		l := NewLink(cond, clock)
		for i := 0; i < 200; i++ {
			l.RoundTrip(100, 100)
		}
		return clock.Now(), l.Stats()
	}
	lossyT, lossyS := run(lossy)
	cleanT, cleanS := run(clean)
	if lossyS.Retransmits == 0 {
		t.Fatal("20% loss produced no retransmits")
	}
	if cleanS.Retransmits != 0 {
		t.Fatal("lossless link retransmitted")
	}
	if lossyT <= cleanT {
		t.Fatalf("loss did not slow the link: %v vs %v", lossyT, cleanT)
	}
	// Expected ~40 retransmits of 200 exchanges at 20%.
	if lossyS.Retransmits < 15 || lossyS.Retransmits > 80 {
		t.Fatalf("retransmits = %d, want ~40", lossyS.Retransmits)
	}
}

func TestLossDeterministicPerCondition(t *testing.T) {
	cond := Condition{Name: "repro", RTT: time.Millisecond, Bandwidth: 1e9, LossPct: 10, Jitter: time.Millisecond}
	run := func() time.Duration {
		clock := timesim.NewClock()
		l := NewLink(cond, clock)
		for i := 0; i < 100; i++ {
			l.RoundTrip(10, 10)
		}
		return clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same condition produced different timelines: %v vs %v", a, b)
	}
}

func TestLinkContextCancellationAbortsBlockingOps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	l.Bind(ctx)
	l.RoundTrip(100, 100) // live context: exchanges proceed
	before := clock.Now()
	cancel()

	expectCanceled := func(name string, op func()) {
		defer func() {
			r := recover()
			c, ok := r.(Canceled)
			if !ok {
				t.Fatalf("%s after cancel: recovered %v, want Canceled", name, r)
			}
			if !errors.Is(c, context.Canceled) {
				t.Fatalf("%s: %v does not unwrap to context.Canceled", name, c)
			}
		}()
		op()
		t.Fatalf("%s completed on a canceled link", name)
	}
	expectCanceled("RoundTrip", func() { l.RoundTrip(1, 1) })
	expectCanceled("AsyncRoundTrip", func() { l.AsyncRoundTrip(1, 1) })
	expectCanceled("WaitUntil", func() { l.WaitUntil(clock.Now() + time.Second) })
	expectCanceled("OneWay", func() { l.OneWay(1) })
	if clock.Now() != before {
		t.Fatalf("canceled operations advanced the clock: %v -> %v", before, clock.Now())
	}
}

func TestLinkWithoutContextNeverCancels(t *testing.T) {
	clock := timesim.NewClock()
	l := NewLink(WiFi, clock)
	l.RoundTrip(1, 1)
	l.OneWay(1)
	if l.Stats().BlockingRTTs != 1 {
		t.Fatalf("stats: %+v", l.Stats())
	}
}
