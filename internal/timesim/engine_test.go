package timesim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSerialEngineOrdering(t *testing.T) {
	e := NewSerialEngine()
	var order []string
	post := func(at time.Duration, key uint64, name string) {
		e.Schedule(at, key, func() error {
			order = append(order, name)
			if got := e.Now(); got != at {
				t.Errorf("event %s ran at engine time %v, want %v", name, got, at)
			}
			return nil
		})
	}
	post(3*time.Millisecond, 1, "c")
	post(time.Millisecond, 2, "b")
	post(time.Millisecond, 1, "a")
	post(5*time.Millisecond, 0, "d")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcd" {
		t.Fatalf("execution order %q, want abcd (time-major, key-minor)", got)
	}
	if got := e.Events(); got != 4 {
		t.Fatalf("Events() = %d, want 4", got)
	}
}

func TestEngineEventsCascade(t *testing.T) {
	// Events scheduled by a running handler (same or later timestamp)
	// execute in the same Run.
	e := NewSerialEngine()
	var fired []time.Duration
	var chain func() error
	chain = func() error {
		now := e.Now()
		fired = append(fired, now)
		if now < 3*time.Millisecond {
			e.Schedule(now+time.Millisecond, 0, chain)
		}
		return nil
	}
	e.Schedule(0, 0, chain)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("cascade fired %d times, want 4 (%v)", len(fired), fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewSerialEngine()
	e.Schedule(time.Millisecond, 0, func() error {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(0, 0, func() error { return nil })
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineErrorPropagates(t *testing.T) {
	e := NewSerialEngine()
	boom := errors.New("boom")
	e.Schedule(0, 0, func() error { return boom })
	e.Schedule(time.Millisecond, 0, func() error { return nil })
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
}

// procTimeline drives a process through a fixed delay schedule and returns
// a digest of every Now value it observed — the determinism witness.
func procTimeline(tm Time, delays []time.Duration) [32]byte {
	h := sha256.New()
	var buf [8]byte
	note := func() {
		binary.LittleEndian.PutUint64(buf[:], uint64(tm.Now()))
		h.Write(buf[:])
	}
	note()
	for _, d := range delays {
		tm.Advance(d)
		note()
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func fleetDelays(i int) []time.Duration {
	// Deterministic per-process schedules with plenty of timestamp
	// collisions across processes (same base step).
	delays := make([]time.Duration, 200)
	for j := range delays {
		delays[j] = time.Duration(1+(i+j)%3) * time.Millisecond
	}
	return delays
}

func runProcFleet(e Engine, n int) ([][32]byte, error) {
	sums := make([][32]byte, n)
	for i := 0; i < n; i++ {
		i := i
		e.Go(uint64(i), func(tm Time) error {
			sums[i] = procTimeline(tm, fleetDelays(i))
			return nil
		})
	}
	err := e.Run()
	return sums, err
}

func TestProcessClockMatchesPlainClock(t *testing.T) {
	// A process's observed timeline must be exactly what a private Clock
	// would have given it, regardless of the other processes sharing the
	// engine.
	want := make([][32]byte, 4)
	for i := range want {
		want[i] = procTimeline(NewClock(), fleetDelays(i))
	}
	for _, mk := range []struct {
		name string
		eng  func() Engine
	}{
		{"serial", func() Engine { return NewSerialEngine() }},
		{"parallel", func() Engine { return NewParallelEngine() }},
	} {
		got, err := runProcFleet(mk.eng(), 4)
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: process %d timeline diverges from a private Clock", mk.name, i)
			}
		}
	}
}

func TestParallelEngineDeterminism(t *testing.T) {
	serial, err := runProcFleet(NewSerialEngine(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			par, err := runProcFleet(NewParallelEngine(), 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: process %d diverged from serial engine",
						procs, rep, i)
				}
			}
		}
	}
}

func TestProcessErrorAndPanic(t *testing.T) {
	e := NewParallelEngine()
	boom := errors.New("session failed")
	e.Go(1, func(tm Time) error {
		tm.Advance(time.Millisecond)
		return boom
	})
	e.Go(2, func(tm Time) error {
		tm.Advance(2 * time.Millisecond)
		return nil
	})
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want session error", err)
	}

	e2 := NewSerialEngine()
	e2.Go(1, func(tm Time) error { panic("kaboom") })
	err := e2.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("process panic not converted to engine error: %v", err)
	}
}

func TestProcessAdvanceToAndNegatives(t *testing.T) {
	e := NewSerialEngine()
	e.Go(1, func(tm Time) error {
		tm.Advance(10 * time.Millisecond)
		if got := tm.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
			return fmt.Errorf("AdvanceTo(past) = %v, want 10ms", got)
		}
		if got := tm.AdvanceTo(30 * time.Millisecond); got != 30*time.Millisecond {
			return fmt.Errorf("AdvanceTo(future) = %v, want 30ms", got)
		}
		func() {
			defer func() {
				if recover() == nil {
					panic("negative AdvanceTo did not panic")
				}
			}()
			tm.AdvanceTo(-time.Nanosecond)
		}()
		func() {
			defer func() {
				if recover() == nil {
					panic("negative Advance did not panic")
				}
			}()
			tm.Advance(-time.Nanosecond)
		}()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClockAdvanceToNegativePanicsWithOwner(t *testing.T) {
	c := NewClock()
	c.SetOwner("netsim.Link")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("negative AdvanceTo did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "netsim.Link") {
			t.Fatalf("panic %q does not name the offending component", msg)
		}
		if !strings.Contains(msg, "before the timeline origin") {
			t.Fatalf("panic %q does not explain the monotonicity violation", msg)
		}
	}()
	c.AdvanceTo(-time.Millisecond)
}

func TestClockAdvanceNegativeNamesOwner(t *testing.T) {
	c := NewClock()
	c.SetOwner("mali.GPU")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("negative Advance did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "mali.GPU") {
			t.Fatalf("panic %q does not name the offending component", r)
		}
	}()
	c.Advance(-time.Nanosecond)
}
