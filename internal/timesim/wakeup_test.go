package timesim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// engines builds one engine of each kind, by name.
func engines() map[string]Engine {
	return map[string]Engine{"serial": NewSerialEngine(), "parallel": NewParallelEngine()}
}

// TestWakeupResumesAtWakeTime: processes parked on a Wakeup and woken by
// another process resume at the waker's timestamp, in key order on the
// serial engine whatever order they were woken in.
func TestWakeupResumesAtWakeTime(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			wa, wc := NewWakeup(), NewWakeup()
			var mu sync.Mutex
			var order []string
			resumed := map[string]time.Duration{}
			parker := func(name string, w *Wakeup) func(Time) error {
				return func(tm Time) error {
					tm.Advance(2 * time.Millisecond)
					if err := w.Wait(context.Background(), tm); err != nil {
						return err
					}
					mu.Lock()
					defer mu.Unlock()
					order = append(order, name)
					resumed[name] = tm.Now()
					return nil
				}
			}
			e.Go(5, parker("a", wa))
			e.Go(7, parker("c", wc))
			e.Go(9, func(tm Time) error {
				tm.Advance(2 * time.Millisecond)
				wc.Wake()
				wa.Wake()
				return nil
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"a", "c"} {
				if resumed[p] != 2*time.Millisecond {
					t.Fatalf("process %s resumed at %v, want 2ms", p, resumed[p])
				}
			}
			if name == "serial" && strings.Join(order, "") != "ac" {
				t.Fatalf("resumed in order %v, want key order [a c]", order)
			}
		})
	}
}

// TestWakeupBeforeWait: a Wait after its Wake returns at once, scheduling
// nothing, for a process and for any other caller.
func TestWakeupBeforeWait(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			w := NewWakeup()
			w.Wake()
			e.Go(1, func(tm Time) error {
				tm.Advance(time.Millisecond)
				if err := w.Wait(context.Background(), tm); err != nil {
					return err
				}
				if tm.Now() != time.Millisecond {
					t.Errorf("process clock moved to %v across a woken Wait", tm.Now())
				}
				return nil
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if n := e.Events(); n != 2 {
				t.Fatalf("%d events, want the start and the one Advance", n)
			}
		})
	}
	w := NewWakeup()
	w.Wake()
	w.Wake()
	if err := w.Wait(context.Background(), NewClock()); err != nil {
		t.Fatal(err)
	}
}

// TestWakeupBlocksOtherCallers: a caller that is not an engine process
// blocks until Wake, or until its context ends and then returns the
// context's error.
func TestWakeupBlocksOtherCallers(t *testing.T) {
	w := NewWakeup()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := w.Wait(ctx, NewClock()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want the context's deadline", err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		w.Wake()
	}()
	if err := w.Wait(context.Background(), nil); err != nil {
		t.Fatalf("Wait after a late Wake = %v", err)
	}
}

// TestWakeupStall: when the event queue drains while a process is still
// parked, Run fails with an error naming the process, the process's Wait
// returns that error, and no goroutine is left behind.
func TestWakeupStall(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var waitErr error
			e.Go(42, func(tm Time) error {
				tm.Advance(time.Millisecond)
				waitErr = NewWakeup().Wait(context.Background(), tm)
				return nil
			})
			e.Go(7, func(tm Time) error {
				tm.Advance(3 * time.Millisecond)
				return nil
			})
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), "process 42") {
				t.Fatalf("Run = %v, want an error naming process 42", err)
			}
			if waitErr != err {
				t.Fatalf("Wait returned %v, Run %v", waitErr, err)
			}
			if e.Now() != 3*time.Millisecond {
				t.Fatalf("engine ended at %v, want 3ms", e.Now())
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left, %d before the run", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestWakeupSetsClockFromEngine: a process woken by an engine event reads
// the event's timestamp from the engine on resuming; nothing is carried
// over from the waker.
func TestWakeupSetsClockFromEngine(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			w := NewWakeup()
			var after, later time.Duration
			e.Go(1, func(tm Time) error {
				tm.Advance(time.Millisecond)
				if err := w.Wait(context.Background(), tm); err != nil {
					return err
				}
				after = tm.Now()
				later = tm.Advance(time.Millisecond)
				return nil
			})
			e.Schedule(5*time.Millisecond, 0, func() error {
				w.Wake()
				return nil
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if after != 5*time.Millisecond || later != 6*time.Millisecond {
				t.Fatalf("woken at %v, advanced to %v; want 5ms, 6ms", after, later)
			}
		})
	}
}
