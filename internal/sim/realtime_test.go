package sim

import (
	"context"
	"math"
	"testing"
	"time"
)

// closeWhenDone polls cond by injecting probe events — each probe runs
// on the engine goroutine, so cond may read engine state without
// synchronization — and closes inject once cond holds (ending
// RunRealtime). A fixed sleep here would race the engine on a slow CI
// machine; polling with a generous deadline cannot.
func closeWhenDone(t *testing.T, inject chan Event, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := make(chan bool, 1)
		inject <- func(time.Duration) { ok <- cond() }
		if <-ok {
			close(inject)
			return
		}
		if time.Now().After(deadline) {
			close(inject)
			t.Error("condition not reached before deadline")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunRealtimeDispatchesAtWallPace(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, at := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		at := at
		e.MustScheduleAt(at, func(now time.Duration) { fired = append(fired, now) })
	}
	inject := make(chan Event)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	// fired is written by engine events and read by probes that also run
	// on the engine goroutine, so the poll is race-free.
	go closeWhenDone(t, inject, func() bool { return len(fired) == 2 })
	if err := e.RunRealtime(ctx, inject, 1); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != 10*time.Millisecond || fired[1] != 30*time.Millisecond {
		t.Fatalf("virtual fire times %v", fired)
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("returned after %v; events cannot have fired at wall pace", elapsed)
	}
}

func TestRunRealtimeInjection(t *testing.T) {
	e := New()
	inject := make(chan Event)
	got := make(chan time.Duration, 1)
	go func() {
		inject <- func(now time.Duration) {
			got <- now
			// Injected code can schedule engine events.
			e.MustScheduleAfter(time.Millisecond, func(time.Duration) {})
		}
		closeWhenDone(t, inject, func() bool { return e.Fired() == 1 })
	}()
	if err := e.RunRealtime(context.Background(), inject, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case now := <-got:
		if now < 0 {
			t.Fatalf("injected at negative virtual time %v", now)
		}
	default:
		t.Fatal("injection never ran")
	}
	if e.Fired() != 1 {
		t.Fatalf("scheduled-from-injection event fired %d times, want 1", e.Fired())
	}
}

func TestRunRealtimeCancellation(t *testing.T) {
	e := New()
	e.MustScheduleAt(time.Hour, func(time.Duration) { t.Error("distant event fired") })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunRealtime(ctx, make(chan Event), 1)
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation not prompt")
	}
}

func TestRunRealtimeReentrantPanics(t *testing.T) {
	e := New()
	// Unbuffered send then close: the reentrant probe is delivered and
	// run before the closed channel ends the loop — no sleep needed.
	inject := make(chan Event)
	go func() {
		inject <- func(time.Duration) {
			defer func() {
				if recover() == nil {
					t.Error("reentrant RunRealtime did not panic")
				}
			}()
			_ = e.RunRealtime(context.Background(), nil, 1)
		}
		close(inject)
	}()
	if err := e.RunRealtime(context.Background(), inject, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunRealtimePacingFactor(t *testing.T) {
	// Half speed: an event 20 ms into virtual time cannot fire before
	// 40 ms of wall time have passed.
	e := New()
	var firedAt time.Duration
	e.MustScheduleAt(20*time.Millisecond, func(now time.Duration) {
		firedAt = now
		e.Stop()
	})
	start := time.Now()
	if err := e.RunRealtime(context.Background(), nil, 0.5); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("half-speed run returned after %v, want >= 40ms", elapsed)
	}
	if firedAt != 20*time.Millisecond || e.Now() != 20*time.Millisecond {
		t.Fatalf("fired at %v, clock %v; want both 20ms", firedAt, e.Now())
	}

	// Ten thousand times real time: ten virtual minutes take 60 ms of
	// wall time, so even a slow machine finishes far inside them.
	e = New()
	e.MustScheduleAt(10*time.Minute, func(time.Duration) { e.Stop() })
	start = time.Now()
	if err := e.RunRealtime(context.Background(), nil, 10000); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("10000x run took %v of wall time for 10 virtual minutes", elapsed)
	}
}

func TestRunRealtimeRejectsBadSpeed(t *testing.T) {
	for _, speed := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := New().RunRealtime(context.Background(), nil, speed); err == nil {
			t.Errorf("speed %v accepted", speed)
		}
	}
}

func TestRunRealtimeStop(t *testing.T) {
	// The event at 2 ms stops the run: its same-instant successor and
	// the later event stay queued, and the clock stays at 2 ms.
	e := New()
	var fired []int
	e.MustScheduleAt(time.Millisecond, func(time.Duration) { fired = append(fired, 1) })
	e.MustScheduleAt(2*time.Millisecond, func(time.Duration) {
		fired = append(fired, 2)
		e.Stop()
	})
	e.MustScheduleAt(2*time.Millisecond, func(time.Duration) { fired = append(fired, 3) })
	e.MustScheduleAt(3*time.Millisecond, func(time.Duration) { fired = append(fired, 4) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.RunRealtime(ctx, make(chan Event), 1); err != nil {
		t.Fatalf("stopped run returned %v, want nil", err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("dispatched %v, want [1 2]", fired)
	}
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("clock %v after stop, want 2ms", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d events pending after stop, want 2", e.Pending())
	}
	// A later run picks up where the stopped one left off.
	e.RunUntil(-1)
	if len(fired) != 4 {
		t.Fatalf("resumed run dispatched %v, want all four", fired)
	}
}
