package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("Run on empty engine = %v, want 0", got)
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var order []int
	e.MustScheduleAt(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	e.MustScheduleAt(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	e.MustScheduleAt(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Errorf("Run end time = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustScheduleAt(time.Second, func(time.Duration) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := New()
	e.MustScheduleAt(time.Second, func(time.Duration) {})
	e.Run()
	if _, err := e.ScheduleAt(500*time.Millisecond, func(time.Duration) {}); err == nil {
		t.Fatal("scheduling in the past succeeded, want error")
	}
}

func TestScheduleAfterNegative(t *testing.T) {
	e := New()
	if _, err := e.ScheduleAfter(-time.Millisecond, func(time.Duration) {}); err == nil {
		t.Fatal("negative delay accepted, want error")
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.MustScheduleAt(time.Second, func(time.Duration) { fired = true })
	if !h.Pending() {
		t.Fatal("handle not pending after schedule")
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	h := e.MustScheduleAt(time.Second, func(time.Duration) {})
	e.Run()
	if h.Pending() {
		t.Fatal("handle pending after firing")
	}
	if h.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New()
	count := 0
	e.MustScheduleAt(time.Second, func(time.Duration) { count++ })
	e.MustScheduleAt(3*time.Second, func(time.Duration) { count++ })
	end := e.RunUntil(2 * time.Second)
	if end != 2*time.Second {
		t.Errorf("RunUntil returned %v, want 2s", end)
	}
	if count != 1 {
		t.Errorf("fired %d events before deadline, want 1", count)
	}
	end = e.RunUntil(5 * time.Second)
	if end != 5*time.Second || count != 2 {
		t.Errorf("after second RunUntil: end=%v count=%d, want 5s and 2", end, count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var times []time.Duration
	e.MustScheduleAt(time.Second, func(now time.Duration) {
		times = append(times, now)
		e.MustScheduleAfter(time.Second, func(now time.Duration) {
			times = append(times, now)
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("chained events fired at %v, want [1s 2s]", times)
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.MustScheduleAt(time.Duration(i)*time.Second, func(time.Duration) {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("fired %d events after Stop, want 2", count)
	}
	if e.Pending() == 0 {
		t.Fatal("Stop drained the queue")
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.MustScheduleAt(time.Second, func(time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.MustScheduleAt(time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	h := e.MustScheduleAt(10*time.Millisecond, func(time.Duration) {})
	h.Cancel()
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7 (cancelled events must not count)", e.Fired())
	}
}

func TestManyEventsSortedDispatch(t *testing.T) {
	e := New()
	r := NewRNG(42)
	const n = 5000
	var last time.Duration = -1
	ok := true
	for i := 0; i < n; i++ {
		at := time.Duration(r.Intn(1_000_000)) * time.Microsecond
		e.MustScheduleAt(at, func(now time.Duration) {
			if now < last {
				ok = false
			}
			last = now
		})
	}
	e.Run()
	if !ok {
		t.Fatal("events dispatched out of time order")
	}
	if e.Fired() != n {
		t.Fatalf("Fired = %d, want %d", e.Fired(), n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(123)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(99)
	for n := 1; n < 100; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(2024)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1.0", mean)
	}
}

func TestRunUntilInterrupt(t *testing.T) {
	e := New()
	var fired []time.Duration
	for i := 1; i <= 6; i++ {
		at := time.Duration(i) * time.Second
		e.MustScheduleAt(at, func(now time.Duration) { fired = append(fired, now) })
	}
	// Interrupt once three events have run: the drain must stop where it
	// stands, leaving the remaining events queued and the clock at the
	// last dispatched event rather than the deadline.
	e.SetInterrupt(func() bool { return len(fired) >= 3 })
	if got := e.RunUntil(10 * time.Second); got != 3*time.Second {
		t.Fatalf("interrupted RunUntil returned %v, want 3s", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock advanced to %v under interrupt, want 3s", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired %d events under interrupt, want 3", e.Fired())
	}
	// Clearing the hook resumes the ordinary unconditional drain, and the
	// clock lands on the deadline as usual.
	e.SetInterrupt(nil)
	if got := e.RunUntil(10 * time.Second); got != 10*time.Second {
		t.Fatalf("resumed RunUntil returned %v, want 10s", got)
	}
	if len(fired) != 6 {
		t.Fatalf("total events fired %d, want 6", len(fired))
	}
	for i, at := range fired {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("event %d fired at %v, want %v", i, at, want)
		}
	}
}

func TestRunUntilInterruptImmediate(t *testing.T) {
	e := New()
	ran := false
	e.MustScheduleAt(time.Second, func(now time.Duration) { ran = true })
	e.SetInterrupt(func() bool { return true })
	if got := e.RunUntil(5 * time.Second); got != 0 {
		t.Fatalf("immediately-interrupted RunUntil returned %v, want 0", got)
	}
	if ran {
		t.Fatal("event dispatched despite the interrupt firing before it")
	}
}
