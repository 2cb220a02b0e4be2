package sim

import (
	"testing"
	"time"
)

// These tests pin the engine's allocation budget: the pooled scheduler
// exists so the per-event cost every simulated frame, beacon, and
// wakelock rearm pays is zero heap objects in steady state. A regression
// here (a new closure capture, a lost free-list recycle) fails loudly
// instead of silently re-inflating the hot path.

// TestAllocBudgetScheduleStep asserts the core schedule→dispatch cycle
// allocates nothing once the item pool is warm.
func TestAllocBudgetScheduleStep(t *testing.T) {
	eng := New()
	fn := func(time.Duration) {}
	// Warm the free list and the queue's backing array.
	for i := 0; i < 64; i++ {
		eng.MustScheduleAfter(time.Duration(i)*time.Microsecond, fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.MustScheduleAfter(time.Microsecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step: %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocBudgetScheduleCancel asserts the rearm pattern the stations
// use on every arrival — cancel the pending event, schedule a fresh one
// — stays allocation-free: Cancel recycles the item at the call (see
// TestCancelRecyclesAtCall; AllocsPerRun's integer average cannot see
// a leak of less than one allocation per run).
func TestAllocBudgetScheduleCancel(t *testing.T) {
	eng := New()
	fn := func(time.Duration) {}
	for i := 0; i < 64; i++ {
		eng.MustScheduleAfter(time.Duration(i)*time.Microsecond, fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		h := eng.MustScheduleAfter(time.Millisecond, fn)
		h.Cancel()
		eng.MustScheduleAfter(time.Microsecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel+step: %.1f allocs/op, want 0", allocs)
	}
}

// TestCancelRecyclesAtCall checks that Cancel takes its item out of the
// queue and puts it on the free list at the call, so the next schedule
// reuses it, and that a stale Handle to the recycled item stays inert.
func TestCancelRecyclesAtCall(t *testing.T) {
	eng := New()
	fn := func(time.Duration) {}
	for i := 0; i < 8; i++ {
		eng.MustScheduleAfter(time.Duration(i)*time.Microsecond, fn)
	}
	h := eng.MustScheduleAfter(time.Millisecond, fn)
	it, pending, free := h.it, eng.Pending(), len(eng.free)
	if !h.Cancel() {
		t.Fatal("Cancel of a pending event returned false")
	}
	if eng.Pending() != pending-1 {
		t.Fatalf("Pending after Cancel = %d, want %d", eng.Pending(), pending-1)
	}
	if len(eng.free) != free+1 || eng.free[len(eng.free)-1] != it {
		t.Fatalf("Cancel did not put the item on the free list (free %d -> %d)", free, len(eng.free))
	}
	for _, q := range eng.queue {
		if q == it {
			t.Fatal("cancelled item still queued")
		}
	}
	h2 := eng.MustScheduleAfter(2*time.Millisecond, fn)
	if h2.it != it {
		t.Fatal("the next schedule did not reuse the cancelled item")
	}
	if h.Pending() || h.Cancel() || h.At() != 0 {
		t.Fatal("stale handle to a recycled item is not inert")
	}
	if !h2.Pending() || eng.Pending() != pending {
		t.Fatalf("reused item: Pending %v, engine Pending %d, want true and %d", h2.Pending(), eng.Pending(), pending)
	}
}
