// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of timed
// events. Events scheduled for the same instant fire in the order they
// were scheduled (stable FIFO tie-breaking), which keeps runs fully
// deterministic for a given seed and schedule order.
//
// All simulation time is expressed as time.Duration offsets from the
// start of the run. The engine never consults the wall clock.
//
// The queue holds only live events: it is a binary heap over the item
// slice, ordered by (time, seq, sub) and compared inline, and
// Handle.Cancel takes its event out of the heap at the call, so a
// cancelled timer costs nothing later. The engine is allocation-lean
// on its hot path: queue items are recycled through a free list as
// soon as they fire or are cancelled (generation-guarded, so stale
// Handles cannot touch a recycled slot) and the queue backing array is
// pre-sized. A caller that fires one logical event many times (an AP
// ticking beacons, a medium delivering frames) binds its Event once and
// reschedules the bound value, so scheduling allocates no closure.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// Hook observes event dispatch: each registered hook runs after every
// dispatched event, at the event's virtual time. Hooks are how the
// cross-validation harness (internal/check) asserts protocol invariants
// on every simulation step; they must not schedule or cancel events.
type Hook func(now time.Duration)

// item is a scheduled event inside the queue. Items are recycled via
// their engine's free list the moment they fire or are cancelled; gen
// increments on every recycle, so an item is live exactly while its
// Handle's generation matches, and Handles referring to a previous
// occupancy turn inert.
type item struct {
	at  time.Duration
	seq uint64 // insertion order, breaks ties deterministically
	sub uint64 // sub-slot within seq (slot-mirrored events), 0 normally
	gen uint64 // recycle generation, guards stale Handles
	fn  Event
	eng *Engine // owning engine, whose queue Cancel removes the item from
	idx int     // heap index while queued
}

// before orders items by (at, seq, sub), the queue's firing order.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.sub < b.sub
}

// Handle identifies a scheduled event so it can be cancelled. The
// generation stamp keeps a Handle inert once its event has fired or
// been cancelled, since either recycles the item.
type Handle struct {
	it  *item
	gen uint64
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool { return h.it != nil && h.it.gen == h.gen }

// Cancel prevents the event from firing: it takes the event out of the
// queue and recycles its item at the call, so Engine.Pending drops by
// one. Cancelling an event that has already fired or been cancelled is
// a no-op. Cancel reports whether the event was still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	e := h.it.eng
	e.release(e.remove(h.it.idx))
	return true
}

// Slot identifies an event's position within its instant's firing
// order. An entity that queues a sequence of events one at a time (a
// trace replay) schedules the first at a normal slot and event i at
// that slot offset by i, so same-instant firing follows sequence order
// no matter how late each event is queued.
type Slot struct {
	seq, sub uint64
}

// Offset returns the slot k sub-positions after s. Distinct offsets
// from one source slot order deterministically; reusing an offset
// leaves the tied events' relative order unspecified.
func (s Slot) Offset(k int) Slot { return Slot{seq: s.seq, sub: s.sub + uint64(k)} }

// Slot returns the pending event's firing slot. The second result is
// false once the event has fired or been cancelled.
func (h Handle) Slot() (Slot, bool) {
	if !h.Pending() {
		return Slot{}, false
	}
	return Slot{seq: h.it.seq, sub: h.it.sub}, true
}

// At returns the virtual time the event is scheduled for, or zero once
// the event has fired or been cancelled.
func (h Handle) At() time.Duration {
	if !h.Pending() {
		return 0
	}
	return h.it.at
}

// ErrSchedulePast is returned when an event is scheduled before the
// current virtual time.
var ErrSchedulePast = errors.New("sim: event scheduled in the past")

// initialQueueCapacity pre-sizes a New engine's queue and free list so
// steady-state simulations (a beacon tick, a handful of in-flight
// frames and timers) never grow the heap backing array.
const initialQueueCapacity = 64

// Engine is a discrete-event simulation engine. The zero value is ready
// to use; its clock starts at 0.
type Engine struct {
	now       time.Duration
	queue     []*item // binary min-heap by (at, seq, sub); live events only
	free      []*item // recycled items, LIFO
	seq       uint64
	fired     uint64
	running   bool
	stopped   bool
	hooks     []Hook
	interrupt func() bool
}

// New returns a new Engine with its clock at 0 and a pre-sized queue.
func New() *Engine {
	return &Engine{queue: make([]*item, 0, initialQueueCapacity)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events that have been dispatched.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire. Cancelled
// events leave the queue at the Cancel call and are not counted.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc takes an item from the free list or allocates a fresh one.
func (e *Engine) alloc() *item {
	if n := len(e.free); n > 0 {
		it := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return it
	}
	return &item{eng: e}
}

// release recycles an item taken out of the queue. Bumping the
// generation first makes every outstanding Handle for this occupancy
// inert.
func (e *Engine) release(it *item) {
	it.gen++
	it.fn = nil
	e.free = append(e.free, it)
}

// push adds an item to the heap.
func (e *Engine) push(it *item) {
	e.queue = append(e.queue, it)
	e.up(len(e.queue) - 1)
}

// remove takes the item at heap index i out of the heap and returns it.
// The last item fills the hole and sifts down, or up if it cannot go
// down.
func (e *Engine) remove(i int) *item {
	q := e.queue
	n := len(q) - 1
	it := q[i]
	q[i] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n && !e.down(i) {
		e.up(i)
	}
	return it
}

// up moves the item at index j towards the root until its parent fires
// first, keeping every moved item's idx current.
func (e *Engine) up(j int) {
	q := e.queue
	it := q[j]
	for j > 0 {
		i := (j - 1) / 2
		p := q[i]
		if !it.before(p) {
			break
		}
		q[j], p.idx = p, j
		j = i
	}
	q[j], it.idx = it, j
}

// down moves the item at index i towards the leaves until both its
// children fire after it. It reports whether the item moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	it := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(it) {
			break
		}
		q[i], q[c].idx = q[c], i
		i = c
	}
	q[i], it.idx = it, i
	return i > i0
}

// ScheduleAt schedules fn to run at absolute virtual time at.
// It returns an error if at is before the current time.
func (e *Engine) ScheduleAt(at time.Duration, fn Event) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	it := e.alloc()
	it.at = at
	it.seq = e.seq
	it.sub = 0
	it.fn = fn
	e.seq++
	e.push(it)
	return Handle{it: it, gen: it.gen}, nil
}

// ScheduleAtSlot schedules fn at absolute virtual time at, firing in
// slot order instead of insertion order among same-instant events. The
// slot should come from a pending event's Handle.Slot plus a distinct
// Offset; the event fires after that source event and before anything
// the source precedes.
func (e *Engine) ScheduleAtSlot(at time.Duration, slot Slot, fn Event) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	it := e.alloc()
	it.at = at
	it.seq = slot.seq
	it.sub = slot.sub
	it.fn = fn
	e.push(it)
	return Handle{it: it, gen: it.gen}, nil
}

// MustScheduleAtSlot is ScheduleAtSlot but panics on error.
func (e *Engine) MustScheduleAtSlot(at time.Duration, slot Slot, fn Event) Handle {
	h, err := e.ScheduleAtSlot(at, slot, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// ScheduleAfter schedules fn to run delay after the current virtual time.
// A negative delay is an error.
func (e *Engine) ScheduleAfter(delay time.Duration, fn Event) (Handle, error) {
	return e.ScheduleAt(e.now+delay, fn)
}

// MustScheduleAt is ScheduleAt but panics on error. It is intended for
// simulation setup code where a past timestamp is a programming bug.
func (e *Engine) MustScheduleAt(at time.Duration, fn Event) Handle {
	h, err := e.ScheduleAt(at, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// MustScheduleAfter is ScheduleAfter but panics on error.
func (e *Engine) MustScheduleAfter(delay time.Duration, fn Event) Handle {
	h, err := e.ScheduleAfter(delay, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Stop makes the current Run/RunUntil/RunRealtime call return after the
// event being dispatched completes. Pending events stay queued.
func (e *Engine) Stop() { e.stopped = true }

// SetInterrupt installs a predicate consulted before each event during
// Run/RunUntil: when it returns true the drain stops where it stands —
// pending events stay queued and the clock is NOT advanced to the
// deadline. It exists for abandoning a run from outside the event
// stream (the windowed-parallel runner points it at ctx.Err so a
// cancelled window aborts mid-drain instead of finishing a million
// queued deliveries); an interrupted engine's state is torn mid-window
// and must be discarded, never merged. A nil predicate (the default)
// restores the unconditional drain.
func (e *Engine) SetInterrupt(fn func() bool) { e.interrupt = fn }

// AddHook registers a dispatch hook. Hooks run in registration order
// after every dispatched event and cannot be removed.
func (e *Engine) AddHook(h Hook) { e.hooks = append(e.hooks, h) }

// Step dispatches the single next pending event, advancing the clock to
// its timestamp. It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := e.remove(0)
	e.now = it.at
	fn := it.fn
	e.release(it)
	e.fired++
	fn(e.now)
	for _, h := range e.hooks {
		h(e.now)
	}
	return true
}

// Run dispatches events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (e *Engine) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil dispatches events with timestamps <= deadline, then advances
// the clock to deadline if any events fired or the deadline exceeds the
// current time. A negative deadline means "run to exhaustion".
// It returns the final virtual time.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: Run called reentrantly from an event handler")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		next, ok := e.NextEventAt()
		if !ok {
			break
		}
		if deadline >= 0 && next > deadline {
			break
		}
		if e.interrupt != nil && e.interrupt() {
			return e.now
		}
		e.Step()
	}
	if deadline >= 0 && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// NextEventAt returns the timestamp of the next event, if any. A
// stopping event uses it to let the rest of its instant run first.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}
