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
// The engine is allocation-lean on its hot path: queue items are
// recycled through a free list (generation-guarded, so stale Handles
// cannot touch a recycled slot), the queue backing array is pre-sized,
// and the ScheduleArg variants let periodic callers (beacon ticks,
// frame deliveries, wakelock expiries) attach per-event state without
// allocating a closure per event.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// ArgEvent is a callback with an attached argument. Callers that fire
// the same logical event many times (a medium delivering frames, an AP
// ticking beacons) bind one ArgEvent value once and pass per-event
// state through arg, avoiding a closure allocation per schedule.
type ArgEvent func(now time.Duration, arg any)

// Hook observes event dispatch: each registered hook runs after every
// dispatched event, at the event's virtual time. Hooks are how the
// cross-validation harness (internal/check) asserts protocol invariants
// on every simulation step; they must not schedule or cancel events.
type Hook func(now time.Duration)

// item is a scheduled event inside the queue. Items are recycled via
// the engine's free list; gen increments on every recycle so Handles
// referring to a previous occupancy turn inert.
type item struct {
	at    time.Duration
	seq   uint64 // insertion order, breaks ties deterministically
	sub   uint64 // sub-slot within seq (slot-mirrored events), 0 normally
	gen   uint64 // recycle generation, guards stale Handles
	fn    Event
	argFn ArgEvent
	arg   any
	done  bool // cancelled or fired
	idx   int  // heap index, -1 once popped
}

// Handle identifies a scheduled event so it can be cancelled. The
// generation stamp keeps a Handle inert once its event has fired or
// been cancelled and the slot recycled.
type Handle struct {
	it  *item
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (h Handle) live() bool { return h.it != nil && h.it.gen == h.gen }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if !h.live() || h.it.done {
		return false
	}
	h.it.done = true
	h.it.fn = nil
	h.it.argFn = nil
	h.it.arg = nil
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool { return h.live() && !h.it.done }

// Slot identifies an event's position within its instant's firing
// order. An entity standing for many identical members (a cohort)
// schedules one event at a normal slot; when members peel off, each
// mirrors the pending event at the source's slot offset by its member
// index, so same-instant firing follows member order no matter what
// order — or how late — the members were carved off.
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
	if !h.live() || h.it.done {
		return Slot{}, false
	}
	return Slot{seq: h.it.seq, sub: h.it.sub}, true
}

// At returns the virtual time the event is scheduled for, or zero once
// the event has fired or been cancelled and its slot recycled.
func (h Handle) At() time.Duration {
	if !h.live() {
		return 0
	}
	return h.it.at
}

// eventQueue implements heap.Interface ordered by (at, seq, sub).
type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].seq != q[j].seq {
		return q[i].seq < q[j].seq
	}
	return q[i].sub < q[j].sub
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *eventQueue) Push(x any) {
	it := x.(*item)
	it.idx = len(*q)
	*q = append(*q, it)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*q = old[:n-1]
	return it
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
	queue     eventQueue
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
	return &Engine{queue: make(eventQueue, 0, initialQueueCapacity)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events that have been dispatched.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue, including
// cancelled events that have not been drained yet.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc takes an item from the free list or allocates a fresh one.
func (e *Engine) alloc() *item {
	if n := len(e.free); n > 0 {
		it := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return it
	}
	return &item{}
}

// release recycles a popped item. Bumping the generation first makes
// every outstanding Handle for this occupancy inert.
func (e *Engine) release(it *item) {
	it.gen++
	it.fn = nil
	it.argFn = nil
	it.arg = nil
	it.done = false
	it.idx = -1
	e.free = append(e.free, it)
}

// schedule enqueues a prepared item.
func (e *Engine) schedule(at time.Duration, fn Event, argFn ArgEvent, arg any) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrSchedulePast, at, e.now)
	}
	it := e.alloc()
	it.at = at
	it.seq = e.seq
	it.sub = 0
	it.fn = fn
	it.argFn = argFn
	it.arg = arg
	e.seq++
	heap.Push(&e.queue, it)
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
	heap.Push(&e.queue, it)
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

// ScheduleAt schedules fn to run at absolute virtual time at.
// It returns an error if at is before the current time.
func (e *Engine) ScheduleAt(at time.Duration, fn Event) (Handle, error) {
	return e.schedule(at, fn, nil, nil)
}

// ScheduleAfter schedules fn to run delay after the current virtual time.
// A negative delay is an error.
func (e *Engine) ScheduleAfter(delay time.Duration, fn Event) (Handle, error) {
	return e.schedule(e.now+delay, fn, nil, nil)
}

// ScheduleArgAt schedules fn(now, arg) at absolute virtual time at.
// Binding fn once and passing state through arg keeps per-event
// scheduling allocation-free (arg is stored as-is; pointer-shaped args
// do not allocate).
func (e *Engine) ScheduleArgAt(at time.Duration, fn ArgEvent, arg any) (Handle, error) {
	return e.schedule(at, nil, fn, arg)
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

// MustScheduleArgAt is ScheduleArgAt but panics on error.
func (e *Engine) MustScheduleArgAt(at time.Duration, fn ArgEvent, arg any) Handle {
	h, err := e.ScheduleArgAt(at, fn, arg)
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
	for len(e.queue) > 0 {
		it := heap.Pop(&e.queue).(*item)
		if it.done {
			e.release(it)
			continue
		}
		e.now = it.at
		fn, argFn, arg := it.fn, it.argFn, it.arg
		e.release(it)
		e.fired++
		if fn != nil {
			fn(e.now)
		} else {
			argFn(e.now, arg)
		}
		for _, h := range e.hooks {
			h(e.now)
		}
		return true
	}
	return false
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
		next, ok := e.peek()
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

// NextEventAt returns the timestamp of the next live event, if any. A
// stopping event uses it to let the rest of its instant run first.
func (e *Engine) NextEventAt() (time.Duration, bool) { return e.peek() }

// peek returns the timestamp of the next live event, draining (and
// recycling) cancelled entries from the top of the heap.
func (e *Engine) peek() (time.Duration, bool) {
	for len(e.queue) > 0 {
		it := e.queue[0]
		if !it.done {
			return it.at, true
		}
		e.release(heap.Pop(&e.queue).(*item))
	}
	return 0, false
}
