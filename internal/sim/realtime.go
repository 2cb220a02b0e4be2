package sim

import (
	"context"
	"fmt"
	"math"
	"time"
)

// RunRealtime drives the engine against the wall clock: the engine's
// current virtual time is pinned to the moment of the call, and each
// queued event fires when its virtual timestamp comes due, with one
// second of virtual time taking 1/speed wall seconds (speed 1 is real
// time). External inputs (e.g. frames arriving on a real socket) are
// delivered through the inject channel; each injected function runs on
// the engine goroutine with the clock advanced to "now", so it can
// safely interact with engine-scheduled state — this is how the
// hided/hidec daemons and the hidenet monitor marry socket I/O to the
// single-threaded protocol entities. A nil inject channel delivers
// nothing.
//
// RunRealtime returns nil once an event (or an injected function)
// calls Stop — no event after the stopping one is dispatched and the
// clock stays at the stopping event's time — or when the inject
// channel is closed, and ctx.Err() when ctx is cancelled. It must not
// be called while another Run variant is active.
func (e *Engine) RunRealtime(ctx context.Context, inject <-chan Event, speed float64) error {
	if !(speed > 0) || math.IsInf(speed, 1) {
		return fmt.Errorf("sim: realtime speed %v is not a positive finite factor", speed)
	}
	if e.running {
		panic("sim: RunRealtime called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	start, base := time.Now(), e.now // preserve an already-advanced clock
	vnow := func() time.Duration {
		return base + time.Duration(float64(time.Since(start))*speed)
	}

	// catchUp dispatches everything due at the current wall instant,
	// halting at a Stop. It mirrors RunUntil but without the
	// running-flag guard.
	catchUp := func() {
		limit := vnow()
		for !e.stopped {
			next, ok := e.NextEventAt()
			if !ok || next > limit {
				if limit > e.now {
					e.now = limit
				}
				return
			}
			e.Step()
		}
	}

	// One timer serves the whole loop: Stop/Reset instead of a fresh
	// time.Timer (and its runtime timer allocation) per iteration.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C // fired between select and Stop: drain for the next Reset
		}
		armed = false
	}
	defer disarm()

	for !e.stopped {
		disarm()
		var timerC <-chan time.Time
		if next, ok := e.NextEventAt(); ok {
			delay := time.Duration(float64(next-vnow()) / speed)
			if delay < 0 {
				delay = 0
			}
			timer.Reset(delay)
			armed = true
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timerC:
			armed = false
			catchUp()
		case fn, ok := <-inject:
			if !ok {
				return nil
			}
			catchUp()
			if !e.stopped {
				fn(e.now)
			}
		}
	}
	return nil
}
