package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// The engine's queue is checked against a naive reference: a slice of
// the live events kept sorted by (at, seq, sub) and fired from the
// front. A program is a byte string read two bytes per operation
// (opcode, argument); runProgram executes it on both and requires the
// same firing order, the same clock, the same Pending() and the same
// Handle answers for every handle ever returned, after every operation.
// Opcodes favour scheduling, so the heap grows deep enough for
// cancellations to need both sift directions.

// refEvent is one event as the reference sees it.
type refEvent struct {
	at       time.Duration
	seq, sub uint64
	victim   int // handle index this event cancels when it fires, or -1
	live     bool
}

// refQueue is the reference engine.
type refQueue struct {
	now    time.Duration
	seq    uint64
	events []refEvent // by handle index
	live   []int      // live handle indices, sorted by (at, seq, sub)
	fired  []int      // handle indices in firing order
	cancel []bool     // results of cancels made by firing events
}

func (r *refQueue) insert(at time.Duration, seq, sub uint64, victim int) {
	r.events = append(r.events, refEvent{at: at, seq: seq, sub: sub, victim: victim, live: true})
	r.live = append(r.live, len(r.events)-1)
	sort.Slice(r.live, func(i, j int) bool {
		a, b := r.events[r.live[i]], r.events[r.live[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.sub < b.sub
	})
}

func (r *refQueue) cancelHandle(h int) bool {
	if !r.events[h].live {
		return false
	}
	r.events[h].live = false
	for i, id := range r.live {
		if id == h {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	return true
}

func (r *refQueue) step() bool {
	if len(r.live) == 0 {
		return false
	}
	h := r.live[0]
	r.live = r.live[1:]
	ev := &r.events[h]
	ev.live = false
	r.now = ev.at
	r.fired = append(r.fired, h)
	if ev.victim >= 0 {
		r.cancel = append(r.cancel, r.cancelHandle(ev.victim))
	}
	return true
}

func (r *refQueue) runUntil(deadline time.Duration) {
	for len(r.live) > 0 && (deadline < 0 || r.events[r.live[0]].at <= deadline) {
		r.step()
	}
	if deadline >= 0 && deadline > r.now {
		r.now = deadline
	}
}

// engineRun is the engine side of a program.
type engineRun struct {
	eng     *Engine
	handles []Handle
	fired   []int
	cancel  []bool
}

// event returns the callback for handle index h: it records the firing
// and, when victim is set, cancels that handle from inside the dispatch.
func (er *engineRun) event(h, victim int) Event {
	return func(time.Duration) {
		er.fired = append(er.fired, h)
		if victim >= 0 {
			er.cancel = append(er.cancel, er.handles[victim].Cancel())
		}
	}
}

// runProgram executes prog on a fresh engine and on the reference and
// fails at the first disagreement.
func runProgram(t testing.TB, prog []byte) {
	er := &engineRun{eng: New()}
	ref := &refQueue{}
	used := map[Slot]bool{} // every (seq, sub) handed out, so slot keys stay distinct
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%10, prog[pc+1]
		desc := ""
		switch op {
		case 0, 1, 2, 3: // schedule
			d := time.Duration(arg % 8)
			if d == 7 && ref.now > 0 {
				desc = "schedule in the past"
				if _, err := er.eng.ScheduleAt(ref.now-1, er.event(-1, -1)); err == nil {
					t.Fatalf("op %d: scheduling before now succeeded", pc/2)
				}
				break
			}
			at := ref.now + d
			h := len(ref.events)
			victim := -1
			if v := int(arg >> 4); v > 0 && h > 0 {
				victim = (v - 1) % h
			}
			desc = fmt.Sprintf("schedule #%d at %v (cancels %d)", h, at, victim)
			eh, err := er.eng.ScheduleAt(at, er.event(h, victim))
			if err != nil {
				t.Fatalf("op %d: %s: %v", pc/2, desc, err)
			}
			er.handles = append(er.handles, eh)
			used[Slot{seq: ref.seq}] = true
			ref.insert(at, ref.seq, 0, victim)
			ref.seq++
		case 4: // schedule at a distinct offset of a pending event's slot
			if len(ref.events) == 0 {
				break
			}
			src := int(arg) % len(ref.events)
			slot, ok := er.handles[src].Slot()
			if !ok {
				break
			}
			k := 1
			for used[slot.Offset(k)] {
				k++
			}
			s := slot.Offset(k)
			used[s] = true
			at := ref.now + time.Duration(arg>>6)
			h := len(ref.events)
			desc = fmt.Sprintf("slot-schedule #%d at %v, offset %d of #%d", h, at, k, src)
			eh, err := er.eng.ScheduleAtSlot(at, s, er.event(h, -1))
			if err != nil {
				t.Fatalf("op %d: %s: %v", pc/2, desc, err)
			}
			er.handles = append(er.handles, eh)
			ref.insert(at, s.seq, s.sub, -1)
		case 5, 6: // cancel any handle, live or not
			if len(ref.events) == 0 {
				break
			}
			h := int(arg) % len(ref.events)
			desc = fmt.Sprintf("cancel #%d", h)
			if got, want := er.handles[h].Cancel(), ref.cancelHandle(h); got != want {
				t.Fatalf("op %d: %s: Cancel = %v, want %v", pc/2, desc, got, want)
			}
		case 7, 8: // step
			desc = "step"
			if got, want := er.eng.Step(), ref.step(); got != want {
				t.Fatalf("op %d: Step = %v, want %v", pc/2, got, want)
			}
		case 9: // run until a deadline, or to exhaustion
			deadline := ref.now + time.Duration(arg%4)
			if arg == 255 {
				deadline = -1
			}
			desc = fmt.Sprintf("run until %v", deadline)
			ref.runUntil(deadline)
			if got := er.eng.RunUntil(deadline); got != ref.now {
				t.Fatalf("op %d: %s returned %v, want %v", pc/2, desc, got, ref.now)
			}
		}
		compare(t, pc/2, desc, er, ref)
	}
}

// compare checks every observable of the engine against the reference.
func compare(t testing.TB, op int, desc string, er *engineRun, ref *refQueue) {
	e := er.eng
	if e.Now() != ref.now {
		t.Fatalf("op %d (%s): Now = %v, want %v", op, desc, e.Now(), ref.now)
	}
	if e.Pending() != len(ref.live) {
		t.Fatalf("op %d (%s): Pending = %d, want %d", op, desc, e.Pending(), len(ref.live))
	}
	if e.Fired() != uint64(len(ref.fired)) {
		t.Fatalf("op %d (%s): Fired = %d, want %d", op, desc, e.Fired(), len(ref.fired))
	}
	if fmt.Sprint(er.fired) != fmt.Sprint(ref.fired) {
		t.Fatalf("op %d (%s): fired %v, want %v", op, desc, er.fired, ref.fired)
	}
	if fmt.Sprint(er.cancel) != fmt.Sprint(ref.cancel) {
		t.Fatalf("op %d (%s): in-dispatch cancels %v, want %v", op, desc, er.cancel, ref.cancel)
	}
	for i, it := range e.queue {
		if it.idx != i || i > 0 && it.before(e.queue[(i-1)/2]) {
			t.Fatalf("op %d (%s): heap order broken at index %d", op, desc, i)
		}
	}
	next, ok := e.NextEventAt()
	if ok != (len(ref.live) > 0) || ok && next != ref.events[ref.live[0]].at {
		t.Fatalf("op %d (%s): NextEventAt = %v, %v", op, desc, next, ok)
	}
	for i, h := range er.handles {
		ev := ref.events[i]
		wantAt, wantSlot := time.Duration(0), Slot{}
		if ev.live {
			wantAt, wantSlot = ev.at, Slot{seq: ev.seq, sub: ev.sub}
		}
		slot, ok := h.Slot()
		if h.Pending() != ev.live || h.At() != wantAt || slot != wantSlot || ok != ev.live {
			t.Fatalf("op %d (%s): handle #%d: Pending %v At %v Slot %v,%v; want %v %v %v,%v",
				op, desc, i, h.Pending(), h.At(), slot, ok, ev.live, wantAt, wantSlot, ev.live)
		}
	}
}

// TestEngineMatchesReference runs random programs on the engine and the
// reference queue.
func TestEngineMatchesReference(t *testing.T) {
	r := NewRNG(16)
	for n := 0; n < 300; n++ {
		prog := make([]byte, 2*(1+r.Intn(300)))
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		runProgram(t, prog)
	}
}

// FuzzEngineOrder runs fuzzed programs through the same interpreter.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 0, 7, 0, 7, 0, 7, 0})
	f.Add([]byte{0, 5, 4, 0, 4, 0, 5, 0, 9, 255})
	f.Add([]byte{0, 0, 0, 16, 0, 32, 0, 0, 5, 1, 9, 7, 0, 7, 4, 2, 9, 255})
	f.Add([]byte{0, 8, 0, 9, 4, 64, 4, 129, 5, 0, 8, 0, 0, 47, 9, 3, 6, 2, 9, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		runProgram(t, prog)
	})
}
