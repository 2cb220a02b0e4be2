package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
	"repro/internal/station"
	"repro/internal/trace"
)

// tiedTrace is a trace built to make the replay's event order matter:
// frames land exactly on beacon ticks (DTIM and not), several share an
// instant, and each tick's frame follows one in the interval before it,
// so it is queued after the tick was.
func tiedTrace() *trace.Trace {
	tr := &trace.Trace{Name: "ties", Duration: 20 * time.Second}
	r := sim.NewRNG(5)
	ports := []uint16{5353, 137, 1900, 5353}
	add := func(at time.Duration, k int) {
		tr.Frames = append(tr.Frames, trace.Frame{
			At: at, Length: 120 + 40*(k%5), Rate: dot11.Rate1Mbps,
			DstPort: ports[k%len(ports)], MoreData: k%3 == 0,
		})
	}
	for k := 1; time.Duration(k)*dot11.DefaultBeaconInterval < tr.Duration; k++ {
		tick := time.Duration(k) * dot11.DefaultBeaconInterval
		add(tick-time.Duration(1+r.Intn(90))*time.Millisecond, k)
		add(tick, k+1)
		if k%2 == 0 {
			add(tick, k+2) // a second frame on the same tick
		}
		if k%5 == 0 {
			at := tick + time.Duration(r.Intn(50))*time.Millisecond
			add(at, k+3)
			add(at, k) // two frames sharing an instant between ticks
		}
	}
	tr.Sort()
	return tr
}

// replayRun is what one replay leaves behind: every transmission as
// the medium's tap saw it, and every station's stats and arrivals.
type replayRun struct {
	air      []byte
	frames   int
	stats    []station.Stats
	arrivals string
}

// runReplay replays tr on a hardened, lossy HIDE network with stations
// attached, queuing the trace with schedule, and runs it the way
// Replay does.
func runReplay(t *testing.T, tr *trace.Trace, schedule func(*Network, *trace.Trace) error) replayRun {
	t.Helper()
	n, err := NewNetwork(NetworkConfig{HIDE: true, Harden: true, Loss: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var run replayRun
	n.Medium.SetTap(func(raw []byte, rate dot11.Rate, at time.Duration) {
		run.air = fmt.Appendf(run.air, "%d %v %x\n", at, rate, raw)
		run.frames++
	})
	for _, c := range []struct {
		mode  station.Mode
		ports []uint16
	}{
		{station.HIDE, []uint16{5353}},
		{station.HIDE, []uint16{1900, 137}},
		{station.HIDE, nil},
		{station.Legacy, []uint16{5353}},
		{station.ClientSide, []uint16{137}},
	} {
		if _, err := n.AddStation(c.mode, c.ports); err != nil {
			t.Fatal(err)
		}
	}
	if err := schedule(n, tr); err != nil {
		t.Fatal(err)
	}
	n.Engine.RunUntil(ReplayEnd(tr))
	for _, st := range n.Stations() {
		run.stats = append(run.stats, st.Stats())
		run.arrivals += fmt.Sprint(st.Arrivals())
	}
	return run
}

// scheduleUpFront is the replay ScheduleReplay must match: every frame
// queued before the run, each with the next insertion seq.
func scheduleUpFront(n *Network, tr *trace.Trace) error {
	n.AP.Start()
	for i := range tr.Frames {
		f := &tr.Frames[i]
		if _, err := n.Engine.ScheduleAt(f.At, func(time.Duration) { n.AP.EnqueueGroup(f.Datagram(), f.Rate) }); err != nil {
			return err
		}
	}
	return nil
}

// scheduleChainedPlain chains frames like ScheduleReplay but gives each
// a fresh seq when it is queued, so a frame sorts after every event
// queued before its predecessor fired.
func scheduleChainedPlain(n *Network, tr *trace.Trace) error {
	n.AP.Start()
	next := 0
	var fire sim.Event
	fire = func(time.Duration) {
		f := &tr.Frames[next]
		next++
		if next < len(tr.Frames) {
			n.Engine.MustScheduleAt(tr.Frames[next].At, fire)
		}
		n.AP.EnqueueGroup(f.Datagram(), f.Rate)
	}
	_, err := n.Engine.ScheduleAt(tr.Frames[0].At, fire)
	return err
}

// TestScheduleReplayKeepsUpFrontOrder pins ScheduleReplay's one-event
// chain to the order of a replay that queues every frame up front: the
// same bytes on the air, at the same instants, and the same station
// stats and arrivals.
func TestScheduleReplayKeepsUpFrontOrder(t *testing.T) {
	tr := tiedTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := runReplay(t, tr, scheduleUpFront)
	got := runReplay(t, tr, (*Network).ScheduleReplay)
	if want.frames < len(tr.Frames) {
		t.Fatalf("reference replay put %d frames on the air, fewer than the trace's %d", want.frames, len(tr.Frames))
	}
	if !bytes.Equal(got.air, want.air) {
		t.Errorf("air streams differ: %d frames, want %d", got.frames, want.frames)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("station stats differ:\n got %+v\nwant %+v", got.stats, want.stats)
	}
	if got.arrivals != want.arrivals {
		t.Error("station arrivals differ")
	}

	// The trace must be able to tell orders apart: chaining with plain
	// seqs reorders frames against same-instant beacon ticks.
	plain := runReplay(t, tr, scheduleChainedPlain)
	if bytes.Equal(plain.air, want.air) {
		t.Fatal("chaining with fresh seqs gave the reference air stream; the trace's ties do not exercise the replay order")
	}
}
