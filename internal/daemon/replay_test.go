package daemon

import (
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReplayLoopsUntilScenarioSwitch replays a three-frame, one-second
// trace on a bare engine and AP through the simulation's walker: every
// pass enqueues each frame exactly once, with one event queued at a
// time. Switching scenarios mid-pass inside one engine event, as Reload
// does, cancels the old walker's pending event: only the new
// scenario's event stays queued, and no later frame of the old trace
// reaches the AP.
func TestReplayLoopsUntilScenarioSwitch(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 1)
	d := &Daemon{eng: eng, ap: ap.New(eng, med, ap.Config{BSSID: dot11.MACAddr{2, 0, 0, 0, 0, 1}, HIDE: true}), logf: t.Logf}
	tr := &trace.Trace{Name: "tiny", Duration: time.Second, Frames: []trace.Frame{
		{At: 0, Length: 120, Rate: dot11.Rate1Mbps, DstPort: 5353},
		{At: 300 * time.Millisecond, Length: 300, Rate: dot11.Rate1Mbps, DstPort: 137},
		{At: 900 * time.Millisecond, Length: 80, Rate: dot11.Rate1Mbps, DstPort: 1900},
	}}
	next := &trace.Trace{Name: "next", Duration: 2 * time.Second, Frames: []trace.Frame{
		{At: time.Second, Length: 100, Rate: dot11.Rate2Mbps, DstPort: 9},
	}}
	d.startReplay(tr, 0)
	enqueued := func() int { return d.ap.Stats().GroupFramesEnqueued }
	for pass := 1; pass <= 3; pass++ {
		eng.RunUntil(time.Duration(pass)*time.Second - time.Nanosecond)
		if got, want := enqueued(), pass*len(tr.Frames); got != want {
			t.Fatalf("after pass %d: %d frames enqueued, want %d", pass, got, want)
		}
		if n := eng.Pending(); n != 1 {
			t.Fatalf("after pass %d: %d events queued, want the walker's one", pass, n)
		}
	}
	// Switch mid-pass: the fourth pass's frames at 3.0 s and 3.3 s are
	// in; the one at 3.9 s and every later pass must not be.
	const switchAt = 3500 * time.Millisecond
	eng.MustScheduleAt(switchAt, func(now time.Duration) { d.startReplay(next, now) })
	eng.RunUntil(switchAt)
	if n := eng.Pending(); n != 1 {
		t.Fatalf("after the switch %d events are queued, want only the new scenario's", n)
	}
	if at, _ := eng.NextEventAt(); at != switchAt+next.Frames[0].At {
		t.Fatalf("the queued event fires at %v, want the new scenario's first frame at %v", at, switchAt+next.Frames[0].At)
	}
	// The new scenario loops from the switch: 4.5 s, 6.5 s and 8.5 s.
	eng.RunUntil(10 * time.Second)
	if got, want := enqueued(), 3*len(tr.Frames)+2+3; got != want {
		t.Fatalf("after the switch: %d frames enqueued, want %d", got, want)
	}
	// Switching to "none" stops the replay for good.
	eng.MustScheduleAt(eng.Now(), func(now time.Duration) { d.startReplay(nil, now) })
	eng.RunUntil(20 * time.Second)
	if got, want := enqueued(), 3*len(tr.Frames)+2+3; got != want {
		t.Fatalf("after switching to none: %d frames enqueued, want %d", got, want)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("the stopped replay left %d events queued", n)
	}
}
