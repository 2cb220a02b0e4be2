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

// TestScheduleTraceLoopsUntilGenerationBump replays a three-frame,
// one-second trace on a bare engine and AP: every pass enqueues each
// frame exactly once, and bumping the replay generation mid-pass (what
// a reload that switches scenarios does) stops the old replay for good.
func TestScheduleTraceLoopsUntilGenerationBump(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, dot11.DefaultPHY(), 1)
	d := &Daemon{eng: eng, ap: ap.New(eng, med, ap.Config{BSSID: dot11.MACAddr{2, 0, 0, 0, 0, 1}, HIDE: true})}
	tr := &trace.Trace{Name: "tiny", Duration: time.Second, Frames: []trace.Frame{
		{At: 0, Length: 120, Rate: dot11.Rate1Mbps, DstPort: 5353},
		{At: 300 * time.Millisecond, Length: 300, Rate: dot11.Rate1Mbps, DstPort: 137},
		{At: 900 * time.Millisecond, Length: 80, Rate: dot11.Rate1Mbps, DstPort: 1900},
	}}
	d.scheduleTrace(tr, d.replayGen.Load(), 0)
	enqueued := func() int { return d.ap.Stats().GroupFramesEnqueued }
	for pass := 1; pass <= 3; pass++ {
		eng.RunUntil(time.Duration(pass)*time.Second - time.Nanosecond)
		if got, want := enqueued(), pass*len(tr.Frames); got != want {
			t.Fatalf("after pass %d: %d frames enqueued, want %d", pass, got, want)
		}
	}
	// Bump mid-pass: the fourth pass's frames at 3.0 s and 3.3 s are
	// in, the one at 3.9 s and every later pass must not be.
	eng.RunUntil(3500 * time.Millisecond)
	d.replayGen.Add(1)
	eng.RunUntil(10 * time.Second)
	if got, want := enqueued(), 3*len(tr.Frames)+2; got != want {
		t.Fatalf("after the generation bump: %d frames enqueued, want %d", got, want)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("the stopped replay left %d events queued", n)
	}
}
