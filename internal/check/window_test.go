package check

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/station"
	"repro/internal/trace"
)

// testEquivDuration shortens the traces of the window grid. 90 seconds
// covers several DTIM rounds of every scenario including Classroom's
// dense bursts.
const testEquivDuration = 90 * time.Second

// TestWindowEquiv is the windowed-parallel acceptance grid: every cell
// replays the same population at WindowWorkers 1, 2 and 4 and requires
// the hub frame stream byte-identical and every member's counters,
// arrivals, and energy bit-identical across the sweep — both
// population shapes, with and without per-group fault plans. The claim
// is per-event, so a short window that crosses several DTIM rounds
// (suspend cycles, port-message handshakes, hardened refreshes,
// barrier-merged retries) proves as much as the full capture.
func TestWindowEquiv(t *testing.T) {
	cells := DefaultWindowCells()
	cfg := EquivConfig{Duration: testEquivDuration}
	if testing.Short() {
		cells = []WindowCell{
			{Scenario: trace.Classroom, Size: 6, Cohort: false, Fault: true},
			{Scenario: trace.Classroom, Size: 6, Cohort: true, Fault: false},
		}
		cfg.Duration = 45 * time.Second
	}
	for _, c := range cells {
		res, err := RunWindowCell(c, cfg)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !res.OK() {
			t.Errorf("%v diverged: %s", c, res.Mismatch)
		}
		if res.Frames == 0 {
			t.Errorf("%v: zero frames on the hub air — the cell proved nothing", c)
		}
	}
}

// TestWindowCellValidation: degenerate sizes are rejected up front.
func TestWindowCellValidation(t *testing.T) {
	_, err := RunWindowCell(WindowCell{Scenario: trace.WRL, Size: 0},
		EquivConfig{Duration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("size 0 accepted: %v", err)
	}
}

// TestWindowCellLabel pins the report label format.
func TestWindowCellLabel(t *testing.T) {
	c := WindowCell{Scenario: trace.Classroom, Size: 6, Cohort: true, Fault: true}
	if got := c.String(); got != "window/Classroom/cohort/faulty/n6" {
		t.Fatalf("label %q", got)
	}
}

// TestWindowCancellation cancels a windowed replay from a hub event in
// the middle of a window and requires ReplayContext to surface
// context.Canceled promptly: the barrier loop checks the context every
// window, the group engines carry an interrupt hook that aborts
// in-flight drains between events, and a torn run must report the
// cancellation rather than a partial result.
func TestWindowCancellation(t *testing.T) {
	tr, err := oracleTrace(trace.Classroom, 0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))

	w, err := core.NewWindowedNetwork(core.WindowConfig{
		Network: core.NetworkConfig{DTIMPeriod: 1, HIDE: true},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := w.AddStation(station.HIDE, open); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire mid-run, off the barrier grid: the hub phase that dispatches
	// this event is followed by a group phase whose workers must observe
	// the cancellation and abort.
	cancelAt := 10*time.Second + w.Window()/3
	w.Hub.Engine.MustScheduleAt(cancelAt, func(at time.Duration) { cancel() })

	err = w.ReplayContext(ctx, tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	if now := w.Hub.Engine.Now(); now < cancelAt || now > cancelAt+2*w.Window() {
		t.Fatalf("hub clock %v after cancellation at %v — the run did not stop near the cancelling window", now, cancelAt)
	}
}
