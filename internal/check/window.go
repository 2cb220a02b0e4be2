// Windowed-parallel determinism layer: proves the WindowedNetwork
// worker-count independent.
//
// The windowed assembly (core.WindowedNetwork, DESIGN.md §13) claims
// that the worker count only bounds concurrency — the canonical frame
// stream on the hub medium must stay byte-identical, and every
// member's arrival log, protocol counters, and Section IV energy
// breakdown bit-identical, for ANY WindowWorkers value. This layer
// replays the same cell at workers 1, 2 and 4, collects the hub's
// observables with the shared collector (networkSide), and compares
// them against the sequential (workers=1) reference with the shared
// exact comparator (diffSides: ==, not tolerances). Cells sweep
// both population shapes (one cohort block vs individually-partitioned
// stations) and per-group fault plans on/off, so the proof covers the
// barrier merge under contention, downlink fault draws from the
// group-private RNG streams, and ACK-retry jitter.
package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/station"
	"repro/internal/trace"
)

// WindowWorkerSweep is the worker counts a windowed cell compares; the
// first entry is the sequential reference.
var WindowWorkerSweep = []int{1, 2, 4}

// WindowCell identifies one windowed-parallel determinism comparison:
// a population of Size HIDE members replaying a Scenario trace, shaped
// as one cohort block or as Size individually-partitioned stations,
// with per-group fault plans on or off.
type WindowCell struct {
	Scenario trace.Scenario
	Size     int
	Cohort   bool
	Fault    bool
}

// String labels the cell for reports.
func (c WindowCell) String() string {
	shape := "individual"
	if c.Cohort {
		shape = "cohort"
	}
	ch := "clean"
	if c.Fault {
		ch = "faulty"
	}
	return fmt.Sprintf("window/%s/%s/%s/n%d", c.Scenario, shape, ch, c.Size)
}

// windowFaultFor builds the per-group fault-plan factory for faulty
// cells: every group gets its own fresh Gilbert-Elliott channel
// (stateful, so it must never be shared across groups), consulted from
// the group's private index-seeded RNG stream — deterministic for any
// worker count by construction.
func windowFaultFor(on bool) func(int) fault.Plan {
	if !on {
		return nil
	}
	return func(group int) fault.Plan {
		ge, err := fault.NewGilbertElliott(0.05, 0.30, 0.01, 0.25)
		if err != nil {
			panic("check: static Gilbert-Elliott parameters rejected: " + err.Error())
		}
		return ge
	}
}

// runWindowSide replays the cell's population through the windowed
// assembly at the given worker count and collects the hub's
// observables with the shared collector.
func runWindowSide(tr *trace.Trace, open []uint16, cfg EquivConfig, c WindowCell, workers int) (*equivSide, error) {
	w, err := core.NewWindowedNetwork(core.WindowConfig{
		Network:  core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: cfg.Seed},
		Workers:  workers,
		FaultFor: windowFaultFor(c.Fault),
	})
	if err != nil {
		return nil, err
	}
	d := newAirDigest()
	w.Hub.Medium.SetTap(d.tap)
	if c.Cohort {
		if _, err := w.AddCohort(station.HIDE, open, c.Size, 1); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < c.Size; i++ {
			if _, err := w.AddStation(station.HIDE, open); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Replay(tr); err != nil {
		return nil, err
	}
	return networkSide(d, w.Hub), nil
}

// WindowResult is one compared cell: the sequential reference against
// every other worker count in the sweep.
type WindowResult struct {
	Cell WindowCell
	// Frames is the number of frames the reference run put on the hub
	// air.
	Frames int
	// Mismatch names the first diverging observable, prefixed with the
	// diverging worker count ("" = exact at every count).
	Mismatch string
}

// OK reports whether every worker count reproduced the reference.
func (r WindowResult) OK() bool { return r.Mismatch == "" }

// RunWindowCell runs one windowed-parallel determinism comparison
// across WindowWorkerSweep.
func RunWindowCell(c WindowCell, cfg EquivConfig) (WindowResult, error) {
	cfg = cfg.normalized()
	tr, open, err := equivTrace(c.Scenario, c.Size, cfg)
	if err != nil {
		return WindowResult{}, err
	}
	window := core.ReplayEnd(tr)

	ref, err := runWindowSide(tr, open, cfg, c, WindowWorkerSweep[0])
	if err != nil {
		return WindowResult{}, fmt.Errorf("check: %v workers=%d: %w", c, WindowWorkerSweep[0], err)
	}
	res := WindowResult{Cell: c, Frames: ref.frames}
	for _, workers := range WindowWorkerSweep[1:] {
		side, err := runWindowSide(tr, open, cfg, c, workers)
		if err != nil {
			return WindowResult{}, fmt.Errorf("check: %v workers=%d: %w", c, workers, err)
		}
		if d := diffSides(ref, side, "workers=1", fmt.Sprintf("workers=%d", workers), cfg.Devices, window); d != "" {
			res.Mismatch = fmt.Sprintf("workers=%d: %s", workers, d)
			return res, nil
		}
	}
	return res, nil
}

// DefaultWindowCells is the acceptance grid: both population shapes ×
// fault plans on/off, on a light and a heavy scenario.
func DefaultWindowCells() []WindowCell {
	var cells []WindowCell
	for _, sc := range []trace.Scenario{trace.Starbucks, trace.Classroom} {
		for _, cohort := range []bool{false, true} {
			for _, faulty := range []bool{false, true} {
				cells = append(cells, WindowCell{Scenario: sc, Size: 6, Cohort: cohort, Fault: faulty})
			}
		}
	}
	return cells
}
