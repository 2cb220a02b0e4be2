// Equivalence harness.
//
// Every equivalence layer compares sides built the same way: a
// replayed core.Network's observables are collected by networkSide
// (the air fingerprint, then one entry per client) and two sides are
// compared by diffSides on every observable the simulation exposes:
// the monitor-mode frame stream (byte-identical, in order), each
// member's arrival log and protocol counters, and the Section IV
// energy breakdown priced from those arrivals (bit-identical floats —
// compared with ==, not a tolerance).

package check

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

// EquivCell identifies one equivalence comparison: a station
// population of Size members in the mode matching Policy, replaying a
// Scenario trace.
type EquivCell struct {
	Policy   policy.Kind
	Scenario trace.Scenario
	Size     int
}

// String labels the cell for reports.
func (c EquivCell) String() string {
	return fmt.Sprintf("%s/%s/n%d", c.Policy, c.Scenario, c.Size)
}

// EquivConfig tunes an equivalence run.
type EquivConfig struct {
	// Duration truncates the scenario traces; zero keeps the paper's
	// full capture durations. Tests use a couple of minutes.
	Duration time.Duration
	// Seed perturbs the scenario's calibrated generator seed and drives
	// both sides' jitter RNGs, like the oracle's Cell.Seed.
	Seed uint64
	// Devices are the profiles the per-member breakdowns are priced
	// for; empty selects both Table I devices.
	Devices []energy.Profile
	// Workers bounds the matrix parallelism: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the sequential path.
	Workers int
}

// normalized fills defaults.
func (c EquivConfig) normalized() EquivConfig {
	if len(c.Devices) == 0 {
		c.Devices = []energy.Profile{energy.NexusOne, energy.GalaxyS4}
	}
	return c
}

// equivTrace returns a cell's trace and the sorted open-port set every
// member listens on (built for defaultUsefulTarget), rejecting an empty
// population up front.
func equivTrace(sc trace.Scenario, size int, cfg EquivConfig) (*trace.Trace, []uint16, error) {
	if size < 1 {
		return nil, nil, fmt.Errorf("check: equivalence size %d < 1", size)
	}
	tr, err := oracleTrace(sc, cfg.Seed, cfg.Duration)
	if err != nil {
		return nil, nil, err
	}
	return tr, sortedPorts(trace.OpenPortsForFraction(tr, defaultUsefulTarget)), nil
}

// airDigest fingerprints a monitor-mode capture: an FNV-1a hash over
// every transmission's start-of-airtime instant, PHY rate, and raw
// bytes, in serialization order. Two runs share a fingerprint exactly
// when their frame streams are byte-identical and identically timed.
type airDigest struct {
	h      hash.Hash64
	frames int
}

func newAirDigest() *airDigest { return &airDigest{h: fnv.New64a()} }

func (d *airDigest) tap(raw []byte, rate dot11.Rate, at time.Duration) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(at))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rate))
	//lint:ignore errdrop hash.Hash writes never fail
	d.h.Write(hdr[:])
	//lint:ignore errdrop hash.Hash writes never fail
	d.h.Write(raw)
	d.frames++
}

// equivSide is one side's observables: the air fingerprint, the
// per-member pricing inputs, indexed by member, and the ESS shard's
// invariant violations.
type equivSide struct {
	fp         uint64
	frames     int
	arrivals   [][]energy.Arrival
	stats      []station.Stats
	violations []Violation
}

// networkSide collects a replayed network's observables: its air, then
// one entry per client — each station, then each cohort's members. A
// cohort's one log stands for every member, so it is expanded here and
// compared per member.
func networkSide(d *airDigest, n *core.Network) *equivSide {
	side := &equivSide{fp: d.h.Sum64(), frames: d.frames}
	for _, st := range n.Stations() {
		side.arrivals = append(side.arrivals, st.Arrivals())
		side.stats = append(side.stats, st.Stats())
	}
	for _, c := range n.Cohorts() {
		arr, st := c.Arrivals(), c.MemberStats()
		for i := 0; i < c.Count(); i++ {
			side.arrivals = append(side.arrivals, arr)
			side.stats = append(side.stats, st)
		}
	}
	return side
}

// EquivResult is one compared cell. Mismatch is empty when the two
// sides matched exactly, otherwise it names the first observable that
// diverged.
type EquivResult struct {
	Cell EquivCell
	// Frames is the number of frames the reference side put on air.
	Frames int
	// Mismatch names the first diverging observable ("" = exact).
	Mismatch string
}

// OK reports whether the cell was exact.
func (r EquivResult) OK() bool { return r.Mismatch == "" }

// diffSides is the one comparator of every equivalence layer: it
// compares the frame count and air fingerprint, the member count, then
// each member's stats, arrivals and bit-identical energy for every
// device, and names the first divergence ("" = exact). an and bn name
// the two sides.
func diffSides(a, b *equivSide, an, bn string, devs []energy.Profile, window time.Duration) string {
	if a.frames != b.frames {
		return fmt.Sprintf("frame count: %s %d, %s %d", an, a.frames, bn, b.frames)
	}
	if a.fp != b.fp {
		return fmt.Sprintf("frame-stream fingerprint: %s %016x, %s %016x", an, a.fp, bn, b.fp)
	}
	if len(a.stats) != len(b.stats) {
		return fmt.Sprintf("member count: %s %d, %s %d", an, len(a.stats), bn, len(b.stats))
	}
	for i := range a.stats {
		if a.stats[i] != b.stats[i] {
			return fmt.Sprintf("member %d stats: %s %+v, %s %+v", i, an, a.stats[i], bn, b.stats[i])
		}
		if d := diffArrivals(a.arrivals[i], b.arrivals[i], an, bn); d != "" {
			return fmt.Sprintf("member %d %s", i, d)
		}
		for _, dev := range devs {
			ecfg := energy.Config{Device: dev, Duration: window, BeaconListenInterval: 1}
			ab, err := energy.Compute(a.arrivals[i], ecfg)
			if err != nil {
				return fmt.Sprintf("member %d %s energy: %v", i, an, err)
			}
			bb, err := energy.Compute(b.arrivals[i], ecfg)
			if err != nil {
				return fmt.Sprintf("member %d %s energy: %v", i, bn, err)
			}
			if ab != bb {
				return fmt.Sprintf("member %d %s energy: %s %+v, %s %+v", i, dev.Name, an, ab, bn, bb)
			}
		}
	}
	return ""
}

// diffArrivals compares two arrival logs entry by entry.
func diffArrivals(a, b []energy.Arrival, an, bn string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("arrival count: %s %d, %s %d", an, len(a), bn, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("arrival %d: %s %+v, %s %+v", i, an, a[i], bn, b[i])
		}
	}
	return ""
}

// EquivMatrix is an equivalence grid: policies × scenarios × sizes,
// each cell run by the same cell runner.
type EquivMatrix struct {
	Policies  []policy.Kind
	Scenarios []trace.Scenario
	Sizes     []int
	Config    EquivConfig
}

// EquivMatrixResult collects every cell of a sweep.
type EquivMatrixResult struct {
	Results []EquivResult
}

// RunContext executes the sweep with run as the cell runner
// (RunESSEquivCellContext), fanning cells over the
// worker pool configured by Config.Workers; the cell order
// (policy-major, then scenario, then size) is identical for any worker
// count.
func (m EquivMatrix) RunContext(ctx context.Context, run func(context.Context, EquivCell, EquivConfig) (EquivResult, error)) (*EquivMatrixResult, error) {
	cfg := m.Config.normalized()
	var cells []EquivCell
	for _, kind := range m.Policies {
		for _, sc := range m.Scenarios {
			for _, size := range m.Sizes {
				cells = append(cells, EquivCell{Policy: kind, Scenario: sc, Size: size})
			}
		}
	}
	res, err := engine.Map(ctx, cfg.Workers, len(cells), func(ctx context.Context, i int) (EquivResult, error) {
		return run(ctx, cells[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	return &EquivMatrixResult{Results: res}, nil
}

// Err returns nil when every cell was exact, otherwise an error naming
// the diverging cells.
func (r *EquivMatrixResult) Err() error {
	return failErr("equivalence cells diverged", r.Results, EquivResult.OK, func(c EquivResult) string {
		return fmt.Sprintf("%v (%s)", c.Cell, c.Mismatch)
	})
}

// failures and failErr are the failing-cell fold of every grid:
// failures returns the results ok rejects, and failErr an error naming
// each of them (nil when every result passed).
func failures[R any](results []R, ok func(R) bool) []R {
	var bad []R
	for _, r := range results {
		if !ok(r) {
			bad = append(bad, r)
		}
	}
	return bad
}

func failErr[R any](what string, results []R, ok func(R) bool, name func(R) string) error {
	bad := failures(results, ok)
	if len(bad) == 0 {
		return nil
	}
	names := make([]string, len(bad))
	for i, r := range bad {
		names[i] = name(r)
	}
	return fmt.Errorf("check: %d/%d %s: %v", len(bad), len(results), what, names)
}
