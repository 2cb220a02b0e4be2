package check

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

// Cell identifies one differential-oracle comparison: a policy run over
// a scenario trace for a device, at a seed perturbation of the
// scenario's calibrated generator seed (0 = the calibrated seed
// itself).
type Cell struct {
	Policy   policy.Kind
	Scenario trace.Scenario
	Device   energy.Profile
	Seed     uint64
}

// String labels the cell for reports.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%s/seed%d", c.Policy, c.Scenario, c.Device.Name, c.Seed)
}

// defaultUsefulTarget is the port-derived useful-traffic fraction the
// harness builds open-port sets from: 0.10, the paper's headline sweep
// point.
const defaultUsefulTarget = 0.10

// OracleConfig tunes a differential-oracle run. Every cell is judged
// by DefaultTolerance.
type OracleConfig struct {
	// Duration truncates the scenario traces; zero keeps the paper's
	// full capture durations (30-60 min). Tests use a few minutes so
	// the protocol simulations stay fast.
	Duration time.Duration
	// UsefulTarget is the port-derived useful-traffic fraction (default
	// 0.10, the paper's headline sweep point). Both sides classify by
	// the same open-port set, so they agree on which frames are useful.
	UsefulTarget float64
	// CheckInvariants attaches the runtime invariant checker to every
	// protocol run (on by default in tests, flag-gated in
	// cmd/crosscheck).
	CheckInvariants bool
	// Mutate, when non-nil, runs against the protocol network after the
	// station is attached and before the replay — the fault-injection
	// point used to demonstrate that a broken Algorithm 1 fails both
	// the oracle and the BTIM invariant.
	Mutate func(n *core.Network)
	// Workers bounds the sweep's parallelism: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the sequential path. The cell
	// results are identical for any worker count.
	Workers int
}

// normalized fills defaults.
func (c OracleConfig) normalized() OracleConfig {
	if c.UsefulTarget <= 0 {
		c.UsefulTarget = defaultUsefulTarget
	}
	return c
}

// CellResult is one compared cell: both sides' breakdowns, the
// per-component diffs, and any invariant violations from the protocol
// run.
type CellResult struct {
	Cell       Cell
	Analytic   energy.Breakdown
	Protocol   energy.Breakdown
	Diffs      []ComponentDiff
	Violations []Violation
}

// OK reports whether every component agreed and no invariant fired.
func (r CellResult) OK() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, d := range r.Diffs {
		if !d.OK {
			return false
		}
	}
	return true
}

// Worst returns the component with the largest relative divergence.
func (r CellResult) Worst() ComponentDiff {
	var worst ComponentDiff
	for i, d := range r.Diffs {
		if i == 0 || d.Rel > worst.Rel {
			worst = d
		}
	}
	return worst
}

// oracleTrace generates the cell's trace: the scenario's calibrated
// configuration with the generator seed perturbed per oracle seed and
// the duration optionally shortened. Generation goes through the
// shared memoized cache, so concurrent cells of the same (scenario,
// seed, duration) share one trace.
func oracleTrace(s trace.Scenario, seed uint64, d time.Duration) (*trace.Trace, error) {
	cfg := trace.ScenarioConfig(s)
	if seed != 0 {
		cfg.Seed ^= seed * 0x9e3779b97f4a7c15
	}
	if d > 0 && d < cfg.Duration {
		cfg.Duration = d
	}
	return engine.Traces.Generate(cfg)
}

// alignDTIM maps the trace onto the delivery schedule the protocol
// simulation induces: the AP buffers every group frame until the beacon
// after its arrival (DTIMPeriod 1) and flushes the burst serially
// behind the beacon on the FIFO medium, rewriting the MoreData bit to
// chain the burst per 802.11. The returned trace carries end-of-airtime
// delivery times — what the station's radio records — so the analytic
// model prices the same reception schedule the protocol station sees.
// The paper's model treats trace timestamps as radio delivery times
// (its captures were client-side), so this transform is the oracle's
// bridge from distribution-system arrival times to delivery times.
//
// For the HIDE side (hide true, with the usefulness vector) the
// MoreData chain runs over each burst's useful subsequence instead:
// the HIDE policy drops the ride-along frames before the model sees
// them, so a bit pointing at a dropped frame would price a spurious
// idle-listening tail to the interval's end — in the protocol run the
// station's listen window closes with the burst, milliseconds later.
func alignDTIM(tr *trace.Trace, useful []bool, hide bool) *trace.Trace {
	interval := dot11.DefaultBeaconInterval
	beaconAir := dot11.FrameAirtime(representativeBeaconLen(hide)+dot11.FCSLen, dot11.BasicRate)
	out := &trace.Trace{Name: tr.Name, Duration: tr.Duration}
	frames := tr.Frames
	for i := 0; i < len(frames); {
		flushAt := (frames[i].At/interval + 1) * interval
		j := i
		for j < len(frames) && frames[j].At/interval == frames[i].At/interval {
			j++
		}
		busy := flushAt + beaconAir
		for ; i < j; i++ {
			f := frames[i]
			start := busy + dot11.DIFS
			busy = start + dot11.FrameAirtime(f.Length+dot11.FCSLen, f.Rate)
			f.At = busy + dot11.PropagationDelay
			if hide {
				f.MoreData = laterUseful(useful, i, j)
			} else {
				f.MoreData = i < j-1
			}
			out.Frames = append(out.Frames, f)
		}
	}
	return out
}

// laterUseful reports whether any frame after index i (exclusive) up to
// burst end j (exclusive) is useful.
func laterUseful(useful []bool, i, j int) bool {
	for k := i + 1; k < j; k++ {
		if useful[k] {
			return true
		}
	}
	return false
}

// representativeBeaconLen returns the marshalled length of the beacons
// the oracle's network emits (fixed SSID, empty TIM, and — for HIDE
// APs — a minimal BTIM), used to price the beacon's airtime ahead of
// each flushed burst.
func representativeBeaconLen(hide bool) int {
	b := &dot11.Beacon{
		Header: dot11.MACHeader{Addr1: dot11.Broadcast},
		SSID:   "hide-sim",
		TIM:    &dot11.TIM{},
	}
	if hide {
		btim := dot11.BTIMFromBitmap(&dot11.VirtualBitmap{})
		b.BTIM = &btim
	}
	raw, err := b.Marshal()
	if err != nil {
		// The beacon is a fixed literal; marshal cannot fail.
		panic(fmt.Sprintf("check: representative beacon marshal: %v", err))
	}
	return len(raw)
}

// modeFor maps the analytic policy to the protocol station mode.
func modeFor(k policy.Kind) (station.Mode, error) {
	switch k {
	case policy.ReceiveAll:
		return station.Legacy, nil
	case policy.ClientSide:
		return station.ClientSide, nil
	case policy.HIDE:
		return station.HIDE, nil
	default:
		return 0, fmt.Errorf("check: no protocol-station mode for policy %v", k)
	}
}

// protocolRun replays the trace through the frame-level simulation —
// real AP, real station, marshalled frames — and returns the station
// (whose arrival log prices the protocol side) plus any invariant
// violations. DTIMPeriod is 1 so group delivery is delayed by at most
// one beacon interval, which is what the tolerance bands price in.
func protocolRun(tr *trace.Trace, kind policy.Kind, open []uint16, seed uint64, cfg OracleConfig) (*station.Station, []Violation, error) {
	mode, err := modeFor(kind)
	if err != nil {
		return nil, nil, err
	}
	n, err := core.NewNetwork(core.NetworkConfig{
		DTIMPeriod: 1,
		HIDE:       kind == policy.HIDE,
		Seed:       seed,
	})
	if err != nil {
		return nil, nil, err
	}
	st, err := n.AddStation(mode, open)
	if err != nil {
		return nil, nil, err
	}
	var inv *Invariants
	if cfg.CheckInvariants {
		inv = NewInvariants()
		inv.Watch(n)
	}
	if cfg.Mutate != nil {
		cfg.Mutate(n)
	}
	if err := n.Replay(tr); err != nil {
		return nil, nil, err
	}
	var viol []Violation
	if inv != nil {
		inv.Finish(core.ReplayEnd(tr))
		viol = inv.Violations()
	}
	return st, viol, nil
}

// analyticBreakdown prices the cell on the analytic side: the policy
// filters the tagged trace and the Section IV model evaluates the
// result over the same window the protocol run covers.
func analyticBreakdown(tr *trace.Trace, useful []bool, kind policy.Kind, dev energy.Profile, window time.Duration) (energy.Breakdown, error) {
	p, err := policy.New(kind)
	if err != nil {
		return energy.Breakdown{}, err
	}
	arr, err := policy.AppendArrivals(nil, p, tr, useful)
	if err != nil {
		return energy.Breakdown{}, err
	}
	cfg := energy.Config{Device: dev, Duration: window}
	if kind.HasOverhead() {
		cfg.Overhead = energy.DefaultOverhead()
	}
	return energy.Compute(arr, cfg)
}

// Compare builds the per-component diff list between the two sides.
func Compare(analytic, protocol energy.Breakdown, tol Tolerance) []ComponentDiff {
	tol = tol.normalized()
	diffJ := func(name string, a, p, rel float64) ComponentDiff {
		r := relDiff(a, p)
		return ComponentDiff{
			Name: name, Analytic: a, Protocol: p, Rel: r,
			OK: r <= rel || absDiff(a, p) <= tol.AbsJ,
		}
	}
	sus := ComponentDiff{
		Name:     "suspend",
		Analytic: analytic.SuspendFraction,
		Protocol: protocol.SuspendFraction,
		Rel:      relDiff(analytic.SuspendFraction, protocol.SuspendFraction),
		OK:       absDiff(analytic.SuspendFraction, protocol.SuspendFraction) <= tol.AbsSuspend,
	}
	return []ComponentDiff{
		diffJ("Eb", analytic.EbJ, protocol.EbJ, tol.RelEb),
		diffJ("Ef", analytic.EfJ, protocol.EfJ, tol.RelEf),
		diffJ("Ewl", analytic.EwlJ, protocol.EwlJ, tol.RelEwl),
		diffJ("Est", analytic.EstJ, protocol.EstJ, tol.RelEst),
		diffJ("Eo", analytic.EoJ, protocol.EoJ, tol.RelEo),
		diffJ("total", analytic.TotalJ(), protocol.TotalJ(), tol.RelTotal),
		sus,
	}
}

// absDiff returns |a-b|.
func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// RunCell runs one full differential comparison: generate the trace,
// price it analytically, replay it through the protocol simulation,
// and diff the breakdowns.
func RunCell(c Cell, cfg OracleConfig) (CellResult, error) {
	res, err := matrixUnit{scenario: c.Scenario, seed: c.Seed, kind: c.Policy}.run([]energy.Profile{c.Device}, cfg.normalized())
	if err != nil {
		return CellResult{}, err
	}
	return res[0], nil
}

// sortedPorts flattens an open-port set into the sorted list the
// station API takes.
func sortedPorts(open map[uint16]bool) []uint16 {
	out := make([]uint16, 0, len(open))
	for p := range open {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Matrix is the full differential-oracle sweep.
type Matrix struct {
	Policies  []policy.Kind
	Scenarios []trace.Scenario
	Devices   []energy.Profile
	Seeds     []uint64
	Config    OracleConfig
}

// DefaultMatrix covers the acceptance grid: the paper's three compared
// policies × all five scenario traces × both Table I devices × three
// seeds.
func DefaultMatrix() Matrix {
	return Matrix{
		Policies:  []policy.Kind{policy.ReceiveAll, policy.ClientSide, policy.HIDE},
		Scenarios: trace.Scenarios,
		Devices:   []energy.Profile{energy.NexusOne, energy.GalaxyS4},
		Seeds:     []uint64{0, 1, 2},
		Config:    OracleConfig{CheckInvariants: true},
	}
}

// MatrixResult collects every cell of a sweep.
type MatrixResult struct {
	Results []CellResult
}

// matrixUnit is one schedulable unit of the sweep: a (scenario, seed,
// policy) triple. The trace and the protocol simulation are shared
// across devices (the device only changes how the arrival log is
// priced), so a unit runs one protocol simulation and prices it for
// every device.
type matrixUnit struct {
	scenario trace.Scenario
	seed     uint64
	kind     policy.Kind
}

// run executes the unit and returns one CellResult per device of devs,
// in order.
func (u matrixUnit) run(devs []energy.Profile, cfg OracleConfig) ([]CellResult, error) {
	tr, err := oracleTrace(u.scenario, u.seed, cfg.Duration)
	if err != nil {
		return nil, err
	}
	open := trace.OpenPortsForFraction(tr, cfg.UsefulTarget)
	useful := trace.TagByOpenPorts(tr, open)
	st, viol, err := protocolRun(tr, u.kind, sortedPorts(open), u.seed, cfg)
	if err != nil {
		return nil, err
	}
	arrivals := st.Arrivals()
	aligned := alignDTIM(tr, useful, u.kind == policy.HIDE)
	window := core.ReplayEnd(tr)
	out := make([]CellResult, 0, len(devs))
	for _, dev := range devs {
		c := Cell{Policy: u.kind, Scenario: u.scenario, Device: dev, Seed: u.seed}
		a, err := analyticBreakdown(aligned, useful, u.kind, dev, window)
		if err != nil {
			return nil, fmt.Errorf("check: %v analytic: %w", c, err)
		}
		ecfg := energy.Config{Device: dev, Duration: window}
		if u.kind.HasOverhead() {
			ecfg.Overhead = energy.DefaultOverhead()
		}
		p, err := energy.Compute(arrivals, ecfg)
		if err != nil {
			return nil, fmt.Errorf("check: %v protocol: %w", c, err)
		}
		out = append(out, CellResult{
			Cell: c, Analytic: a, Protocol: p,
			Diffs:      Compare(a, p, DefaultTolerance()),
			Violations: viol,
		})
	}
	return out, nil
}

// RunContext executes the sweep, fanning the (scenario × seed ×
// policy) protocol units over the worker pool configured by
// Config.Workers and reducing the per-unit results back into the
// sequential path's exact cell order — the output is byte-identical
// for any worker count. A cancelled ctx returns promptly with
// context.Canceled in the error chain.
func (m Matrix) RunContext(ctx context.Context) (*MatrixResult, error) {
	cfg := m.Config.normalized()
	var units []matrixUnit
	for _, sc := range m.Scenarios {
		for _, seed := range m.Seeds {
			for _, kind := range m.Policies {
				units = append(units, matrixUnit{scenario: sc, seed: seed, kind: kind})
			}
		}
	}
	cells, err := engine.Map(ctx, cfg.Workers, len(units), func(_ context.Context, i int) ([]CellResult, error) {
		return units[i].run(m.Devices, cfg)
	})
	if err != nil {
		return nil, err
	}
	out := &MatrixResult{}
	for _, cs := range cells {
		out.Results = append(out.Results, cs...)
	}
	return out, nil
}

// Failures returns the cells that disagreed or violated an invariant.
func (r *MatrixResult) Failures() []CellResult { return failures(r.Results, CellResult.OK) }

// Err returns nil when every cell passed, otherwise an error naming the
// failing cells.
func (r *MatrixResult) Err() error {
	return failErr("oracle cells failed", r.Results, CellResult.OK, func(c CellResult) string { return c.Cell.String() })
}
