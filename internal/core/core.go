// Package core wires the substrates together into the paper's
// trace-driven evaluation pipeline (Section VI-A): it applies a
// traffic-management policy to a tagged broadcast trace, runs the
// Section IV energy model, and produces the rows of Figures 7, 8 and 9.
//
// The pipeline is context-aware and parallel: the *Context entry
// points fan independent evaluation cells over a worker pool
// (internal/engine) with a deterministic ordered reduction, so the
// parallel output is byte-identical to the sequential path for any
// worker count.
//
// For the client-side solution the paper compares against "the lower
// bound energy consumption of the client-side solution derived by the
// authors" of [6]. This package computes that lower bound by sweeping
// the driver-processing wakelock the filter holds for a useless frame
// over a candidate set — from dropping instantly (cheap on sparse
// traffic, pathological suspend churn on dense traffic) up to the full
// 1 s wakelock (which degenerates to receive-all) — and keeping the
// cheapest outcome. By construction the lower bound never exceeds
// receive-all, matching the paper's "barely saves energy" observation
// on the heavy traces.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// evalScratch is the per-worker scratch an evaluation cell needs: the
// usefulness vector and the arrival buffer. Cells take one from
// scratchPool and return it, so a suite run reuses a few buffers across
// its dozens of cells instead of allocating (and zeroing) fresh slices
// per cell. Nothing downstream retains either slice: policies write
// arrivals, the energy model reads them, and only the scalar Breakdown
// survives.
type evalScratch struct {
	useful   []bool
	arrivals []energy.Arrival
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// clientSideSweep is the candidate driver-wakelock set for the
// client-side lower bound. The final candidate is τ, i.e. the
// receive-all behaviour, so the lower bound is ≤ receive-all.
var clientSideSweep = [...]time.Duration{
	0,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	energy.Tau,
}

// DefaultSeed is the usefulness-tagging seed an Options value selects
// when no seed was set explicitly.
const DefaultSeed uint64 = 0x51de

// Options tunes an evaluation. The zero value reproduces the paper's
// settings (Section VI-A2); HIDE cells are priced with
// energy.DefaultOverhead.
type Options struct {
	// Seed drives usefulness tagging. When HasSeed is false a zero
	// Seed selects DefaultSeed; set HasSeed (or use WithSeed) to make
	// seed 0 itself selectable.
	Seed uint64
	// HasSeed marks Seed as explicitly chosen, so Seed == 0 means the
	// literal seed 0 rather than the default.
	HasSeed bool
	// Workers bounds the evaluation parallelism of the suite-level
	// entry points: 0 selects runtime.GOMAXPROCS(0), 1 forces the
	// sequential path. The output is identical either way.
	Workers int
	// Cohort caps the number of clients folded into one cohort station
	// in scaling runs (ScaleClientsNetwork): 0 or 1 models every client
	// individually, larger values chunk each port class into cohorts of
	// at most Cohort members, enabling 10⁵–10⁶ client populations.
	Cohort int
	// WindowWorkers switches protocol-simulation runs (the scaling
	// entry points) to the windowed-parallel assembly
	// (WindowedNetwork): stations advance through one DTIM window per
	// barrier on up to WindowWorkers goroutines, with AP-side effects
	// merged serially. 0 keeps the legacy single-engine Network; any
	// value ≥ 1 selects windowed mode with that concurrency bound — the
	// output is byte-identical for every WindowWorkers ≥ 1, and 1 is
	// the sequential reference the equivalence suite compares against.
	// The analytic pipeline (RunSuiteContext et al.) has no event-driven
	// simulation to window and ignores the field; its parallelism knob
	// is Workers.
	WindowWorkers int
}

// WithSeed returns a copy of o selecting the tagging seed explicitly
// (including seed 0, which the Seed field alone cannot express).
func (o Options) WithSeed(seed uint64) Options {
	o.Seed = seed
	o.HasSeed = true
	return o
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if !o.HasSeed && o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	o.HasSeed = true
	return o
}

// Result is one evaluated (trace, device, policy, useful%) cell.
type Result struct {
	// Trace is the scenario name.
	Trace string
	// Device is the profile name.
	Device string
	// Policy identifies the solution evaluated.
	Policy policy.Kind
	// UsefulFraction is the fraction of broadcast frames useful to the
	// client (the x-axis annotation of Figures 7-8).
	UsefulFraction float64
	// Breakdown carries the energy components and suspend fraction.
	Breakdown energy.Breakdown
	// DriverWakelock is the wakelock chosen by the client-side
	// lower-bound sweep (zero for other policies).
	DriverWakelock time.Duration
}

// AvgPowerMW returns the average power in milliwatts, the y-axis of
// Figures 7 and 8.
func (r Result) AvgPowerMW() float64 { return r.Breakdown.AvgPowerW() * 1000 }

// EvaluateContext runs one policy over a tagged trace for one device,
// honouring ctx between pipeline stages.
func EvaluateContext(ctx context.Context, tr *trace.Trace, useful []bool, dev energy.Profile, kind policy.Kind, opts Options) (Result, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	return evaluateScratch(ctx, tr, useful, dev, kind, opts, sc)
}

// evaluateScratch is EvaluateContext building arrivals in sc's reused
// buffer.
func evaluateScratch(ctx context.Context, tr *trace.Trace, useful []bool, dev energy.Profile, kind policy.Kind, opts Options, sc *evalScratch) (Result, error) {
	opts = opts.normalized()
	res := Result{
		Trace:          tr.Name,
		Device:         dev.Name,
		Policy:         kind,
		UsefulFraction: trace.UsefulFraction(useful),
	}
	cfg := energy.Config{Device: dev, Duration: tr.Duration}
	if kind.HasOverhead() {
		cfg.Overhead = energy.DefaultOverhead()
	}

	if kind == policy.ClientSide {
		// Build the arrivals once, then price every candidate driver
		// wakelock in one walk: arrivals and frames index 1:1 for this
		// policy, and the sweep gives the useless frames each candidate's
		// wakelock in turn.
		arr, err := policy.AppendArrivals(sc.arrivals[:0], policy.ClientSidePolicy{}, tr, useful)
		if err != nil {
			return Result{}, err
		}
		sc.arrivals = arr
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		var sweep [len(clientSideSweep)]energy.Breakdown
		if err := energy.ComputeSweep(arr, useful, clientSideSweep[:], cfg, sweep[:]); err != nil {
			return Result{}, err
		}
		for k, b := range sweep {
			if k == 0 || b.TotalJ() < res.Breakdown.TotalJ() {
				res.Breakdown = b
				res.DriverWakelock = clientSideSweep[k]
			}
		}
		return res, nil
	}

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	p, err := policy.New(kind)
	if err != nil {
		return Result{}, err
	}
	arr, err := policy.AppendArrivals(sc.arrivals[:0], p, tr, useful)
	if err != nil {
		return Result{}, err
	}
	sc.arrivals = arr
	b, err := energy.Compute(arr, cfg)
	if err != nil {
		return Result{}, err
	}
	res.Breakdown = b
	return res, nil
}

// EvaluateFractionContext tags the trace with a uniform useful
// fraction and evaluates the policy.
func EvaluateFractionContext(ctx context.Context, tr *trace.Trace, fraction float64, dev energy.Profile, kind policy.Kind, opts Options) (Result, error) {
	if fraction < 0 || fraction > 1 {
		return Result{}, fmt.Errorf("core: useful fraction %v outside [0, 1]", fraction)
	}
	opts = opts.normalized()
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	sc.useful = trace.TagUniformInto(sc.useful[:0], tr, fraction, opts.Seed)
	return evaluateScratch(ctx, tr, sc.useful, dev, kind, opts, sc)
}

// UsefulFractions is the sweep of Figures 7-8: 10%, 8%, 6%, 4%, 2%.
var UsefulFractions = []float64{0.10, 0.08, 0.06, 0.04, 0.02}

// EnergyComparison is one trace's worth of Figure 7/8 bars: the
// receive-all bar, the client-side lower bound, and one HIDE bar per
// useful fraction.
type EnergyComparison struct {
	Trace      string
	Device     string
	ReceiveAll Result
	ClientSide Result
	HIDE       []Result // indexed like UsefulFractions
}

// Savings returns HIDE's energy saving versus receive-all for the i-th
// useful fraction, as a fraction in [0, 1].
func (c EnergyComparison) Savings(i int) float64 {
	ra := c.ReceiveAll.Breakdown.TotalJ()
	if ra <= 0 {
		return 0
	}
	return 1 - c.HIDE[i].Breakdown.TotalJ()/ra
}

// SavingsVsClientSide returns HIDE's saving versus the client-side
// lower bound for the i-th useful fraction.
func (c EnergyComparison) SavingsVsClientSide(i int) float64 {
	cs := c.ClientSide.Breakdown.TotalJ()
	if cs <= 0 {
		return 0
	}
	return 1 - c.HIDE[i].Breakdown.TotalJ()/cs
}

// compareBars lists the (policy, fraction) bars of one Figure 7/8
// comparison, in presentation order. The receive-all and client-side
// rows use the 10% tagging, like the paper's first two bars.
func compareBars() []evalCell {
	bars := []evalCell{
		{kind: policy.ReceiveAll, fraction: 0.10},
		{kind: policy.ClientSide, fraction: 0.10},
	}
	for _, f := range UsefulFractions {
		bars = append(bars, evalCell{kind: policy.HIDE, fraction: f})
	}
	return bars
}

// evalCell is one (policy, fraction) evaluation of a fixed trace.
type evalCell struct {
	kind     policy.Kind
	fraction float64
}

// CompareEnergyContext evaluates all Figure 7/8 bars for one trace and
// device, fanning the bars over the configured worker pool.
func CompareEnergyContext(ctx context.Context, tr *trace.Trace, dev energy.Profile, opts Options) (EnergyComparison, error) {
	out := EnergyComparison{Trace: tr.Name, Device: dev.Name}
	bars := compareBars()
	res, err := engine.Map(ctx, opts.Workers, len(bars), func(ctx context.Context, i int) (Result, error) {
		return EvaluateFractionContext(ctx, tr, bars[i].fraction, dev, bars[i].kind, opts)
	})
	if err != nil {
		return out, err
	}
	out.ReceiveAll = res[0]
	out.ClientSide = res[1]
	out.HIDE = res[2:]
	return out, nil
}

// SuspendRow is one trace's worth of Figure 9 bars: the fraction of
// time in suspend mode under each solution.
type SuspendRow struct {
	Trace      string
	Device     string
	ReceiveAll float64
	ClientSide float64
	HIDE10     float64
	HIDE2      float64
}

// suspendBars lists the four Figure 9 evaluations in row order.
var suspendBars = []evalCell{
	{kind: policy.ReceiveAll, fraction: 0.10},
	{kind: policy.ClientSide, fraction: 0.10},
	{kind: policy.HIDE, fraction: 0.10},
	{kind: policy.HIDE, fraction: 0.02},
}

// SuspendFractionsContext evaluates the Figure 9 row for one trace and
// device on the configured worker pool.
func SuspendFractionsContext(ctx context.Context, tr *trace.Trace, dev energy.Profile, opts Options) (SuspendRow, error) {
	row := SuspendRow{Trace: tr.Name, Device: dev.Name}
	res, err := engine.Map(ctx, opts.Workers, len(suspendBars), func(ctx context.Context, i int) (Result, error) {
		return EvaluateFractionContext(ctx, tr, suspendBars[i].fraction, dev, suspendBars[i].kind, opts)
	})
	if err != nil {
		return row, err
	}
	row.ReceiveAll = res[0].Breakdown.SuspendFraction
	row.ClientSide = res[1].Breakdown.SuspendFraction
	row.HIDE10 = res[2].Breakdown.SuspendFraction
	row.HIDE2 = res[3].Breakdown.SuspendFraction
	return row, nil
}

// Suite evaluates Figures 7/8 and 9 across all five scenarios for one
// device, generating the calibrated synthetic traces.
type Suite struct {
	Device      energy.Profile
	Comparisons []EnergyComparison // one per scenario
	Suspend     []SuspendRow       // one per scenario
}

// suiteJob is one deduplicated evaluation cell of the full suite grid:
// a (scenario, policy, fraction) triple. The Figure 9 row shares its
// receive-all, client-side, HIDE:10% and HIDE:2% cells with the
// Figure 7/8 bars, so the grid is deduplicated before scheduling.
type suiteJob struct {
	scenario trace.Scenario
	cell     evalCell
}

// suiteJobs flattens the full suite into a deterministic, deduplicated
// job list covering every Figure 7/8 bar and Figure 9 column.
func suiteJobs() []suiteJob {
	var jobs []suiteJob
	seen := make(map[suiteJob]bool)
	add := func(j suiteJob) {
		if !seen[j] {
			seen[j] = true
			jobs = append(jobs, j)
		}
	}
	for _, sc := range trace.Scenarios {
		for _, bar := range compareBars() {
			add(suiteJob{scenario: sc, cell: bar})
		}
		for _, bar := range suspendBars {
			add(suiteJob{scenario: sc, cell: bar})
		}
	}
	return jobs
}

// RunSuiteContext generates all scenario traces (through the shared
// memoized trace cache) and evaluates the full figure set for the
// device, fanning the deduplicated evaluation cells over the worker
// pool configured by opts.Workers. The result is byte-identical to the
// sequential path for any worker count.
func RunSuiteContext(ctx context.Context, dev energy.Profile, opts Options) (*Suite, error) {
	opts = opts.normalized()
	jobs := suiteJobs()
	res, err := engine.Map(ctx, opts.Workers, len(jobs), func(ctx context.Context, i int) (Result, error) {
		j := jobs[i]
		tr, err := engine.Traces.Scenario(j.scenario)
		if err != nil {
			return Result{}, fmt.Errorf("core: generating %v: %w", j.scenario, err)
		}
		r, err := EvaluateFractionContext(ctx, tr, j.cell.fraction, dev, j.cell.kind, opts)
		if err != nil {
			return Result{}, fmt.Errorf("core: evaluating %v %v@%g%%: %w", j.scenario, j.cell.kind, j.cell.fraction*100, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	byJob := make(map[suiteJob]Result, len(jobs))
	for i, j := range jobs {
		byJob[j] = res[i]
	}
	s := &Suite{Device: dev}
	for _, sc := range trace.Scenarios {
		name := ""
		cmp := EnergyComparison{Device: dev.Name}
		for i, bar := range compareBars() {
			r := byJob[suiteJob{scenario: sc, cell: bar}]
			name = r.Trace
			switch i {
			case 0:
				cmp.ReceiveAll = r
			case 1:
				cmp.ClientSide = r
			default:
				cmp.HIDE = append(cmp.HIDE, r)
			}
		}
		cmp.Trace = name
		s.Comparisons = append(s.Comparisons, cmp)
		row := SuspendRow{Trace: name, Device: dev.Name}
		row.ReceiveAll = byJob[suiteJob{scenario: sc, cell: suspendBars[0]}].Breakdown.SuspendFraction
		row.ClientSide = byJob[suiteJob{scenario: sc, cell: suspendBars[1]}].Breakdown.SuspendFraction
		row.HIDE10 = byJob[suiteJob{scenario: sc, cell: suspendBars[2]}].Breakdown.SuspendFraction
		row.HIDE2 = byJob[suiteJob{scenario: sc, cell: suspendBars[3]}].Breakdown.SuspendFraction
		s.Suspend = append(s.Suspend, row)
	}
	return s, nil
}

// SavingsRange returns the min and max HIDE saving versus receive-all
// across the suite's scenarios for the given useful-fraction index —
// the paper's headline "34%-75%" style ranges.
func (s *Suite) SavingsRange(i int) (lo, hi float64) {
	lo, hi = 1, 0
	for _, c := range s.Comparisons {
		v := c.Savings(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
