// Package core wires the substrates together into the paper's
// trace-driven evaluation pipeline (Section VI-A): it applies a
// traffic-management policy to a tagged broadcast trace, runs the
// Section IV energy model, and produces the rows of Figures 7, 8 and 9.
//
// The pipeline is context-aware and parallel: the suite-level *Context
// entry points fan independent jobs (one per trace, or one per seed)
// over a worker pool (internal/engine) with a deterministic ordered
// reduction, so the parallel output is byte-identical to the
// sequential path for any worker count.
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
	"slices"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// evalScratch is the per-worker scratch of an evaluation: the
// usefulness vector, the arrival buffer and a per-trace pass's HIDE
// lists. Evaluations take one from scratchPool and return it, so a
// suite run reuses a few buffers instead of allocating (and zeroing)
// fresh slices each time. Nothing downstream retains a slice: only the
// scalar Breakdown survives.
type evalScratch struct {
	useful   []bool
	arrivals []energy.Arrival
	hide     [][]energy.Arrival // indexed like UsefulFractions
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// clientSideSweep is the candidate driver-wakelock set for the
// client-side lower bound. The final candidate is τ, the receive-all
// bar, so the lower bound is ≤ receive-all.
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
	// Workers bounds the parallelism of RunSuiteContext (one job per
	// trace) and SweepSeedsContext (one per seed): 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the sequential path. The output
	// is identical either way.
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
	cfg := modelConfig(tr, dev, kind)

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
		res.Breakdown, res.DriverWakelock = lowerBound(&sweep)
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

// modelConfig is the energy model's configuration for a policy over
// tr: HIDE's protocol overhead applies to the policies that run it.
func modelConfig(tr *trace.Trace, dev energy.Profile, kind policy.Kind) energy.Config {
	cfg := energy.Config{Device: dev, Duration: tr.Duration}
	if kind.HasOverhead() {
		cfg.Overhead = energy.DefaultOverhead()
	}
	return cfg
}

// lowerBound picks the client-side lower bound from a clientSideSweep
// result: the cheapest candidate, the first on a tie.
func lowerBound(sweep *[len(clientSideSweep)]energy.Breakdown) (energy.Breakdown, time.Duration) {
	best := 0
	for k, b := range sweep {
		if b.TotalJ() < sweep[best].TotalJ() {
			best = k
		}
	}
	return sweep[best], clientSideSweep[best]
}

// EvaluateFractionContext tags the trace with a uniform useful
// fraction and evaluates the policy.
func EvaluateFractionContext(ctx context.Context, tr *trace.Trace, fraction float64, dev energy.Profile, kind policy.Kind, opts Options) (Result, error) {
	if !(fraction >= 0 && fraction <= 1) {
		return Result{}, fmt.Errorf("core: useful fraction %v outside [0, 1]", fraction)
	}
	opts = opts.normalized()
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	sc.useful = trace.TagUniformInto(sc.useful[:0], tr, fraction, opts.Seed)
	return evaluateScratch(ctx, tr, sc.useful, dev, kind, opts, sc)
}

// UsefulFractions is the sweep of Figures 7-8: 10%, 8%, 6%, 4%, 2%.
// Figure 9's HIDE columns are its first and last entries.
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

// baselineFraction is the useful fraction the receive-all and
// client-side bars are tagged with, like the paper's first two bars.
const baselineFraction = 0.10

// CompareEnergyContext prices every Figure 7/8 bar of one trace and
// device in one pass on the calling goroutine (opts.Workers does not
// apply), checking ctx between its stages. drawArrivals builds every
// bar's arrivals from one usefulness draw per frame. One ComputeSweep
// over all frames under the baseline tagging prices the client-side
// candidates: the wakelock machine gives a useless frame the
// candidate's wakelock and never reads its own, so the list's τ stands
// in for ClientSidePolicy's, and the last candidate, τ, is the
// receive-all bar. One Compute prices each HIDE list. Each bar equals
// EvaluateFractionContext's for its cell (TestSuiteMatchesCells).
func CompareEnergyContext(ctx context.Context, tr *trace.Trace, dev energy.Profile, opts Options) (EnergyComparison, error) {
	out := EnergyComparison{Trace: tr.Name, Device: dev.Name}
	opts = opts.normalized()
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	base := sc.drawArrivals(tr, opts.Seed)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	// A bar's useful fraction is trace.UsefulFraction's count/n, and 0
	// for a trace with no frames.
	bar := func(kind policy.Kind, useful int, b energy.Breakdown) Result {
		fraction := float64(useful) / float64(max(len(tr.Frames), 1))
		return Result{Trace: tr.Name, Device: dev.Name, Policy: kind, UsefulFraction: fraction, Breakdown: b}
	}
	var sweep [len(clientSideSweep)]energy.Breakdown
	if err := energy.ComputeSweep(sc.arrivals, sc.useful, clientSideSweep[:], modelConfig(tr, dev, policy.ClientSide), sweep[:]); err != nil {
		return out, err
	}
	cs, wakelock := lowerBound(&sweep)
	out.ReceiveAll = bar(policy.ReceiveAll, base, sweep[len(sweep)-1])
	out.ClientSide = bar(policy.ClientSide, base, cs)
	out.ClientSide.DriverWakelock = wakelock
	if err := ctx.Err(); err != nil {
		return out, err
	}
	cfg := modelConfig(tr, dev, policy.HIDE)
	out.HIDE = make([]Result, len(sc.hide))
	for j, arr := range sc.hide {
		b, err := energy.Compute(arr, cfg)
		if err != nil {
			return out, err
		}
		out.HIDE[j] = bar(policy.HIDE, len(arr), b)
	}
	return out, nil
}

// drawArrivals makes one usefulness draw per frame of tr from seed, the
// draws TagUniformInto makes; a frame is useful at fraction p iff its
// draw is below p. It fills sc.useful with the baseline tagging,
// sc.arrivals with receive-all's list and sc.hide with HIDE's list per
// UsefulFractions, and returns the baseline's useful count.
// TestDrawArrivalsMatchesPolicies pins each to policy.AppendArrivals.
func (sc *evalScratch) drawArrivals(tr *trace.Trace, seed uint64) (base int) {
	hide := slices.Grow(sc.hide[:0], len(UsefulFractions))[:len(UsefulFractions)]
	for j := range hide {
		hide[j] = hide[j][:0]
	}
	useful := slices.Grow(sc.useful[:0], len(tr.Frames))
	all := slices.Grow(sc.arrivals[:0], len(tr.Frames))
	r := *sim.NewRNG(seed)
	for _, f := range tr.Frames {
		d := r.Float64()
		a := energy.Arrival{At: f.At, Length: f.Length, Rate: f.Rate, MoreData: f.MoreData, Wakelock: energy.Tau}
		all = append(all, a)
		u := d < baselineFraction
		useful = append(useful, u)
		if u {
			base++
		}
		for j, p := range UsefulFractions {
			if d < p {
				hide[j] = append(hide[j], a)
			}
		}
	}
	sc.useful, sc.arrivals, sc.hide = useful, all, hide
	return base
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

// suspendRow reads the Figure 9 row off the comparison's bars; its HIDE
// columns are the first and last of UsefulFractions.
func (c EnergyComparison) suspendRow() SuspendRow {
	return SuspendRow{
		Trace:      c.Trace,
		Device:     c.Device,
		ReceiveAll: c.ReceiveAll.Breakdown.SuspendFraction,
		ClientSide: c.ClientSide.Breakdown.SuspendFraction,
		HIDE10:     c.HIDE[0].Breakdown.SuspendFraction,
		HIDE2:      c.HIDE[len(c.HIDE)-1].Breakdown.SuspendFraction,
	}
}

// SuspendFractionsContext evaluates the Figure 9 row for one trace and
// device, reading it off CompareEnergyContext's one pass.
func SuspendFractionsContext(ctx context.Context, tr *trace.Trace, dev energy.Profile, opts Options) (SuspendRow, error) {
	c, err := CompareEnergyContext(ctx, tr, dev, opts)
	if err != nil {
		return SuspendRow{Trace: tr.Name, Device: dev.Name}, err
	}
	return c.suspendRow(), nil
}

// Suite evaluates Figures 7/8 and 9 across all five scenarios for one
// device, generating the calibrated synthetic traces.
type Suite struct {
	Device      energy.Profile
	Comparisons []EnergyComparison // one per scenario
	Suspend     []SuspendRow       // one per scenario
}

// RunSuiteContext generates all scenario traces (through the shared
// memoized trace cache) and evaluates the full figure set for the
// device. The worker pool configured by opts.Workers runs one
// CompareEnergyContext pass per trace, and each trace's Figure 9 row is
// read off its comparison. The result is byte-identical to the
// sequential path for any worker count.
func RunSuiteContext(ctx context.Context, dev energy.Profile, opts Options) (*Suite, error) {
	cmps, err := engine.Map(ctx, opts.Workers, len(trace.Scenarios), func(ctx context.Context, i int) (EnergyComparison, error) {
		scen := trace.Scenarios[i]
		tr, err := engine.Traces.Scenario(scen)
		if err != nil {
			return EnergyComparison{}, fmt.Errorf("core: generating %v: %w", scen, err)
		}
		c, err := CompareEnergyContext(ctx, tr, dev, opts)
		if err != nil {
			return EnergyComparison{}, fmt.Errorf("core: evaluating %v: %w", scen, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	s := &Suite{Device: dev, Comparisons: cmps}
	for _, c := range cmps {
		s.Suspend = append(s.Suspend, c.suspendRow())
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
