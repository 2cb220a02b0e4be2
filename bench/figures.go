package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// figuresOut is one figures op's output: the Figure 7-9 suite for both
// devices.
type figuresOut struct {
	NexusOne *core.Suite
	GalaxyS4 *core.Suite
}

// figuresOpts selects the usefulness-tagging seed: the repository's
// default (the golden figures) for seed 0, the given seed otherwise.
func figuresOpts(seed uint64) core.Options {
	if seed == 0 {
		seed = core.DefaultSeed
	}
	return core.Options{}.WithSeed(seed)
}

// runFigures is one figures op at the given options.
func runFigures(opts core.Options) (figuresOut, error) {
	ctx := context.Background()
	n, err := core.RunSuiteContext(ctx, energy.NexusOne, opts)
	if err != nil {
		return figuresOut{}, err
	}
	g, err := core.RunSuiteContext(ctx, energy.GalaxyS4, opts)
	if err != nil {
		return figuresOut{}, err
	}
	return figuresOut{NexusOne: n, GalaxyS4: g}, nil
}

// setupFigures generates the five scenario traces into the shared trace
// cache RunSuiteContext reads, so ops price evaluation only.
func setupFigures(seed uint64, root string) (*instance, error) {
	engine.Traces.Reset()
	t := wallNow()
	for _, sc := range trace.Scenarios {
		if _, err := engine.Traces.Scenario(sc); err != nil {
			return nil, err
		}
	}
	gen := ms(since(t))
	opts := figuresOpts(seed)
	return &instance{
		op: func() (any, error) { return runFigures(opts) },
		check: func(out any) error {
			if seed != 0 {
				return nil
			}
			return checkGolden(root, out.(figuresOut))
		},
		traced: func(want any) (map[string]float64, error) { return tracedFigures(opts, want.(figuresOut)) },
		curves: func(p50 float64) (map[string]float64, error) {
			serial, err := medianOf(3, func() error {
				serial := opts
				serial.Workers = 1
				_, err := runFigures(serial)
				return err
			})
			if err != nil {
				return nil, err
			}
			return map[string]float64{"engine.parallel_eff": ratio(serial, p50*float64(runtime.GOMAXPROCS(0)))}, nil
		},
		genMS: gen,
	}, nil
}

// checkGolden compares a default-seed figures output with the golden
// Figure 7, 8 and 9 snapshots the repository's tests pin.
func checkGolden(root string, f figuresOut) error {
	dir := filepath.Join(root, "internal", "check", "testdata", "golden")
	rows := append(append([]core.SuspendRow{}, f.NexusOne.Suspend...), f.GalaxyS4.Suspend...)
	for _, g := range []struct {
		file string
		v    any
	}{
		{"figure7_nexusone.json", f.NexusOne.Comparisons},
		{"figure8_galaxys4.json", f.GalaxyS4.Comparisons},
		{"figure9.json", rows},
	} {
		if err := check.CompareGolden(filepath.Join(dir, g.file), g.v, check.GoldenRelTol); err != nil {
			return fmt.Errorf("%s: %w", g.file, err)
		}
	}
	return nil
}

// figureCell is one (policy, useful fraction) bar of a Figure 7/8
// comparison.
type figureCell struct {
	kind     policy.Kind
	fraction float64
}

// figureCells lists a comparison's bars in core's presentation order:
// receive-all and client-side at the 10% tagging, then HIDE at each
// useful fraction.
func figureCells() []figureCell {
	cells := []figureCell{{policy.ReceiveAll, 0.10}, {policy.ClientSide, 0.10}}
	for _, f := range core.UsefulFractions {
		cells = append(cells, figureCell{policy.HIDE, f})
	}
	return cells
}

// figureStamps accumulates the traced figures pass's layer times, with
// the cell scratch buffers core's own evaluation reuses the same way.
type figureStamps struct {
	bias                    time.Duration
	tag, apply, compute, cs time.Duration
	computes                int
	useful                  []bool
	arrivals                []energy.Arrival
}

// stamp times fn and adds its host time, less the calibrated cost of the
// stamp itself, to *acc.
func (s *figureStamps) stamp(acc *time.Duration, fn func() error) error {
	t := wallNow()
	err := fn()
	*acc += max(0, since(t)-s.bias)
	return err
}

// tracedFigures rebuilds one figures op cell by cell with the public
// calls each cell makes — TagUniformInto, AppendArrivals, energy.Compute
// — timing each, and core.EvaluateFractionContext for the client-side
// lower-bound cells whose wakelock sweep is core's own. The rebuilt
// suites must equal the untraced op's.
func tracedFigures(opts core.Options, want figuresOut) (map[string]float64, error) {
	s := &figureStamps{bias: calibratedClockBias()}
	n, err := s.suite(opts, energy.NexusOne)
	if err != nil {
		return nil, err
	}
	g, err := s.suite(opts, energy.GalaxyS4)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(figuresOut{NexusOne: n, GalaxyS4: g}, want) {
		return nil, fmt.Errorf("traced figures differ from the untraced op's")
	}
	return map[string]float64{
		"trace.tag_ms":       ms(s.tag),
		"policy.apply_ms":    ms(s.apply),
		"energy.compute_ms":  ms(s.compute),
		"energy.us_per_call": ratio(float64(s.compute)/float64(time.Microsecond), float64(s.computes)),
		"core.clientside_ms": ms(s.cs),
	}, nil
}

// suite evaluates one device's Figure 7-9 suite cell by cell.
func (s *figureStamps) suite(opts core.Options, dev energy.Profile) (*core.Suite, error) {
	out := &core.Suite{Device: dev}
	for _, sc := range trace.Scenarios {
		tr, err := engine.Traces.Scenario(sc)
		if err != nil {
			return nil, err
		}
		cmp := core.EnergyComparison{Trace: tr.Name, Device: dev.Name}
		byCell := map[figureCell]core.Result{}
		for i, c := range figureCells() {
			r, err := s.cell(tr, dev, c, opts)
			if err != nil {
				return nil, err
			}
			byCell[c] = r
			switch i {
			case 0:
				cmp.ReceiveAll = r
			case 1:
				cmp.ClientSide = r
			default:
				cmp.HIDE = append(cmp.HIDE, r)
			}
		}
		out.Comparisons = append(out.Comparisons, cmp)
		out.Suspend = append(out.Suspend, core.SuspendRow{
			Trace:      tr.Name,
			Device:     dev.Name,
			ReceiveAll: byCell[figureCell{policy.ReceiveAll, 0.10}].Breakdown.SuspendFraction,
			ClientSide: byCell[figureCell{policy.ClientSide, 0.10}].Breakdown.SuspendFraction,
			HIDE10:     byCell[figureCell{policy.HIDE, 0.10}].Breakdown.SuspendFraction,
			HIDE2:      byCell[figureCell{policy.HIDE, 0.02}].Breakdown.SuspendFraction,
		})
	}
	return out, nil
}

// cell evaluates one bar with a stamp around each layer call.
func (s *figureStamps) cell(tr *trace.Trace, dev energy.Profile, c figureCell, opts core.Options) (core.Result, error) {
	if c.kind == policy.ClientSide {
		var r core.Result
		err := s.stamp(&s.cs, func() error {
			var err error
			r, err = core.EvaluateFractionContext(context.Background(), tr, c.fraction, dev, c.kind, opts)
			return err
		})
		return r, err
	}
	p, err := policy.New(c.kind)
	if err != nil {
		return core.Result{}, err
	}
	if err := s.stamp(&s.tag, func() error {
		s.useful = trace.TagUniformInto(s.useful[:0], tr, c.fraction, opts.Seed)
		return nil
	}); err != nil {
		return core.Result{}, err
	}
	if err := s.stamp(&s.apply, func() error {
		var err error
		s.arrivals, err = policy.AppendArrivals(s.arrivals[:0], p, tr, s.useful)
		return err
	}); err != nil {
		return core.Result{}, err
	}
	cfg := energy.Config{Device: dev, Duration: tr.Duration}
	if c.kind.HasOverhead() {
		cfg.Overhead = energy.DefaultOverhead()
	}
	var b energy.Breakdown
	if err := s.stamp(&s.compute, func() error {
		var err error
		b, err = energy.Compute(s.arrivals, cfg)
		return err
	}); err != nil {
		return core.Result{}, err
	}
	s.computes++
	return core.Result{
		Trace:          tr.Name,
		Device:         dev.Name,
		Policy:         c.kind,
		UsefulFraction: trace.UsefulFraction(s.useful),
		Breakdown:      b,
	}, nil
}

// calibratedClockBias is clockBias, measured once per process.
var calibratedClockBias = sync.OnceValue(clockBias)

// clockBias is the host time an empty stamp records: the cost of the
// two clock reads around nothing (the best of five batches), subtracted
// from every stamped call.
func clockBias() time.Duration {
	best := time.Duration(1 << 62)
	for batch := 0; batch < 5; batch++ {
		const n = 2000
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := wallNow()
			sum += since(t)
		}
		if b := sum / n; b < best {
			best = b
		}
	}
	return best
}
