package core

import (
	"context"
	"math"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// SeedSweep quantifies how robust the headline results are to the
// randomness in usefulness tagging: it evaluates HIDE and receive-all
// over the same trace with several tagging seeds and aggregates the
// savings. The paper reports point estimates from fixed traces; the
// sweep shows the estimates are not seed artifacts.
type SeedSweep struct {
	Trace          string
	Device         string
	UsefulFraction float64
	Seeds          int
	// MeanSaving, MinSaving, MaxSaving, StdDev summarize HIDE's saving
	// versus receive-all across seeds.
	MeanSaving float64
	MinSaving  float64
	MaxSaving  float64
	StdDev     float64
}

// SweepSeedsContext evaluates HIDE's saving across tagging seeds,
// fanning the per-seed evaluations over the worker pool configured by
// opts.Workers. Each sweep point evaluates exactly its listed seed
// (opts.WithSeed), 0 included. The aggregation folds savings in seed
// order, so the result is identical for any worker count.
func SweepSeedsContext(ctx context.Context, tr *trace.Trace, dev energy.Profile, fraction float64, seeds []uint64, opts Options) (SeedSweep, error) {
	out := SeedSweep{
		Trace: tr.Name, Device: dev.Name,
		UsefulFraction: fraction, Seeds: len(seeds),
		MinSaving: math.Inf(1), MaxSaving: math.Inf(-1),
	}
	savings, err := engine.Map(ctx, opts.Workers, len(seeds), func(ctx context.Context, i int) (float64, error) {
		sopts := opts.WithSeed(seeds[i])
		ra, err := EvaluateFractionContext(ctx, tr, fraction, dev, policy.ReceiveAll, sopts)
		if err != nil {
			return 0, err
		}
		hd, err := EvaluateFractionContext(ctx, tr, fraction, dev, policy.HIDE, sopts)
		if err != nil {
			return 0, err
		}
		return 1 - hd.Breakdown.TotalJ()/ra.Breakdown.TotalJ(), nil
	})
	if err != nil {
		return out, err
	}
	var sum, sumSq float64
	for _, saving := range savings {
		sum += saving
		sumSq += saving * saving
		if saving < out.MinSaving {
			out.MinSaving = saving
		}
		if saving > out.MaxSaving {
			out.MaxSaving = saving
		}
	}
	n := float64(len(seeds))
	if n > 0 {
		out.MeanSaving = sum / n
		variance := sumSq/n - out.MeanSaving*out.MeanSaving
		if variance < 0 {
			variance = 0
		}
		out.StdDev = math.Sqrt(variance)
	}
	return out, nil
}

// DefaultSweepSeeds is a small deterministic seed set.
var DefaultSweepSeeds = []uint64{1, 7, 42, 1001, 0xdeadbeef}
