package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/trace"
)

// renderSuite canonicalizes a suite for byte comparison.
func renderSuite(t *testing.T, s *Suite) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunSuiteParallelDeterminism asserts the tentpole contract: the
// parallel suite is byte-identical to the sequential path across
// worker counts (run it under -cpu 1,4 to also vary GOMAXPROCS).
func TestRunSuiteParallelDeterminism(t *testing.T) {
	seq, err := RunSuiteContext(context.Background(), energy.NexusOne, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderSuite(t, seq)
	for _, workers := range []int{0, 2, 4, 8} {
		s, err := RunSuiteContext(context.Background(), energy.NexusOne, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderSuite(t, s); got != want {
			t.Fatalf("workers=%d: suite differs from the sequential path", workers)
		}
	}
}

// TestCompareEnergyParallelDeterminism: the per-trace pass gives the
// same bars whatever the worker count.
func TestCompareEnergyParallelDeterminism(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := CompareEnergyContext(context.Background(), tr, energy.GalaxyS4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompareEnergyContext(context.Background(), tr, energy.GalaxyS4, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatal("parallel CompareEnergy differs from sequential")
	}
}

// TestSweepSeedsParallelDeterminism covers the seed-sweep fan and its
// ordered fold.
func TestSweepSeedsParallelDeterminism(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.WRL)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SweepSeedsContext(context.Background(), tr, energy.NexusOne, 0.10, DefaultSweepSeeds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepSeedsContext(context.Background(), tr, energy.NexusOne, 0.10, DefaultSweepSeeds, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("parallel SweepSeeds differs: %+v vs %+v", par, seq)
	}
	auto, err := SweepSeedsContext(context.Background(), tr, energy.NexusOne, 0.10, DefaultSweepSeeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if auto != seq {
		t.Fatalf("default worker count diverged: %+v vs %+v", auto, seq)
	}
}

// TestRunSuiteCancellation: a cancelled context returns promptly with
// context.Canceled.
func TestRunSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunSuiteContext(ctx, energy.NexusOne, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled RunSuite took %v", elapsed)
	}
}

// TestEvaluateContextCancellation covers the single-cell entry point.
func TestEvaluateContextCancellation(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateFractionContext(ctx, tr, 0.10, energy.NexusOne, 0, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSeedZeroSelectable pins the Options.Seed footgun fix: WithSeed(0)
// selects the literal seed 0, which differs from the implicit default,
// while the zero Options value still selects DefaultSeed.
func TestSeedZeroSelectable(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	defTags := trace.TagUniform(tr, 0.10, DefaultSeed)
	zeroTags := trace.TagUniform(tr, 0.10, 0)
	same := true
	for i := range defTags {
		if defTags[i] != zeroTags[i] {
			same = false
			break
		}
	}
	if same {
		t.Skip("seed 0 and DefaultSeed tag identically on this trace; footgun unobservable")
	}

	implicit := Options{}.normalized()
	if implicit.Seed != DefaultSeed {
		t.Fatalf("zero Options normalized to seed %#x, want DefaultSeed %#x", implicit.Seed, DefaultSeed)
	}
	explicit := Options{}.WithSeed(0).normalized()
	if explicit.Seed != 0 {
		t.Fatalf("WithSeed(0) normalized to seed %#x, want 0", explicit.Seed)
	}

	rDef, err := EvaluateFractionContext(context.Background(), tr, 0.10, energy.NexusOne, policy.HIDE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rZero, err := EvaluateFractionContext(context.Background(), tr, 0.10, energy.NexusOne, policy.HIDE, Options{}.WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	if rDef.Breakdown == rZero.Breakdown {
		t.Fatal("seed 0 evaluated identically to the default seed; it is still being remapped")
	}
}
