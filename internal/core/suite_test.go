package core

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// cellComparison rebuilds one trace's Figure 7/8 bars and Figure 9 row
// cell by cell, each bar its own EvaluateFractionContext call, as the
// benchmark's traced figures pass does.
func cellComparison(t *testing.T, tr *trace.Trace, dev energy.Profile, opts Options) (EnergyComparison, SuspendRow) {
	t.Helper()
	cell := func(kind policy.Kind, fraction float64) Result {
		t.Helper()
		r, err := EvaluateFractionContext(context.Background(), tr, fraction, dev, kind, opts)
		if err != nil {
			t.Fatalf("%s %v@%g: %v", tr.Name, kind, fraction, err)
		}
		return r
	}
	c := EnergyComparison{
		Trace:      tr.Name,
		Device:     dev.Name,
		ReceiveAll: cell(policy.ReceiveAll, 0.10),
		ClientSide: cell(policy.ClientSide, 0.10),
	}
	for _, f := range UsefulFractions {
		c.HIDE = append(c.HIDE, cell(policy.HIDE, f))
	}
	return c, SuspendRow{
		Trace:      tr.Name,
		Device:     dev.Name,
		ReceiveAll: c.ReceiveAll.Breakdown.SuspendFraction,
		ClientSide: c.ClientSide.Breakdown.SuspendFraction,
		HIDE10:     cell(policy.HIDE, 0.10).Breakdown.SuspendFraction,
		HIDE2:      cell(policy.HIDE, 0.02).Breakdown.SuspendFraction,
	}
}

// TestSuiteMatchesCells holds the one-pass suite to its reference: every
// bar and Figure 9 column equals its own EvaluateFractionContext cell,
// for both devices, several tagging seeds and two worker counts.
func TestSuiteMatchesCells(t *testing.T) {
	ctx := context.Background()
	for _, dev := range energy.Profiles {
		for _, seed := range []uint64{0, DefaultSeed, 1, 2, 3} {
			opts := Options{}.WithSeed(seed)
			want := &Suite{Device: dev}
			for _, scen := range trace.Scenarios {
				tr, err := engine.Traces.Scenario(scen)
				if err != nil {
					t.Fatal(err)
				}
				c, row := cellComparison(t, tr, dev, opts)
				want.Comparisons = append(want.Comparisons, c)
				want.Suspend = append(want.Suspend, row)

				got, err := CompareEnergyContext(ctx, tr, dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, c) {
					t.Errorf("%s/%s seed %d: CompareEnergyContext\n got %+v\nwant %+v", dev.Name, tr.Name, seed, got, c)
				}
				gotRow, err := SuspendFractionsContext(ctx, tr, dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gotRow != row {
					t.Errorf("%s/%s seed %d: SuspendFractionsContext %+v, want %+v", dev.Name, tr.Name, seed, gotRow, row)
				}
			}
			for _, workers := range []int{1, 2} {
				pooled := opts
				pooled.Workers = workers
				got, err := RunSuiteContext(ctx, dev, pooled)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d workers %d: RunSuiteContext differs from the per-cell rebuild", dev.Name, seed, workers)
				}
			}
		}
	}
}

// TestCompareEmptyTrace covers a trace with no frames, where every
// useful fraction reads 0.
func TestCompareEmptyTrace(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Duration: time.Minute}
	want, _ := cellComparison(t, tr, energy.NexusOne, Options{})
	got, err := CompareEnergyContext(context.Background(), tr, energy.NexusOne, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

// TestDrawArrivalsMatchesPolicies pins the one-pass arrival lists to
// the policies' own rules: the baseline tagging is TagUniformInto's,
// the all-frames list receive-all's arrivals, and each HIDE list HIDE's
// arrivals under that fraction's tagging. A reused scratch starts
// afresh.
func TestDrawArrivalsMatchesPolicies(t *testing.T) {
	all, err := policy.New(policy.ReceiveAll)
	if err != nil {
		t.Fatal(err)
	}
	hide, err := policy.New(policy.HIDE)
	if err != nil {
		t.Fatal(err)
	}
	var sc evalScratch
	for _, scen := range []trace.Scenario{trace.Starbucks, trace.CSDept} {
		tr, err := engine.Traces.Scenario(scen)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{0, DefaultSeed, 7} {
			base := sc.drawArrivals(tr, seed)
			useful := trace.TagUniform(tr, baselineFraction, seed)
			if !slices.Equal(sc.useful, useful) {
				t.Errorf("%s seed %d: baseline tagging differs from TagUniform", tr.Name, seed)
			}
			if got, want := float64(base)/float64(len(useful)), trace.UsefulFraction(useful); got != want {
				t.Errorf("%s seed %d: baseline count reads fraction %v, the tagging %v", tr.Name, seed, got, want)
			}
			want, err := policy.AppendArrivals(nil, all, tr, useful)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sc.arrivals, want) {
				t.Errorf("%s seed %d: all-frames list differs from receive-all's arrivals", tr.Name, seed)
			}
			if len(sc.hide) != len(UsefulFractions) {
				t.Fatalf("%d HIDE lists for %d fractions", len(sc.hide), len(UsefulFractions))
			}
			for j, p := range UsefulFractions {
				want, err := policy.AppendArrivals(nil, hide, tr, trace.TagUniform(tr, p, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sc.hide[j], want) {
					t.Errorf("%s seed %d: HIDE list at %g differs from HIDE's arrivals", tr.Name, seed, p)
				}
			}
		}
	}
}

// TestClientSideSweepEndsWithTau: the per-trace pass reads the
// receive-all bar off the sweep's last candidate, which is receive-all
// only while that candidate is τ.
func TestClientSideSweepEndsWithTau(t *testing.T) {
	if got := clientSideSweep[len(clientSideSweep)-1]; got != energy.Tau {
		t.Fatalf("last client-side candidate %v, want τ = %v", got, energy.Tau)
	}
}
