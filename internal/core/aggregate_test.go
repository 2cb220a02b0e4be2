package core

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/station"
	"repro/internal/trace"
)

// replayCohort replays tr against one cohort of size HIDE members
// listening on open, and returns the network and the cohort. The cohort
// attaches through attachCohort, which makes a block this small exact,
// or, when aggregate is set, through the steps attachCohort takes for
// an aggregate block.
func replayCohort(t *testing.T, tr *trace.Trace, open []uint16, size int, aggregate bool) (*Network, *station.CohortStation) {
	t.Helper()
	n, err := NewNetwork(NetworkConfig{DTIMPeriod: 1, HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	var c *station.CohortStation
	if aggregate {
		scfg := n.stationConfig(1, station.HIDE, 1)
		if c, err = station.NewCohort(n.Engine, n.Medium, station.CohortConfig{Config: scfg, Count: size, Aggregate: true}); err != nil {
			t.Fatal(err)
		}
		for _, p := range open {
			c.OpenPort(p)
		}
		first, err := n.AP.AssociateAggregate(scfg.Addr, size, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.JoinBlock(first); err != nil {
			t.Fatal(err)
		}
	} else if c, err = n.AddCohort(station.HIDE, open, size, 1); err != nil {
		t.Fatal(err)
	} else if c.Aggregate() {
		t.Fatalf("a cohort of %d went aggregate", size)
	}
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}
	return n, c
}

// TestAggregateCohortMatchesExactAt64 is the aggregate regime's
// reference inside the AID space: a cohort of 64 forced aggregate
// against an exact 64-member cohort, on every scenario trace. The
// aggregate cohort stands for its members with one member whose uplink
// (port messages and their ACKs) is not multiplied, so the two are not
// bit-identical; at this size every exact segment's per-member energy
// stays within 0.5% of the aggregate member's, and each member receives
// the same number of wanted frames.
func TestAggregateCohortMatchesExactAt64(t *testing.T) {
	const size, tol = 64, 0.005
	for _, sc := range trace.Scenarios {
		cfg := trace.ScenarioConfig(sc)
		cfg.Duration = 2 * time.Minute
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var open []uint16
		for p := range trace.OpenPortsForFraction(tr, 0.10) {
			open = append(open, p)
		}
		sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })

		aggNet, agg := replayCohort(t, tr, open, size, true)
		exactNet, exact := replayCohort(t, tr, open, size, false)
		worst := 0.0
		for _, dev := range []energy.Profile{energy.NexusOne, energy.GalaxyS4} {
			want, _, err := aggNet.CohortEnergy(agg, dev, tr.Duration, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, seg := range exact.Segments() {
				got, _, err := exactNet.CohortEnergy(seg, dev, tr.Duration, true)
				if err != nil {
					t.Fatal(err)
				}
				rel := math.Abs(got.TotalJ()-want.TotalJ()) / want.TotalJ()
				worst = max(worst, rel)
				if rel > tol {
					t.Errorf("%v %s segment %d: %.4f J per member, aggregate %.4f J (%.3f%%)",
						sc, dev.Name, i, got.TotalJ(), want.TotalJ(), 100*rel)
				}
			}
		}
		for i, seg := range exact.Segments() {
			if got, want := seg.MemberStats().GroupUseful, agg.MemberStats().GroupUseful; got != want {
				t.Errorf("%v segment %d: %d wanted frames per member, aggregate %d", sc, i, got, want)
			}
		}
		t.Logf("%v: %d exact segments, worst energy gap %.3f%%, %d wanted frames", sc, len(exact.Segments()), 100*worst, agg.MemberStats().GroupUseful)
	}
}
