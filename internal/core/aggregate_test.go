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

// TestAggregateCohortMatchesExactAt64 is the cohort's reference inside
// the AID space: a cohort of 64 against the 64 individually modeled
// stations it stands for, on every scenario trace. The cohort stands
// for its members with one representative whose uplink (port messages
// and their ACKs) is not multiplied, so the two are not bit-identical;
// at this size every station's energy stays within 0.5% of the
// cohort's per-member energy, and each station receives the same
// number of wanted frames as the representative.
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

		aggNet, err := NewNetwork(NetworkConfig{DTIMPeriod: 1, HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := aggNet.AddCohort(station.HIDE, open, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		stNet, err := NewNetwork(NetworkConfig{DTIMPeriod: 1, HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			if _, err := stNet.AddStation(station.HIDE, open); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []*Network{aggNet, stNet} {
			if err := n.Replay(tr); err != nil {
				t.Fatal(err)
			}
		}

		worst := 0.0
		for _, dev := range []energy.Profile{energy.NexusOne, energy.GalaxyS4} {
			want, _, err := aggNet.CohortEnergy(agg, dev, tr.Duration, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stNet.Stations() {
				got, err := stNet.StationEnergy(st, dev, tr.Duration, true)
				if err != nil {
					t.Fatal(err)
				}
				rel := math.Abs(got.TotalJ()-want.TotalJ()) / want.TotalJ()
				worst = max(worst, rel)
				if rel > tol {
					t.Errorf("%v %s station %d: %.4f J, cohort %.4f J per member (%.3f%%)",
						sc, dev.Name, i, got.TotalJ(), want.TotalJ(), 100*rel)
				}
			}
		}
		for i, st := range stNet.Stations() {
			if got, want := st.Stats().GroupUseful, agg.MemberStats().GroupUseful; got != want {
				t.Errorf("%v station %d: %d wanted frames, cohort %d per member", sc, i, got, want)
			}
		}
		t.Logf("%v: worst energy gap %.3f%%, %d wanted frames", sc, 100*worst, agg.MemberStats().GroupUseful)
	}
}
