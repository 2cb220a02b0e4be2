package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/station"
)

// TestScaleCohortRowInMemberRange: a cohort-mode scaling row prices
// every member it stands for, so its mean station energy and mean
// useful frames lie within the range of its cohorts' per-member
// values. The cohorts are rebuilt the way ScaleClientsNetwork builds
// them, one per port class, at the AID-space ceiling.
func TestScaleCohortRowInMemberRange(t *testing.T) {
	tr, err := defaultScaleTrace()
	if err != nil {
		t.Fatal(err)
	}
	n := int(dot11.MaxAID)
	pts, err := ScaleClientsNetwork(NetworkConfig{HIDE: true}, tr, energy.NexusOne, []int{n}, Options{Cohort: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	var ports []uint16
	for p := range tr.PortHistogram() {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	var cohorts []*station.CohortStation
	for i, p := range ports {
		size := n / len(ports)
		if i < n%len(ports) {
			size++
		}
		c, err := net.AddCohort(station.HIDE, []uint16{p}, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		cohorts = append(cohorts, c)
	}
	if err := net.Replay(tr); err != nil {
		t.Fatal(err)
	}
	loJ, hiJ := math.Inf(1), math.Inf(-1)
	loU, hiU := math.Inf(1), math.Inf(-1)
	for _, c := range cohorts {
		member, _, err := net.CohortEnergy(c, energy.NexusOne, tr.Duration, true)
		if err != nil {
			t.Fatal(err)
		}
		useful := float64(c.MemberStats().GroupUseful)
		loJ, hiJ = min(loJ, member.TotalJ()), max(hiJ, member.TotalJ())
		loU, hiU = min(loU, useful), max(hiU, useful)
	}
	pt := pts[0]
	if pt.MeanStationJ < loJ || pt.MeanStationJ > hiJ {
		t.Errorf("N=%d: mean station energy %.3f J outside the members' [%.3f, %.3f] J", n, pt.MeanStationJ, loJ, hiJ)
	}
	if pt.MeanUseful < loU || pt.MeanUseful > hiU {
		t.Errorf("N=%d: mean useful frames %.1f outside the members' [%.1f, %.1f]", n, pt.MeanUseful, loU, hiU)
	}
}
