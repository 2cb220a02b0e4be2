package check

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/ess"
	"repro/internal/policy"
	"repro/internal/porttable"
	"repro/internal/station"
	"repro/internal/trace"
)

// TestESSEquivMatrix proves the K=1 ESS is byte-identical to the
// single-AP Network across the full acceptance grid: three policies ×
// three scenario traces.
func TestESSEquivMatrix(t *testing.T) {
	m := DefaultESSEquivMatrix()
	m.Config = EquivConfig{Duration: 90 * time.Second, Seed: 17}
	res, err := m.RunContext(context.Background(), RunESSEquivCellContext)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 9 {
		t.Fatalf("got %d cells, want 9", len(res.Results))
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Results {
		if c.Frames == 0 {
			t.Fatalf("%v: empty frame stream", c.Cell)
		}
	}
}

// TestEquivCellValidation: degenerate sizes are rejected up front, not
// silently compared.
func TestEquivCellValidation(t *testing.T) {
	_, err := RunESSEquivCellContext(context.Background(), EquivCell{Policy: policy.HIDE, Scenario: trace.WRL, Size: 0},
		EquivConfig{Duration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("size 0 accepted: %v", err)
	}
}

// TestEquivCellLabel pins the report label format.
func TestEquivCellLabel(t *testing.T) {
	c := EquivCell{Policy: policy.HIDE, Scenario: trace.Classroom, Size: 64}
	if got := c.String(); got != "HIDE/Classroom/n64" {
		t.Fatalf("label %q", got)
	}
}

// TestESSEquivCellDetectsDivergence makes sure the comparison has
// teeth: mismatched policies on the two sides must be flagged.
func TestESSEquivCellDetectsDivergence(t *testing.T) {
	tr, err := oracleTrace(trace.Starbucks, 21, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
	pop := make([]int, 2)
	es, bssids, err := runESSSide(context.Background(), tr, core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: 21}, 1, station.HIDE, open, pop)
	if err != nil {
		t.Fatal(err)
	}
	net, err := runNetworkSide(tr, core.NetworkConfig{DTIMPeriod: 1, Seed: 21}, bssids, station.Legacy, open, pop)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffESS(es, net, EquivConfig{}.normalized().Devices, tr.Duration); d == "" {
		t.Fatal("HIDE and ReceiveAll sides compared equal")
	}
}

// TestESSAIDBoundaryMatchesNetwork pins a K=1 ESS at the AID
// boundary: one station that associates by frame exchange and then a
// cohort of MaxAID members behind its one association must match a
// core.Network built the same way, every member compared.
func TestESSAIDBoundaryMatchesNetwork(t *testing.T) {
	tr, err := oracleTrace(trace.Classroom, 31, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
	cfg := core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: 31}
	pop := []int{0, int(dot11.MaxAID)}
	es, bssids, err := runESSSide(context.Background(), tr, cfg, 1, station.HIDE, open, pop)
	if err != nil {
		t.Fatal(err)
	}
	net, err := runNetworkSide(tr, cfg, bssids, station.HIDE, open, pop)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffESS(es, net, EquivConfig{}.normalized().Devices, core.ReplayEnd(tr)); d != "" {
		t.Fatal(d)
	}
	if got := len(net[0].stats); got != 1+int(dot11.MaxAID) {
		t.Fatalf("compared %d members, want %d", got, 1+int(dot11.MaxAID))
	}
}

// TestESSK4MatchesIndependentNetworks is the K>1 reference: a
// roam-free, hardened four-shard ESS must equal four independent
// core.Networks, each seeded Seed+i with its shard's BSSID and
// attaching the shard's stations and cohorts under the same ESS-wide
// numbers — per shard, byte for byte, with no invariant violation. The
// channel is lossy so that each shard's seed shows in its loss draws
// and retry jitter.
func TestESSK4MatchesIndependentNetworks(t *testing.T) {
	tr, err := oracleTrace(trace.Classroom, 41, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
	cfg := core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Loss: 0.02, Seed: 41}
	pop := append(make([]int, 10), 3, 5)
	ref, d, err := compareESS(context.Background(), tr, cfg, 4, station.HIDE, open, pop, EquivConfig{}.normalized().Devices)
	if err != nil {
		t.Fatal(err)
	}
	if d != "" {
		t.Fatal(d)
	}
	frames, members := 0, 0
	for _, s := range ref {
		frames += s.frames
		members += len(s.stats)
	}
	if frames == 0 {
		t.Fatal("empty frame streams")
	}
	// Ten stations plus cohorts of 3 and 5: every member is compared.
	if members != 18 {
		t.Fatalf("compared %d members, want 18", members)
	}
}

// TestESSShardObservers shows an Invariants checker and the ESS's own
// miss counter observing one shard's AP side by side: a flag computer
// that clears every BTIM bit on shard 1 must be flagged by that
// shard's checker and counted as wanted misses by the ESS, while shard
// 0 stays clean.
func TestESSShardObservers(t *testing.T) {
	tr, err := oracleTrace(trace.Classroom, 43, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
	e, err := ess.New(ess.Config{APs: 2, Network: core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.AddStation(station.HIDE, open, 1); err != nil {
			t.Fatal(err)
		}
	}
	e.Shards()[1].Net.AP.SetFlagComputer(func([]uint16, *porttable.Table) *dot11.VirtualBitmap {
		return &dot11.VirtualBitmap{} // every BTIM bit cleared
	})
	var invs []*Invariants
	for _, sh := range e.Shards() {
		inv := NewInvariants()
		inv.Watch(sh.Net)
		invs = append(invs, inv)
	}
	if err := e.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if err := invs[0].Err(); err != nil {
		t.Fatalf("clean shard 0: %v", err)
	}
	if len(invs[1].Violations()) == 0 {
		t.Fatal("shard 1's checker did not flag the cleared BTIM bits")
	}
	if e.Stats().WantedMisses == 0 {
		t.Fatal("the ESS miss counter saw no misses beside the checker")
	}
}

// TestESSRoamFault drives the churn-under-DS-fault check end to end.
func TestESSRoamFault(t *testing.T) {
	res, err := RunESSRoamFaultContext(context.Background(), 29)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("roam-fault check failed: %s\ncold: %+v\nlossy: %+v\nwarm: %+v",
			res.Mismatch, res.Cold, res.Lossy, res.Warm)
	}
	// The lossy DS must actually have been exercised.
	if res.Lossy.DSRecordsDropped == 0 {
		t.Fatal("no DS records dropped under DSLoss")
	}
}
