package ess

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/station"
	"repro/internal/trace"
)

// testTrace generates a truncated scenario trace through the shared
// memoized cache.
func testTrace(t *testing.T, s trace.Scenario, d time.Duration) *trace.Trace {
	t.Helper()
	cfg := trace.ScenarioConfig(s)
	if d > 0 && d < cfg.Duration {
		cfg.Duration = d
	}
	tr, err := engine.Traces.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// digest fingerprints one medium's frame stream.
type digest struct {
	h      hash.Hash64
	frames int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) tap(raw []byte, rate dot11.Rate, at time.Duration) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(at))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rate))
	//lint:ignore errdrop hash.Hash writes never fail
	d.h.Write(hdr[:])
	//lint:ignore errdrop hash.Hash writes never fail
	d.h.Write(raw)
	d.frames++
}

// tapShards installs a digest on every shard medium and returns them
// in shard order.
func tapShards(e *ESS) []*digest {
	var out []*digest
	for _, sh := range e.Shards() {
		d := newDigest()
		sh.Net.Medium.SetTap(d.tap)
		out = append(out, d)
	}
	return out
}

func TestK1RoamFreeMatchesNetwork(t *testing.T) {
	tr := testTrace(t, trace.Starbucks, 90*time.Second)
	open := []uint16{5353, 17500}

	ncfg := core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: 7}
	n, err := core.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	nd := newDigest()
	n.Medium.SetTap(nd.tap)
	var nsts []*station.Station
	for i := 0; i < 3; i++ {
		st, err := n.AddStation(station.HIDE, open)
		if err != nil {
			t.Fatal(err)
		}
		nsts = append(nsts, st)
	}
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}

	e, err := New(Config{APs: 1, Network: ncfg})
	if err != nil {
		t.Fatal(err)
	}
	ed := tapShards(e)[0]
	for i := 0; i < 3; i++ {
		if _, err := e.AddStation(station.HIDE, open, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}

	if nd.frames != ed.frames || nd.h.Sum64() != ed.h.Sum64() {
		t.Fatalf("K=1 ESS diverged from Network: %d/%016x vs %d/%016x",
			ed.frames, ed.h.Sum64(), nd.frames, nd.h.Sum64())
	}
	for i, st := range e.Stations() {
		if st.Stats() != nsts[i].Stats() {
			t.Fatalf("station %d stats diverged:\ness:     %+v\nnetwork: %+v", i, st.Stats(), nsts[i].Stats())
		}
	}
}

func TestRoamsHappenAndReassociate(t *testing.T) {
	tr := testTrace(t, trace.Starbucks, 2*time.Minute)
	e, err := New(Config{
		APs:      4,
		Network:  core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Seed: 11},
		RoamRate: 4, // roams per station per minute: plenty in 2 min
		RoamSeed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e.AddStation(station.HIDE, []uint16{5353}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Roams == 0 {
		t.Fatal("no roams at RoamRate=4 over 2 minutes")
	}
	if s.Reassociations < s.Roams {
		t.Fatalf("reassociations %d < roams %d", s.Reassociations, s.Roams)
	}
	// Every station must end the run associated somewhere: roams are
	// spread over the run, and each reassociation completes within its
	// window (the retry budget covers lost responses on a clean medium).
	for i, st := range e.Stations() {
		if !st.Associated() {
			t.Fatalf("station %d unassociated after churn run", i)
		}
	}
}

func TestColdVsReplicatedResyncWindow(t *testing.T) {
	base := ChurnConfig{
		APs:      4,
		Stations: 16,
		Scenario: trace.Classroom,
		Duration: 2 * time.Minute,
		RoamRate: 2,
		Seed:     5,
	}
	cold := base
	cold.Replicate = false
	warm := base
	warm.Replicate = true

	cr, err := RunChurnContext(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := RunChurnContext(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Stats.Roams == 0 || wr.Stats.Roams == 0 {
		t.Fatalf("no churn: cold %d roams, warm %d roams", cr.Stats.Roams, wr.Stats.Roams)
	}
	if cr.Stats.ResyncWindowMisses == 0 {
		t.Fatal("cold handoffs recorded no resync-window misses (expected a real window)")
	}
	if wr.Stats.ResyncWindowMisses != 0 {
		t.Fatalf("replicated handoffs recorded %d resync-window misses, want 0", wr.Stats.ResyncWindowMisses)
	}
	if wr.Stats.DSRecordsReplicated == 0 || wr.Stats.PortsSeededOnRoam == 0 {
		t.Fatalf("replication inert: %d records, %d seeded ports",
			wr.Stats.DSRecordsReplicated, wr.Stats.PortsSeededOnRoam)
	}
	if cr.Stats.DSRecordsReplicated != 0 {
		t.Fatalf("cold run replicated %d records", cr.Stats.DSRecordsReplicated)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]uint64, Stats) {
		tr := testTrace(t, trace.Starbucks, 90*time.Second)
		e, err := New(Config{
			APs:       3,
			Network:   core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Seed: 3},
			Replicate: true,
			RoamRate:  3,
			RoamSeed:  42,
			DSLoss:    0.2,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ds := tapShards(e)
		for i := 0; i < 6; i++ {
			if _, err := e.AddStation(station.HIDE, []uint16{5353, 53}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.AddCohort(station.HIDE, []uint16{5353}, 4, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.RunContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		fps := make([]uint64, len(ds))
		for i, d := range ds {
			fps[i] = d.h.Sum64()
		}
		return fps, e.Stats()
	}

	fp1, st1 := run(1)
	fp4, st4 := run(4)
	if st1 != st4 {
		t.Fatalf("stats diverged across worker counts:\n1: %+v\n4: %+v", st1, st4)
	}
	for i := range fp1 {
		if fp1[i] != fp4[i] {
			t.Fatalf("shard %d fingerprint diverged: %016x vs %016x", i, fp1[i], fp4[i])
		}
	}
}

// TestCohortsStayHome: a cohort stands for its members behind one
// association, so in a roaming ESS it stays on the AP it attached to
// while the stations around it roam.
func TestCohortsStayHome(t *testing.T) {
	tr := testTrace(t, trace.Starbucks, 2*time.Minute)
	e, err := New(Config{
		APs:       2,
		Network:   core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Seed: 13},
		Replicate: true,
		RoamRate:  6,
		RoamSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.AddCohort(station.HIDE, []uint16{5353}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStation(station.HIDE, []uint16{5353}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Roams == 0 || s.CohortRoams != 0 {
		t.Fatalf("want station roams and no cohort roams, got %+v", s)
	}
	home := e.Shards()[0].Net.AP
	aid, ok := home.AIDOf(c.Template().Addr())
	if !ok {
		t.Fatal("cohort left its home AP")
	}
	for _, ci := range home.ClientList() {
		if ci.AID == aid && ci.Members != 5 {
			t.Fatalf("home AP holds the cohort as %d members, want 5", ci.Members)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Network: core.NetworkConfig{BSSID: dot11.MACAddr{1}}}); err == nil {
		t.Error("explicit Network.BSSID accepted")
	}
	if _, err := New(Config{APs: maxAPs + 1}); err == nil {
		t.Error("oversized AP count accepted")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, r := range []float64{-1, nan, inf} {
		if _, err := New(Config{APs: 2, RoamRate: r}); err == nil {
			t.Errorf("RoamRate %v accepted", r)
		}
	}
	for _, p := range []float64{-0.1, 1.5, nan} {
		if _, err := New(Config{APs: 2, DSLoss: p}); err == nil {
			t.Errorf("DSLoss %v accepted", p)
		}
	}
	for _, j := range []float64{-0.5, nan, inf, 1e300} {
		if _, err := New(Config{APs: 2, Network: core.NetworkConfig{Harden: true, RefreshJitter: j}}); err == nil {
			t.Errorf("RefreshJitter %v accepted", j)
		}
	}
	if _, err := New(Config{APs: 2, RoamRate: 2, DSLoss: 1, Network: core.NetworkConfig{Harden: true, RefreshJitter: 1}}); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
	if _, err := RunChurnContext(context.Background(), ChurnConfig{Duration: -5 * time.Second}); err == nil {
		t.Error("negative churn Duration accepted")
	}
}
