package hide

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestPublicProfiles(t *testing.T) {
	if len(Profiles) != 2 {
		t.Fatalf("Profiles has %d entries, want 2", len(Profiles))
	}
	p, err := ProfileByName("Nexus One")
	if err != nil || p.Name != "Nexus One" {
		t.Fatalf("ProfileByName: %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestPublicScenarios(t *testing.T) {
	if len(Scenarios) != 5 {
		t.Fatalf("Scenarios has %d entries, want 5", len(Scenarios))
	}
	names := map[string]bool{}
	for _, s := range Scenarios {
		names[s.String()] = true
	}
	for _, want := range []string{"Classroom", "CS_Dept", "WML", "Starbucks", "WRL"} {
		if !names[want] {
			t.Errorf("missing scenario %q", want)
		}
	}
}

func TestPublicPipelineEndToEnd(t *testing.T) {
	tr, err := GenerateTrace(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareEnergyContext(context.Background(), tr, NexusOne, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReceiveAll.AvgPowerMW() <= 0 {
		t.Fatal("non-positive receive-all power")
	}
	if cmp.Savings(0) <= 0 || cmp.Savings(0) >= 1 {
		t.Fatalf("HIDE:10%% savings %v outside (0, 1)", cmp.Savings(0))
	}
	if cmp.SavingsVsClientSide(0) <= 0 {
		t.Fatalf("HIDE must beat the client-side lower bound, got %v", cmp.SavingsVsClientSide(0))
	}
}

func TestPublicTaggingHelpers(t *testing.T) {
	tr, err := GenerateTrace(CSDept)
	if err != nil {
		t.Fatal(err)
	}
	u := TagUniform(tr, 0.1, 1)
	if len(u) != len(tr.Frames) {
		t.Fatal("tag length mismatch")
	}
	open := OpenPortsForFraction(tr, 0.1)
	u2 := TagByOpenPorts(tr, open)
	if len(u2) != len(tr.Frames) {
		t.Fatal("port tag length mismatch")
	}
	r, err := EvaluateContext(context.Background(), tr, u2, GalaxyS4, HIDE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != HIDE || r.Device != "Galaxy S4" {
		t.Fatalf("result metadata: %+v", r)
	}
}

func TestPublicTraceIO(t *testing.T) {
	tr, err := GenerateTrace(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteTraceCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	a, err := ReadTraceCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(tr.Frames) {
		t.Fatal("round trip lost frames")
	}
}

func TestPublicOverheadAnalyses(t *testing.T) {
	c, err := CapacityOverhead(TableII(), CapacityParams{
		HIDEFraction:    0.75,
		PortMsgInterval: 10 * time.Second,
		PortsPerMsg:     50,
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || c > 0.005 {
		t.Fatalf("capacity overhead %v outside (0, 0.5%%]", c)
	}
	d, err := DelayOverhead(DelayDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 0.03 {
		t.Fatalf("delay overhead %v outside (0, 3%%]", d)
	}
}

func TestPublicNetworkSim(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := net.AddStation(StationHIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScenarioConfig(Starbucks)
	cfg.Duration = time.Minute
	tr, err := GenerateTraceConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Replay(tr); err != nil {
		t.Fatal(err)
	}
	b, err := net.StationEnergy(st, NexusOne, tr.Duration, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.Duration != tr.Duration {
		t.Fatalf("breakdown duration %v, want %v", b.Duration, tr.Duration)
	}
}

func TestPublicPortTable(t *testing.T) {
	tab := NewPortTable()
	tab.Update(1, []uint16{5353})
	if got := tab.Lookup(5353); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Lookup = %v", got)
	}
	timings := MeasureTableTimings(10, 10, 1)
	if timings.Insert <= 0 {
		t.Fatal("measured insert time not positive")
	}
}
