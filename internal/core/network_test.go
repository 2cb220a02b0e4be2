package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

// shortTrace builds a quick deterministic trace for protocol tests.
func shortTrace(t *testing.T, duration time.Duration, fps float64) *trace.Trace {
	t.Helper()
	cfg := trace.GenConfig{
		Name:             "nettest",
		Duration:         duration,
		MeanFPS:          fps,
		BurstFactor:      2,
		BurstFraction:    0.2,
		MeanFrameBytes:   200,
		MoreDataFraction: 0.3,
		Rates:            []dot11.Rate{dot11.Rate1Mbps, dot11.Rate11Mbps},
		RateWeights:      []float64{0.5, 0.5},
		Mix:              trace.DefaultPortMix(),
		Seed:             77,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNetworkReplayEndToEnd(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	hideSt, err := n.AddStation(station.HIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	legacySt, err := n.AddStation(station.Legacy, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	csSt, err := n.AddStation(station.ClientSide, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}

	tr := shortTrace(t, 2*time.Minute, 3)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}

	// The AP must have transmitted every trace frame.
	if got := n.AP.Stats().GroupFramesSent; got != len(tr.Frames) {
		t.Fatalf("AP sent %d group frames, trace has %d", got, len(tr.Frames))
	}
	// Legacy and client-side stations receive every group frame.
	if got := legacySt.Stats().GroupReceived; got != len(tr.Frames) {
		t.Errorf("legacy received %d, want %d", got, len(tr.Frames))
	}
	if got := csSt.Stats().GroupReceived; got != len(tr.Frames) {
		t.Errorf("client-side received %d, want %d", got, len(tr.Frames))
	}

	// The HIDE station receives every frame for its open port...
	wantUseful := 0
	for _, f := range tr.Frames {
		if f.DstPort == 5353 {
			wantUseful++
		}
	}
	if got := hideSt.Stats().GroupUseful; got != wantUseful {
		t.Errorf("HIDE useful = %d, want %d", got, wantUseful)
	}
	// ...and far fewer frames total than the legacy station (only
	// ride-alongs in mixed DTIMs add to its count).
	if hideSt.Stats().GroupReceived >= legacySt.Stats().GroupReceived {
		t.Errorf("HIDE received %d >= legacy %d", hideSt.Stats().GroupReceived, legacySt.Stats().GroupReceived)
	}
}

func TestNetworkEnergyOrdering(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	hideSt, err := n.AddStation(station.HIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	legacySt, err := n.AddStation(station.Legacy, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, 5*time.Minute, 3)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}

	hideE, err := n.StationEnergy(hideSt, energy.NexusOne, tr.Duration, true)
	if err != nil {
		t.Fatal(err)
	}
	legacyE, err := n.StationEnergy(legacySt, energy.NexusOne, tr.Duration, false)
	if err != nil {
		t.Fatal(err)
	}
	if hideE.TotalJ() >= legacyE.TotalJ() {
		t.Errorf("protocol sim: HIDE %.2f J >= legacy %.2f J", hideE.TotalJ(), legacyE.TotalJ())
	}
	if hideE.SuspendFraction <= legacyE.SuspendFraction {
		t.Errorf("protocol sim: HIDE suspend %.2f <= legacy %.2f", hideE.SuspendFraction, legacyE.SuspendFraction)
	}
}

func TestProtocolSimMatchesAnalyticModel(t *testing.T) {
	// Cross-validation: the legacy station's protocol-level energy must
	// track the receive-all analytic pipeline. The protocol sim differs
	// from the analytic model in frame timing (DTIM batching shifts
	// arrivals to DTIM boundaries) but totals should agree within ~20%.
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	legacySt, err := n.AddStation(station.Legacy, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, 5*time.Minute, 2)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}

	simE, err := n.StationEnergy(legacySt, energy.NexusOne, tr.Duration, false)
	if err != nil {
		t.Fatal(err)
	}

	useful := make([]bool, len(tr.Frames)) // all useless; receive-all ignores it
	p, err := policy.New(policy.ReceiveAll)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := policy.AppendArrivals(nil, p, tr, useful)
	if err != nil {
		t.Fatal(err)
	}
	anaE, err := energy.Compute(arr, energy.Config{Device: energy.NexusOne, Duration: tr.Duration})
	if err != nil {
		t.Fatal(err)
	}

	rel := math.Abs(simE.TotalJ()-anaE.TotalJ()) / anaE.TotalJ()
	if rel > 0.20 {
		t.Errorf("protocol sim %.2f J vs analytic %.2f J: %.0f%% apart",
			simE.TotalJ(), anaE.TotalJ(), rel*100)
	}
	if math.Abs(simE.SuspendFraction-anaE.SuspendFraction) > 0.15 {
		t.Errorf("suspend fraction: sim %.2f vs analytic %.2f",
			simE.SuspendFraction, anaE.SuspendFraction)
	}
}

func TestNetworkWithLossStillConverges(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true, Loss: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hideSt, err := n.AddStation(station.HIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, 2*time.Minute, 2)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}
	// Under loss the handshake retries; the station must still sync.
	if hideSt.Stats().ACKsReceived == 0 {
		t.Error("no ACK ever received under 20% loss")
	}
	// Give the final wakelock and handshake time to drain, then the
	// station must be suspended (no wedged listen or ACK-wait state).
	n.Engine.RunUntil(tr.Duration + 5*time.Second)
	if !hideSt.Suspended() {
		t.Error("station wedged awake under loss")
	}
}

func TestNewNetworkValidatesLoss(t *testing.T) {
	for _, loss := range []float64{1.5, 1, -0.3, math.NaN()} {
		if _, err := NewNetwork(NetworkConfig{Loss: loss}); err == nil {
			t.Errorf("loss %v accepted", loss)
		}
	}
}

func TestNetworkStationCap(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := n.AddStation(station.Legacy, nil); err != nil {
			t.Fatalf("station %d: %v", i, err)
		}
	}
}

func TestNetworkUnicastFilteringExtension(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true, FilterUnicast: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.AddStation(station.HIDE, []uint16{4000})
	if err != nil {
		t.Fatal(err)
	}
	n.AP.Start()
	// Let association + port sync settle, then enqueue unicast to an
	// open and a closed port.
	n.Engine.RunUntil(500 * time.Millisecond)
	if !st.Associated() {
		t.Fatal("station not associated")
	}
	addr := dot11.MACAddr{0x02, 0x1d, 0xe0, 0x01, 0x00, 0x01}
	if err := n.AP.EnqueueUnicast(addr, dot11.UDPDatagram{DstPort: 4000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if err := n.AP.EnqueueUnicast(addr, dot11.UDPDatagram{DstPort: 9999}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	n.Engine.RunUntil(3 * time.Second)

	if st.Stats().UnicastReceived != 1 {
		t.Errorf("unicast received = %d, want 1 (closed-port frame filtered)", st.Stats().UnicastReceived)
	}
	if n.AP.Stats().UnicastFiltered != 1 {
		t.Errorf("UnicastFiltered = %d, want 1", n.AP.Stats().UnicastFiltered)
	}
}

func TestNetworkAssociationOverTheAir(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	var sts []*station.Station
	for i := 0; i < 5; i++ {
		st, err := n.AddStation(station.HIDE, []uint16{uint16(5000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	n.AP.Start()
	n.Engine.RunUntil(time.Second)
	aids := map[dot11.AID]bool{}
	for i, st := range sts {
		if !st.Associated() {
			t.Fatalf("station %d failed to associate", i)
		}
		if aids[st.AID()] {
			t.Fatalf("duplicate AID %d", st.AID())
		}
		aids[st.AID()] = true
		// The assoc request seeded each station's port.
		if !n.AP.Table().Listening(uint16(5000+i), st.AID()) {
			t.Errorf("station %d ports not seeded", i)
		}
	}
}

// TestAttachBounds pins the attach path's limits. A cohort takes one
// AID however many members it stands for. Nothing attaches once no AID
// is free, counting the AID owed to a station still associating by
// frame exchange. A block of station numbers must start at 1 or later
// and end inside the address space.
func TestAttachBounds(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.AddStation(station.HIDE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddCohort(station.HIDE, nil, int(dot11.MaxAID)-1, 1); err != nil {
		t.Fatal(err)
	}
	if free := n.AP.FreeAIDs(); free != int(dot11.MaxAID)-1 {
		t.Fatalf("a cohort of %d left %d AIDs free, want %d (one association)", int(dot11.MaxAID)-1, free, int(dot11.MaxAID)-1)
	}
	for i := 0; n.AP.FreeAIDs() > 1; i++ {
		if _, err := n.AP.Associate(dot11.MACAddr{0x02, 0xaa, 0, 0, byte(i >> 8), byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddStation(station.HIDE, nil); err == nil {
		t.Fatal("a station attached with every AID promised")
	}
	if _, err := n.AddCohort(station.HIDE, nil, 1, 1); err == nil {
		t.Fatal("a cohort took the AID owed to the associating station")
	}
	n.AP.Start()
	n.Engine.RunUntil(time.Second)
	if !st.Associated() || st.AID() != dot11.MaxAID {
		t.Fatalf("station associated %v with AID %d, want AID %d", st.Associated(), st.AID(), dot11.MaxAID)
	}

	last := dot11.MaxAddrBlock - 0x010000 - 1 // the highest station number
	m, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddCohortAt(last-2, station.HIDE, nil, 3, 1); err != nil {
		t.Fatalf("a cohort ending at the last station number: %v", err)
	}
	if _, err := m.AddCohortAt(last-1, station.HIDE, nil, 3, 1); err == nil {
		t.Fatal("a cohort ran past the last station number")
	}
	if _, err := m.AddStationAt(0, station.HIDE, nil, 1); err == nil {
		t.Fatal("station number 0 attached")
	}
}
