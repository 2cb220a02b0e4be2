package station

import (
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/sim"
)

var bssid = dot11.MACAddr{2, 0, 0, 0, 0, 1}

// readFrame is the channel's reading of raw, as a medium hands it to
// a node, for tests that call Receive directly.
func readFrame(raw []byte, rate dot11.Rate) *medium.Frame {
	f := new(medium.Frame)
	f.Read(raw, rate)
	return f
}

// rig assembles an engine, medium, HIDE-capable AP, and one station.
func rig(t *testing.T, mode Mode, apHIDE bool, ports []uint16) (*sim.Engine, *ap.AP, *Station) {
	t.Helper()
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: apHIDE, DTIMPeriod: 2})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  mode,
	})
	for _, p := range ports {
		st.OpenPort(p)
	}
	aid, err := a.Associate(st.cfg.Addr, mode == HIDE)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	return eng, a, st
}

// TestEnergyPricesHeardBeaconInterval: Energy prices the beacon
// interval the station heard. On an AP beaconing every 200 TU, Eb
// counts the window's 200 TU beacons, not the model's 100 TU default,
// and withOverhead adds a positive Eo.
func TestEnergyPricesHeardBeaconInterval(t *testing.T) {
	const interval, window = 200 * dot11.TU, 10 * time.Second
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true, BeaconInterval: interval})
	st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 0x10}, BSSID: bssid, Mode: HIDE})
	st.OpenPort(5353)
	aid, err := a.Associate(st.Addr(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	a.Start()
	eng.RunUntil(window)
	b, err := st.Energy(energy.NexusOne, window, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := energy.NexusOne.EBeaconJ * float64(window/interval); b.EbJ != want {
		t.Errorf("Eb = %v J, want %v J (%d beacons of 200 TU)", b.EbJ, want, window/interval)
	}
	if b.EoJ <= 0 {
		t.Errorf("Eo = %v J with the overhead on, want > 0", b.EoJ)
	}
}

func TestJoinRejectsInvalidAID(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 9}, BSSID: bssid})
	if err := st.Join(0); err == nil {
		t.Fatal("AID 0 accepted")
	}
}

func TestInitialPortSyncHandshake(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353, 53})
	a.Start()
	eng.RunUntil(500 * time.Millisecond)

	if st.Stats().PortMsgsSent == 0 {
		t.Fatal("HIDE station never sent a UDP Port Message")
	}
	if st.Stats().ACKsReceived == 0 {
		t.Fatal("station never received the ACK")
	}
	if !st.Suspended() {
		t.Fatal("station not suspended after handshake")
	}
	if !a.Table().Listening(5353, st.AID()) {
		t.Fatal("AP table missing the station's ports")
	}
}

func TestLegacyStationSuspendsWithoutHandshake(t *testing.T) {
	eng, a, st := rig(t, Legacy, false, nil)
	a.Start()
	eng.RunUntil(200 * time.Millisecond)
	if st.Stats().PortMsgsSent != 0 {
		t.Fatal("legacy station sent a UDP Port Message")
	}
	if !st.Suspended() {
		t.Fatal("legacy station failed to suspend")
	}
}

func TestHIDEStationSkipsUselessBroadcast(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	// Give the handshake time, then inject a useless broadcast frame.
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	})
	eng.RunUntil(2 * time.Second)

	if got := st.Stats().GroupReceived; got != 0 {
		t.Fatalf("HIDE station received %d useless group frames, want 0", got)
	}
	if !st.Suspended() {
		t.Fatal("station should remain suspended")
	}
}

func TestHIDEStationWakesForUsefulBroadcast(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353, Payload: make([]byte, 64)}, dot11.Rate1Mbps)
	})
	eng.RunUntil(3 * time.Second)

	if st.Stats().GroupUseful != 1 {
		t.Fatalf("useful frames = %d, want 1", st.Stats().GroupUseful)
	}
	if st.Stats().Wakeups == 0 {
		t.Fatal("station never woke for the useful frame")
	}
	if !st.Suspended() {
		t.Fatal("station should re-suspend after the wakelock expires")
	}
	// Every suspend after a wake re-sends the port message.
	if st.Stats().PortMsgsSent < 2 {
		t.Errorf("port messages sent = %d, want >= 2 (join + re-suspend)", st.Stats().PortMsgsSent)
	}
	arr := st.Arrivals()
	if len(arr) != 1 || arr[0].Wakelock != time.Second {
		t.Fatalf("arrivals = %+v, want one frame with 1 s wakelock", arr)
	}
}

func TestHIDEStationDropsRideAlongFrames(t *testing.T) {
	// A useless frame buffered in the same DTIM as a useful one rides
	// along: the radio receives it but the driver drops it with zero
	// wakelock.
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	})
	eng.RunUntil(3 * time.Second)

	if st.Stats().GroupUseful != 1 || st.Stats().GroupDropped != 1 {
		t.Fatalf("useful=%d dropped=%d, want 1 and 1", st.Stats().GroupUseful, st.Stats().GroupDropped)
	}
	for _, arr := range st.Arrivals() {
		if arr.Wakelock != 0 && arr.Wakelock != time.Second {
			t.Errorf("unexpected wakelock %v", arr.Wakelock)
		}
	}
}

func TestLegacyStationReceivesEverything(t *testing.T) {
	eng, a, st := rig(t, Legacy, false, nil)
	a.Start()
	for i := 0; i < 3; i++ {
		at := time.Duration(300+200*i) * time.Millisecond
		eng.MustScheduleAt(at, func(time.Duration) {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
		})
	}
	eng.RunUntil(3 * time.Second)

	if st.Stats().GroupReceived != 3 {
		t.Fatalf("received %d group frames, want 3", st.Stats().GroupReceived)
	}
	for _, arr := range st.Arrivals() {
		if arr.Wakelock != time.Second {
			t.Errorf("legacy wakelock = %v, want 1 s", arr.Wakelock)
		}
	}
}

func TestClientSideStationShortWakelockForUseless(t *testing.T) {
	eng, a, st := rig(t, ClientSide, false, []uint16{5353})
	a.Start()
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	})
	eng.RunUntil(3 * time.Second)

	arr := st.Arrivals()
	if len(arr) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arr))
	}
	var sawShort, sawFull bool
	for _, a := range arr {
		switch a.Wakelock {
		case 100 * time.Millisecond:
			sawShort = true
		case time.Second:
			sawFull = true
		}
	}
	if !sawShort || !sawFull {
		t.Fatalf("wakelocks = %v, want one short and one full", arr)
	}
}

func TestHIDEStationFallsBackOnLegacyAP(t *testing.T) {
	// Coexistence the other way: a HIDE station under a legacy AP
	// obeys the standard broadcast bit.
	eng, a, st := rig(t, HIDE, false, []uint16{5353})
	a.Start()
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	})
	eng.RunUntil(2 * time.Second)

	if st.Stats().GroupReceived != 1 {
		t.Fatalf("received %d frames under legacy AP, want 1 (fallback)", st.Stats().GroupReceived)
	}
}

func TestPortMessageRetransmissionUnderLoss(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 99)
	med.SetFaultPlan(fault.Loss{P: 0.5})
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  HIDE,
	})
	st.OpenPort(5353)
	aid, err := a.Associate(st.cfg.Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	a.Start()
	eng.RunUntil(5 * time.Second)

	if st.Stats().PortMsgsSent <= st.Stats().ACKsReceived {
		t.Errorf("under 50%% loss expected retransmissions: sent=%d acks=%d",
			st.Stats().PortMsgsSent, st.Stats().ACKsReceived)
	}
	if !st.Suspended() {
		t.Error("station failed to eventually suspend under loss")
	}
}

func TestUnicastRetrievalViaPSPoll(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, nil)
	a.Start()
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		if err := a.EnqueueUnicast(st.cfg.Addr, dot11.UDPDatagram{DstPort: 443}, dot11.Rate11Mbps); err != nil {
			t.Error(err)
		}
		if err := a.EnqueueUnicast(st.cfg.Addr, dot11.UDPDatagram{DstPort: 444}, dot11.Rate11Mbps); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(3 * time.Second)

	if st.Stats().UnicastReceived != 2 {
		t.Fatalf("unicast received = %d, want 2", st.Stats().UnicastReceived)
	}
	if st.Stats().PSPollsSent < 2 {
		t.Errorf("PS-Polls sent = %d, want >= 2", st.Stats().PSPollsSent)
	}
}

func TestOpenClosePorts(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 9}, BSSID: bssid})
	st.OpenPort(53)
	st.OpenPort(5353)
	st.ClosePort(53)
	got := st.OpenPorts()
	if len(got) != 1 || got[0] != 5353 {
		t.Fatalf("OpenPorts = %v, want [5353]", got)
	}
}

func TestUpdatedPortsReachAPOnNextSuspend(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	// Wake the station with a useful frame, change ports while awake.
	eng.MustScheduleAt(300*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	})
	eng.MustScheduleAt(600*time.Millisecond, func(time.Duration) {
		st.OpenPort(1900)
		st.ClosePort(5353)
	})
	eng.RunUntil(4 * time.Second)

	if !a.Table().Listening(1900, st.AID()) {
		t.Error("new port not synced to AP on re-suspend")
	}
	if a.Table().Listening(5353, st.AID()) {
		t.Error("closed port still in AP table after re-suspend")
	}
}

func TestFrameLevelAssociation(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  HIDE,
	})
	st.OpenPort(5353)
	st.StartAssociation("t")
	a.Start()
	eng.RunUntil(time.Second)

	if !st.Associated() {
		t.Fatal("station did not associate over the air")
	}
	if !st.AID().Valid() {
		t.Fatalf("invalid AID %d after association", st.AID())
	}
	// The assoc request's Open UDP Ports element seeded the table.
	if !a.Table().Listening(5353, st.AID()) {
		t.Fatal("port from assoc request not in AP table")
	}
	if st.Stats().AssocRequests != 1 {
		t.Errorf("assoc requests = %d, want 1 (no retries needed)", st.Stats().AssocRequests)
	}
}

func TestAssociationRetriesUnderLoss(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 3)
	med.SetFaultPlan(fault.Loss{P: 0.5})
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  HIDE,
	})
	st.StartAssociation("t")
	a.Start()
	eng.RunUntil(2 * time.Second)

	if !st.Associated() {
		t.Skipf("association failed under 50%% loss after %d attempts (possible with this seed)",
			st.Stats().AssocRequests)
	}
	if st.Stats().AssocRequests < 1 {
		t.Error("no association attempts recorded")
	}
}

// TestAssociatingUntilRetriesRunOut: with no AP to answer, the
// exchange stays under way through every retry and ends, unassociated,
// when the budget is spent; an answered exchange ends associated.
func TestAssociatingUntilRetriesRunOut(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 0x10}, BSSID: bssid, Mode: HIDE})
	if st.Associating() {
		t.Fatal("associating before any request")
	}
	st.StartAssociation("t")
	eng.RunUntil(time.Duration(maxRetries) * DefaultAckTimeout)
	if !st.Associating() {
		t.Fatal("exchange over before the last retry's timeout")
	}
	eng.RunUntil(time.Second)
	if st.Associating() || st.Associated() {
		t.Fatalf("associating %v, associated %v after the retry budget", st.Associating(), st.Associated())
	}
	if got := st.Stats().AssocRequests; got != 1+maxRetries {
		t.Errorf("sent %d requests, want 1 + %d retries", got, maxRetries)
	}

	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true})
	a.Start()
	st.StartAssociation("t")
	eng.RunUntil(2 * time.Second)
	if st.Associating() || !st.Associated() {
		t.Fatalf("associating %v, associated %v after the AP answered", st.Associating(), st.Associated())
	}
}

func TestStartAssociationIdempotent(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  HIDE,
	})
	st.StartAssociation("t")
	a.Start()
	eng.RunUntil(time.Second)
	sent := st.Stats().AssocRequests
	st.StartAssociation("t") // already associated: no-op
	eng.RunUntil(2 * time.Second)
	if st.Stats().AssocRequests != sent {
		t.Error("StartAssociation re-sent after association")
	}
}

func TestUnassociatedStationIgnoresTraffic(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: false})
	st := New(eng, med, Config{
		Addr:  dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID: bssid,
		Mode:  Legacy,
	})
	// Never associates; the AP broadcasts anyway.
	a.Start()
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	eng.RunUntil(time.Second)
	if st.Stats().BeaconsHeard != 0 || st.Stats().GroupReceived != 0 {
		t.Errorf("unassociated station processed traffic: %+v", st.Stats())
	}
}

func TestReceiveGarbageNeverPanics(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	r := sim.NewRNG(123)
	for i := 0; i < 500; i++ {
		n := r.Intn(64)
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(r.Uint64())
		}
		st.Receive(readFrame(raw, dot11.Rate1Mbps), eng.Now())
	}
	eng.RunUntil(time.Second)
	// The station must still work after the garbage storm.
	eng.MustScheduleAt(1100*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	})
	eng.RunUntil(3 * time.Second)
	if st.Stats().GroupUseful != 1 {
		t.Fatalf("station broken after garbage: useful = %d", st.Stats().GroupUseful)
	}
}

func TestListenIntervalSkipsBeacons(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true, DTIMPeriod: 2})
	st := New(eng, med, Config{
		Addr:           dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID:          bssid,
		Mode:           HIDE,
		ListenInterval: 3,
	})
	aid, err := a.Associate(st.cfg.Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	a.Start()
	eng.RunUntil(3 * time.Second)

	s := st.Stats()
	if s.BeaconsSkipped == 0 {
		t.Fatal("listen interval 3 skipped no beacons")
	}
	// Roughly 2/3 skipped.
	total := s.BeaconsHeard + s.BeaconsSkipped
	if s.BeaconsHeard > total/2 {
		t.Errorf("heard %d of %d beacons with LI=3", s.BeaconsHeard, total)
	}
	if s.DTIMsSkipped == 0 {
		t.Error("no skipped DTIMs counted despite DTIM period 2 and LI 3")
	}
}

func TestListenIntervalMayMissGroupTraffic(t *testing.T) {
	// A deterministic miss: with DTIM period 1 and LI 2, half the DTIMs
	// are slept through, so some useful frames are lost — the trade-off
	// the knob exists to explore.
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true, DTIMPeriod: 1})
	st := New(eng, med, Config{
		Addr:           dot11.MACAddr{2, 0, 0, 0, 0, 0x10},
		BSSID:          bssid,
		Mode:           HIDE,
		ListenInterval: 2,
	})
	st.OpenPort(5353)
	aid, err := a.Associate(st.cfg.Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid, []uint16{5353})
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	a.Start()
	// One useful frame per beacon interval for 40 intervals.
	for i := 0; i < 40; i++ {
		at := time.Duration(i)*dot11.DefaultBeaconInterval + 10*time.Millisecond
		eng.MustScheduleAt(at, func(time.Duration) {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		})
	}
	eng.RunUntil(6 * time.Second)

	s := st.Stats()
	if s.GroupUseful >= 40 {
		t.Errorf("received all %d frames despite LI=2; expected misses", s.GroupUseful)
	}
	if s.GroupUseful == 0 {
		t.Error("received nothing; LI gating too aggressive")
	}
}

func TestLeaveDisassociates(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	eng.RunUntil(500 * time.Millisecond) // handshake done, ports synced
	if !a.Table().Listening(5353, st.AID()) {
		t.Fatal("precondition: ports not synced")
	}
	st.Leave(dot11.ReasonStationLeft)
	eng.RunUntil(time.Second)

	if st.Associated() {
		t.Fatal("station still associated after Leave")
	}
	if a.Stats().Disassociations != 1 {
		t.Fatalf("AP disassociations = %d, want 1", a.Stats().Disassociations)
	}
	if a.Table().Len() != 0 {
		t.Fatal("AP kept port entries after disassociation")
	}
	// Broadcast after leaving must not be processed.
	eng.MustScheduleAt(1100*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	})
	eng.RunUntil(3 * time.Second)
	if st.Stats().GroupReceived != 0 {
		t.Error("departed station still received group traffic")
	}
	// Leave while unassociated is a no-op.
	st.Leave(dot11.ReasonStationLeft)
}

func TestReassociationAfterLeave(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	eng.RunUntil(500 * time.Millisecond)
	st.Leave(dot11.ReasonStationLeft)
	eng.RunUntil(time.Second)
	st.StartAssociation("t")
	eng.RunUntil(2 * time.Second)
	if !st.Associated() {
		t.Fatal("re-association failed")
	}
	if !a.Table().Listening(5353, st.AID()) {
		t.Fatal("ports not re-seeded on re-association")
	}
}
