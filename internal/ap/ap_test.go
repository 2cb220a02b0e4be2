package ap

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

var (
	bssid  = dot11.MACAddr{2, 0, 0, 0, 0, 1}
	c1Addr = dot11.MACAddr{2, 0, 0, 0, 0, 0x10}
	c2Addr = dot11.MACAddr{2, 0, 0, 0, 0, 0x20}
)

// sniffer records everything delivered to one address.
type sniffer struct {
	beacons   []dot11.BeaconReading // each read from its own copy of the frame
	data      []dot11.DataFrame     // each read from its own copy of the frame
	acks      int
	responses []dot11.FrameKind // (re)association responses, in order
}

// Receive keeps what it reads, so it reads its own copy of the frame
// rather than keep the channel's reading.
func (s *sniffer) Receive(f *medium.Frame, at time.Duration) {
	switch f.Kind {
	case dot11.KindAssocResponse, dot11.KindReassocResponse:
		s.responses = append(s.responses, f.Kind)
	case dot11.KindBeacon:
		var b dot11.BeaconReading
		if dot11.ReadBeacon(append([]byte(nil), f.Raw...), &b) == nil {
			s.beacons = append(s.beacons, b)
		}
	case dot11.KindData:
		var d dot11.DataFrame
		if dot11.ReadDataFrame(append([]byte(nil), f.Raw...), &d) == nil {
			s.data = append(s.data, d)
		}
	case dot11.KindACK:
		s.acks++
	}
}

// readFrame is the channel's reading of raw, as a medium hands it to
// a node, for tests that call Receive directly.
func readFrame(raw []byte, rate dot11.Rate) *medium.Frame {
	f := new(medium.Frame)
	f.Read(raw, rate)
	return f
}

// rig builds an engine, medium, AP, and a sniffer attached at addr.
func rig(t *testing.T, cfg Config) (*sim.Engine, *medium.Medium, *AP, *sniffer) {
	t.Helper()
	eng := sim.New()
	med := medium.New(eng, 42)
	cfg.BSSID = bssid
	if cfg.SSID == "" {
		cfg.SSID = "test"
	}
	a := New(eng, med, cfg)
	sn := &sniffer{}
	med.Attach(c1Addr, sn)
	return eng, med, a, sn
}

func TestBeaconCadenceAndDTIM(t *testing.T) {
	eng, _, a, sn := rig(t, Config{DTIMPeriod: 3})
	a.Start()
	eng.RunUntil(time.Second)

	// 100 TU = 102.4 ms; in one second: beacons at 102.4..921.6 ms = 9.
	if len(sn.beacons) != 9 {
		t.Fatalf("heard %d beacons in 1 s, want 9", len(sn.beacons))
	}
	for i, b := range sn.beacons {
		if !b.HasTIM {
			t.Fatalf("beacon %d missing TIM", i)
		}
		wantCount := uint8((3 - i%3) % 3)
		if b.TIM.DTIMCount != wantCount {
			t.Errorf("beacon %d DTIM count = %d, want %d", i, b.TIM.DTIMCount, wantCount)
		}
		if b.TIM.DTIMPeriod != 3 {
			t.Errorf("beacon %d DTIM period = %d, want 3", i, b.TIM.DTIMPeriod)
		}
	}
	if a.Stats().DTIMsSent != 3 {
		t.Errorf("DTIMs sent = %d, want 3", a.Stats().DTIMsSent)
	}
}

func TestHIDEBeaconCarriesBTIM(t *testing.T) {
	eng, _, a, sn := rig(t, Config{HIDE: true})
	a.Start()
	eng.RunUntil(200 * time.Millisecond)
	if len(sn.beacons) == 0 {
		t.Fatal("no beacons heard")
	}
	if !sn.beacons[0].HasBTIM {
		t.Fatal("HIDE AP beacon missing BTIM element")
	}
	eng2, _, a2, sn2 := rig(t, Config{HIDE: false})
	a2.Start()
	eng2.RunUntil(200 * time.Millisecond)
	if sn2.beacons[0].HasBTIM {
		t.Fatal("legacy AP beacon carries BTIM")
	}
}

func TestGroupBufferingUntilDTIM(t *testing.T) {
	eng, _, a, sn := rig(t, Config{DTIMPeriod: 3})
	a.Start()
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)

	eng.RunUntil(time.Second)
	if got := len(sn.data); got != 2 {
		t.Fatalf("received %d group frames, want 2", got)
	}
	// The first buffered frame must carry MoreData, the last must not.
	if !sn.data[0].Header.FC.MoreData {
		t.Error("first group frame missing MoreData")
	}
	if sn.data[1].Header.FC.MoreData {
		t.Error("last group frame has MoreData set")
	}
	for _, d := range sn.data {
		if !d.Header.Addr1.IsBroadcast() {
			t.Error("group frame not broadcast-addressed")
		}
	}
	if a.BufferedGroupFrames() != 0 {
		t.Error("group buffer not flushed")
	}
}

func TestAlgorithm1FlagsOnlyListeningClients(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true, DTIMPeriod: 1})
	aid1, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	aid2, err := a.Associate(c2Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid1, []uint16{5353})
	a.Table().Update(aid2, []uint16{1900})
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)

	flags := a.broadcastFlags()
	if !flags.Get(aid1) {
		t.Error("client with matching port not flagged")
	}
	if flags.Get(aid2) {
		t.Error("client without matching port flagged")
	}
}

func TestPortMessageUpdatesTableAndACKs(t *testing.T) {
	eng, med, a, sn := rig(t, Config{HIDE: true})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	msg := &dot11.UDPPortMessage{
		Header: dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		Ports:  []uint16{53, 5353},
	}
	raw := msg.AppendTo(nil)
	med.Transmit(c1Addr, raw, dot11.Rate1Mbps)
	eng.Run()

	if !a.Table().Listening(5353, aid) || !a.Table().Listening(53, aid) {
		t.Error("port table not updated from UDP Port Message")
	}
	if sn.acks != 1 {
		t.Errorf("client received %d ACKs, want 1", sn.acks)
	}
	if a.Stats().PortMsgsReceived != 1 || a.Stats().ACKsSent != 1 {
		t.Errorf("stats = %+v", a.Stats())
	}
}

func TestPortMessageFromUnassociatedIgnored(t *testing.T) {
	eng, med, a, sn := rig(t, Config{HIDE: true})
	msg := &dot11.UDPPortMessage{
		Header: dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		Ports:  []uint16{53},
	}
	raw := msg.AppendTo(nil)
	med.Transmit(c1Addr, raw, dot11.Rate1Mbps)
	eng.Run()
	if sn.acks != 0 {
		t.Error("AP ACKed an unassociated client")
	}
	if a.Table().Len() != 0 {
		t.Error("table updated for unassociated client")
	}
}

func TestUnicastBufferingAndPSPoll(t *testing.T) {
	eng, med, a, sn := rig(t, Config{})
	aid, err := a.Associate(c1Addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 443}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 444}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	a.Start()
	eng.RunUntil(150 * time.Millisecond)

	// The beacon's TIM must indicate buffered unicast for the client.
	if len(sn.beacons) == 0 || !sn.beacons[0].TIM.UnicastBuffered(aid) {
		t.Fatal("TIM does not indicate buffered unicast")
	}
	// Poll twice; the first delivery must carry MoreData.
	poll := &dot11.PSPoll{AID: aid, BSSID: bssid, TA: c1Addr}
	med.Transmit(c1Addr, poll.Marshal(), dot11.Rate1Mbps)
	eng.RunUntil(160 * time.Millisecond)
	med.Transmit(c1Addr, poll.Marshal(), dot11.Rate1Mbps)
	eng.RunUntil(200 * time.Millisecond)

	if len(sn.data) != 2 {
		t.Fatalf("received %d unicast frames, want 2", len(sn.data))
	}
	if !sn.data[0].Header.FC.MoreData || sn.data[1].Header.FC.MoreData {
		t.Error("MoreData bits wrong across PS-Poll deliveries")
	}
	if a.Stats().PSPollsServed != 2 {
		t.Errorf("PSPollsServed = %d, want 2", a.Stats().PSPollsServed)
	}
}

func TestEnqueueUnicastUnknownClient(t *testing.T) {
	_, _, a, _ := rig(t, Config{})
	if err := a.EnqueueUnicast(c2Addr, dot11.UDPDatagram{}, dot11.Rate1Mbps); err == nil {
		t.Fatal("unicast for unassociated client accepted")
	}
}

func TestAssociateDuplicateRejected(t *testing.T) {
	_, _, a, _ := rig(t, Config{})
	if _, err := a.Associate(c1Addr, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate(c1Addr, false); err == nil {
		t.Fatal("duplicate association accepted")
	}
}

func TestDisassociateClearsPorts(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid, []uint16{53})
	a.Disassociate(c1Addr)
	if a.Table().Len() != 0 {
		t.Error("disassociation left port entries behind")
	}
	// The address can re-associate afterwards.
	if _, err := a.Associate(c1Addr, true); err != nil {
		t.Errorf("re-association failed: %v", err)
	}
}

func TestTIMBroadcastBitOnlyOnDTIMWithTraffic(t *testing.T) {
	eng, _, a, sn := rig(t, Config{DTIMPeriod: 2})
	a.Start()
	// Enqueue traffic mid-run so some DTIMs are empty.
	eng.MustScheduleAt(250*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	})
	eng.RunUntil(time.Second)
	sawSet := false
	for _, b := range sn.beacons {
		if b.TIM.Broadcast {
			sawSet = true
			if b.TIM.DTIMCount != 0 {
				t.Error("broadcast bit set on a non-DTIM beacon")
			}
		}
	}
	if !sawSet {
		t.Error("broadcast bit never set despite buffered traffic")
	}
}

func TestUnicastFilteringExtension(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true, FilterUnicast: true})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid, []uint16{5000})

	// Open port: buffered. Closed port: dropped.
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 5000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 6000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().UnicastFiltered; got != 1 {
		t.Errorf("UnicastFiltered = %d, want 1", got)
	}
	if got := len(a.clients[c1Addr].unicast); got != 1 {
		t.Errorf("buffered unicast frames = %d, want 1 (closed-port frame dropped)", got)
	}
}

func TestUnicastFilteringSparesLegacyClients(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true, FilterUnicast: true})
	if _, err := a.Associate(c1Addr, false); err != nil { // legacy client
		t.Fatal(err)
	}
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 6000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if a.Stats().UnicastFiltered != 0 {
		t.Error("legacy client's unicast was filtered")
	}
	if len(a.clients[c1Addr].unicast) != 1 {
		t.Error("legacy client's unicast not buffered")
	}
}

func TestUnicastFilteringOffByDefault(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid, []uint16{5000})
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 6000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	if a.Stats().UnicastFiltered != 0 || len(a.clients[c1Addr].unicast) != 1 {
		t.Error("unicast filtered despite extension disabled")
	}
}

func TestAssocRequestOverTheAir(t *testing.T) {
	eng, med, a, sn := rig(t, Config{HIDE: true})
	req := &dot11.AssocRequest{
		Header:      dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		SSID:        "test",
		HIDECapable: true,
		Ports:       []uint16{5353},
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	med.Transmit(c1Addr, raw, dot11.Rate1Mbps)
	eng.Run()
	if a.Stats().AssocResponses != 1 {
		t.Fatalf("AssocResponses = %d, want 1", a.Stats().AssocResponses)
	}
	c, ok := a.clients[c1Addr]
	if !ok || !c.hideCapable {
		t.Fatal("client not registered as HIDE-capable")
	}
	if !a.Table().Listening(5353, c.aid) {
		t.Fatal("assoc request ports not seeded into table")
	}
	_ = sn
}

func TestAssocRequestRetryGetsSameAID(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true})
	req := &dot11.AssocRequest{
		Header: dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		SSID:   "test",
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	med.Transmit(c1Addr, raw, dot11.Rate1Mbps)
	eng.Run()
	first := a.clients[c1Addr].aid
	med.Transmit(c1Addr, raw, dot11.Rate1Mbps) // retransmission
	eng.Run()
	if a.Stats().AssocResponses != 2 {
		t.Fatalf("AssocResponses = %d, want 2", a.Stats().AssocResponses)
	}
	if a.clients[c1Addr].aid != first {
		t.Error("retry changed the client's AID")
	}
}

func TestAPReceiveGarbageNeverPanics(t *testing.T) {
	eng, _, a, _ := rig(t, Config{HIDE: true})
	a.Start()
	r := sim.NewRNG(321)
	for i := 0; i < 500; i++ {
		n := r.Intn(64)
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(r.Uint64())
		}
		a.Receive(readFrame(raw, dot11.Rate1Mbps), eng.Now())
	}
	eng.RunUntil(time.Second)
	if a.Stats().BeaconsSent == 0 {
		t.Fatal("AP stopped beaconing after garbage")
	}
}

func TestOversizeSSIDClamped(t *testing.T) {
	long := strings.Repeat("x", 100)
	eng, _, a, sn := rig(t, Config{SSID: long})
	a.Start()
	eng.RunUntil(150 * time.Millisecond) // must not panic
	if len(sn.beacons) == 0 {
		t.Fatal("no beacon with clamped SSID")
	}
	if got := sn.beacons[0].SSID; len(got) != 32 {
		t.Fatalf("SSID length = %d, want clamped to 32", len(got))
	}
}

// TestAIDsReusedAfterExhaustion runs the AID counter out with
// associations that each leave again: the next association takes the
// lowest AID no client holds instead of finding the table full.
func TestAIDsReusedAfterExhaustion(t *testing.T) {
	_, _, a, _ := rig(t, Config{})
	for i := 0; i < int(dot11.MaxAID); i++ {
		addr := dot11.MACAddr{0x02, 0xbb, 0, 0, byte(i >> 8), byte(i)}
		aid, err := a.Associate(addr, true)
		if err != nil {
			t.Fatalf("association %d: %v", i+1, err)
		}
		if want := dot11.AID(i + 1); aid != want {
			t.Fatalf("association %d got AID %d, want %d (sequential)", i+1, aid, want)
		}
		a.Disassociate(addr)
	}
	if _, err := a.Associate(c1Addr, true); err != nil {
		t.Fatalf("association after %d leaves: %v", dot11.MaxAID, err)
	}
	aid, err := a.Associate(c2Addr, true)
	if err != nil || aid != 2 {
		t.Fatalf("second reused AID = %d, %v; want 2", aid, err)
	}
	if free := a.FreeAIDs(); free != int(dot11.MaxAID)-2 {
		t.Fatalf("FreeAIDs = %d with 2 clients, want %d", free, int(dot11.MaxAID)-2)
	}
}
