package dot11

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

var (
	apAddr = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	c1Addr = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x10}
)

func TestFrameControlRoundTrip(t *testing.T) {
	cases := []FrameControl{
		{Type: TypeManagement, Subtype: SubtypeBeacon},
		{Type: TypeManagement, Subtype: SubtypeUDPPortMessage, Retry: true},
		{Type: TypeControl, Subtype: SubtypeACK},
		{Type: TypeControl, Subtype: SubtypePSPoll, PwrMgmt: true},
		{Type: TypeData, Subtype: SubtypeData, FromDS: true, MoreData: true},
		{Type: TypeData, Subtype: SubtypeData, ToDS: true, PwrMgmt: true, Retry: true},
	}
	for _, fc := range cases {
		got := UnmarshalFrameControl(fc.Marshal())
		if got != fc {
			t.Errorf("frame control round trip: got %+v, want %+v", got, fc)
		}
	}
}

func TestFrameControlRoundTripProperty(t *testing.T) {
	f := func(ty, st uint8, toDS, fromDS, more, pwr, retry bool) bool {
		fc := FrameControl{
			Type: FrameType(ty % 3), Subtype: st % 16,
			ToDS: toDS, FromDS: fromDS, MoreData: more, PwrMgmt: pwr, Retry: retry,
		}
		return UnmarshalFrameControl(fc.Marshal()) == fc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	var bm VirtualBitmap
	bm.Set(3)
	bm.Set(17)
	btim := BTIMFromBitmap(&bm)
	b := &Beacon{
		Header:         MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr, Seq: 7 << 4},
		Timestamp:      123456789,
		BeaconInterval: 100,
		Capability:     0x0401,
		SSID:           "hide-test",
		TIM: &TIM{
			DTIMCount: 0, DTIMPeriod: 3, Broadcast: true,
			BitmapOffset: 0, PartialBitmap: []byte{0x02},
		},
		BTIM: &btim,
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// An element the reader does not know is skipped, as a legacy
	// receiver skips the BTIM.
	raw = append(raw, 42, 3, 1, 2, 3)
	var got BeaconReading
	if err := ReadBeacon(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != b.Timestamp || got.BeaconInterval != b.BeaconInterval ||
		got.Capability != b.Capability || string(got.SSID) != b.SSID {
		t.Errorf("fixed fields mismatch: got %+v", got)
	}
	if !got.HasTIM || !got.TIM.Broadcast || got.TIM.DTIMPeriod != 3 {
		t.Errorf("TIM mismatch: %+v", got.TIM)
	}
	if !got.HasBTIM {
		t.Fatal("BTIM missing after round trip")
	}
	for aid := AID(1); aid <= 32; aid++ {
		want := aid == 3 || aid == 17
		if got.BTIM.UsefulBroadcastBuffered(aid) != want {
			t.Errorf("BTIM bit for AID %d = %v, want %v", aid, !want, want)
		}
	}
	if got.Header.Addr2 != apAddr {
		t.Errorf("header source = %v, want %v", got.Header.Addr2, apAddr)
	}
}

func TestBeaconWithoutHIDEElements(t *testing.T) {
	b := &Beacon{
		Header:         MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr},
		BeaconInterval: 100,
		SSID:           "legacy",
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got BeaconReading
	if err := ReadBeacon(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.HasTIM || got.HasBTIM {
		t.Fatal("read elements that were never encoded")
	}
}

func TestUnmarshalBeaconRejectsWrongType(t *testing.T) {
	m := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}}
	var r BeaconReading
	if err := ReadBeacon(m.AppendTo(nil), &r); err == nil {
		t.Fatal("ReadBeacon accepted a UDP Port Message")
	}
}

func TestUDPPortMessageRoundTrip(t *testing.T) {
	ports := []uint16{53, 67, 68, 137, 1900, 5353, 49152}
	m := &UDPPortMessage{
		Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		Ports:  ports,
	}
	raw := m.AppendTo(nil)
	// Eq. 19: L = Lmac + 2 + 2*N for N <= 127 (PHY overhead added on air).
	if want := MACHeaderLen + 2 + 2*len(ports); len(raw) != want {
		t.Errorf("wire length = %d, want %d per Eq. 19", len(raw), want)
	}
	hdr, got, err := ReadUDPPortMessage(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ports) {
		t.Fatalf("ports round trip: got %v, want %v", got, ports)
	}
	if hdr.Addr2 != c1Addr {
		t.Errorf("source = %v, want %v", hdr.Addr2, c1Addr)
	}
}

func TestUDPPortMessageSplitsLargePortSets(t *testing.T) {
	ports := make([]uint16, 300) // > 2 elements
	for i := range ports {
		ports[i] = uint16(1024 + i)
	}
	m := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: ports}
	_, got, err := ReadUDPPortMessage(m.AppendTo(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ports) {
		t.Fatalf("got %d ports %v, want the 300 sent", len(got), got)
	}
}

func TestUDPPortMessageEmpty(t *testing.T) {
	m := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}}
	_, got, err := ReadUDPPortMessage(m.AppendTo(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty message round-tripped to %v", got)
	}
}

func TestUDPPortMessageRoundTripProperty(t *testing.T) {
	f := func(ports []uint16) bool {
		m := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: ports}
		_, got, err := ReadUDPPortMessage(m.AppendTo(nil), nil)
		return err == nil && slices.Equal(got, ports)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestACKRoundTrip: an ACK encodes to its ACKFrameLen-FCSLen wire
// image, which Classify names and whose receiver address reads back.
func TestACKRoundTrip(t *testing.T) {
	raw := (&ACK{RA: c1Addr}).AppendTo(nil)
	if len(raw) != ACKFrameLen-FCSLen || Classify(raw) != KindACK {
		t.Fatalf("ACK encodes as %d bytes of kind %v", len(raw), Classify(raw))
	}
	if ra, ok := Receiver(raw); !ok || ra != c1Addr {
		t.Errorf("RA = %v, want %v", ra, c1Addr)
	}
}

func TestPSPollRoundTrip(t *testing.T) {
	p := &PSPoll{AID: 42, BSSID: apAddr, TA: c1Addr}
	got, err := UnmarshalPSPoll(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.AID != 42 || got.BSSID != apAddr || got.TA != c1Addr {
		t.Errorf("PS-Poll round trip: %+v", got)
	}
}

func TestDataFrameWithUDPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 100)
	body := EncapsulateUDP(UDPDatagram{
		SrcIP: [4]byte{192, 168, 1, 5}, DstIP: [4]byte{255, 255, 255, 255},
		SrcPort: 5353, DstPort: 5353, Payload: payload,
	})
	d := &DataFrame{
		Header: MACHeader{
			FC:    FrameControl{FromDS: true, MoreData: true},
			Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr,
		},
		Payload: body,
	}
	raw := d.Marshal()
	var got DataFrame
	if err := ReadDataFrame(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Header.FC.MoreData {
		t.Error("MoreData bit lost")
	}
	if !got.Header.Addr1.IsBroadcast() {
		t.Error("broadcast destination lost")
	}
	port, err := DstUDPPort(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if port != 5353 {
		t.Errorf("dst port = %d, want 5353", port)
	}
	dg, err := ParseUDP(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dg.Payload, payload) {
		t.Error("UDP payload corrupted in round trip")
	}
}

func TestParseUDPRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10),
		bytes.Repeat([]byte{0xff}, 50),
	}
	for _, c := range cases {
		if _, err := ParseUDP(c); err == nil {
			t.Errorf("ParseUDP accepted %d garbage bytes", len(c))
		}
	}
}

func TestParseUDPRejectsNonUDPProtocol(t *testing.T) {
	body := EncapsulateUDP(UDPDatagram{DstPort: 80})
	body[LLCSNAPLen+9] = 6 // TCP
	if _, err := ParseUDP(body); err == nil {
		t.Fatal("ParseUDP accepted a TCP packet")
	}
}

// ttlFlipped is an encapsulated datagram to port 5353 whose IPv4 TTL
// byte was flipped after the checksum was computed.
func ttlFlipped() []byte {
	body := EncapsulateUDP(UDPDatagram{DstPort: 5353, Payload: []byte("mdns")})
	body[LLCSNAPLen+8] ^= 0xff
	return body
}

// TestParseUDPChecksIPv4HeaderChecksum: a kernel drops a packet whose
// IPv4 header checksum does not hold, so ParseUDP refuses a body with
// a flipped TTL byte, while the port readers, which also read captures
// whose checksums the sender's NIC fills in later, still read its port.
func TestParseUDPChecksIPv4HeaderChecksum(t *testing.T) {
	body := ttlFlipped()
	if d, err := ParseUDP(body); err == nil {
		t.Fatalf("ParseUDP read port %d from a header whose checksum does not hold", d.DstPort)
	}
	port, perr := DstUDPPort(body)
	iport, ierr := IPv4DstUDPPort(body[LLCSNAPLen:])
	if perr != nil || ierr != nil || port != 5353 || iport != 5353 {
		t.Fatalf("DstUDPPort %d, %v, IPv4DstUDPPort %d, %v; want 5353 from each", port, perr, iport, ierr)
	}
	body[LLCSNAPLen+8] ^= 0xff
	if d, err := ParseUDP(body); err != nil || d.DstPort != 5353 {
		t.Fatalf("ParseUDP of the restored body = %d, %v; want 5353", d.DstPort, err)
	}
}

// TestUDPHeaderWalkRefusesLaterFragments: a non-first IPv4 fragment
// carries payload where a UDP header would be, so ParseUDP and both
// port readers refuse it, while a first fragment (More Fragments set,
// offset 0) or an unfragmented packet keeps its header and its port.
func TestUDPHeaderWalkRefusesLaterFragments(t *testing.T) {
	for _, c := range []struct {
		name         string
		flagsOffset  [2]byte // IPv4 bytes 6-7
		wantAccepted bool
	}{
		{"unfragmented", [2]byte{0, 0}, true},
		{"don't fragment", [2]byte{0x40, 0}, true},
		{"first fragment", [2]byte{0x20, 0}, true},
		{"fragment at 185x8", [2]byte{0, 185}, false},
		{"middle fragment", [2]byte{0x20, 185}, false},
		{"last possible offset", [2]byte{0x3f, 0xff}, false},
	} {
		body := EncapsulateUDP(UDPDatagram{DstPort: 5353, Payload: make([]byte, 32)})
		ip := body[LLCSNAPLen:]
		ip[6], ip[7] = c.flagsOffset[0], c.flagsOffset[1]
		// The checksum covers bytes 6-7, so only the fragment rule can
		// refuse the packet.
		cs := ipv4Checksum(ip[:IPv4HdrLen])
		ip[10], ip[11] = byte(cs>>8), byte(cs)
		if !c.wantAccepted {
			// Payload bytes where the header walk would read the ports.
			copy(ip[IPv4HdrLen:], []byte{0xde, 0xad, 0xbe, 0xef})
		}
		d, err := ParseUDP(body)
		port, perr := DstUDPPort(body)
		iport, ierr := IPv4DstUDPPort(ip)
		if !c.wantAccepted {
			if err == nil || perr == nil || ierr == nil {
				t.Errorf("%s: ParseUDP %v, DstUDPPort %d, %v, IPv4DstUDPPort %d, %v; want every reader to refuse it",
					c.name, err, port, perr, iport, ierr)
			}
			continue
		}
		if err != nil || perr != nil || ierr != nil || d.DstPort != 5353 || port != 5353 || iport != 5353 {
			t.Errorf("%s: ParseUDP %d, %v, DstUDPPort %d, %v, IPv4DstUDPPort %d, %v; want port 5353 from each",
				c.name, d.DstPort, err, port, perr, iport, ierr)
		}
	}
}

func TestUDPEncapsRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		body := EncapsulateUDP(UDPDatagram{SrcPort: sp, DstPort: dp, Payload: payload})
		d, err := ParseUDP(body)
		if err != nil {
			return false
		}
		return d.SrcPort == sp && d.DstPort == dp && bytes.Equal(d.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	var bm VirtualBitmap
	btim := BTIMFromBitmap(&bm)
	beacon := &Beacon{Header: MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr}, BTIM: &btim}
	beaconRaw, err := beacon.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	upm := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: []uint16{53}}
	upmRaw := upm.AppendTo(nil)
	data := &DataFrame{Header: MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr}}
	cases := []struct {
		raw  []byte
		want FrameKind
	}{
		{beaconRaw, KindBeacon},
		{upmRaw, KindUDPPortMessage},
		{(&ACK{RA: c1Addr}).AppendTo(nil), KindACK},
		{(&PSPoll{AID: 1, BSSID: apAddr, TA: c1Addr}).Marshal(), KindPSPoll},
		{data.Marshal(), KindData},
		{nil, KindUnknown},
		{[]byte{0xff}, KindUnknown},
	}
	for _, c := range cases {
		if got := Classify(c.raw); got != c.want {
			t.Errorf("Classify(%d bytes) = %v, want %v", len(c.raw), got, c.want)
		}
	}
}

// TestFrameAddresses pins where Receiver and Transmitter read each
// frame kind's addresses: the medium routes on the first, and the
// airlink hub learns its peers from the second.
func TestFrameAddresses(t *testing.T) {
	req := &AssocRequest{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}}
	reqRaw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		raw    []byte
		rx, tx MACAddr
		hasTx  bool
	}{
		{"association request", reqRaw, apAddr, c1Addr, true},
		{"data", (&DataFrame{Header: MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr}}).Marshal(), Broadcast, apAddr, true},
		{"PS-Poll", (&PSPoll{AID: 1, BSSID: apAddr, TA: c1Addr}).Marshal(), apAddr, c1Addr, true},
		// ACKs have no transmitter address to learn from.
		{"ACK", (&ACK{RA: c1Addr}).AppendTo(nil), c1Addr, MACAddr{}, false},
	}
	for _, c := range cases {
		if rx, ok := Receiver(c.raw); !ok || rx != c.rx {
			t.Errorf("%s: Receiver = %v, %v; want %v", c.name, rx, ok, c.rx)
		}
		if tx, ok := Transmitter(c.raw); ok != c.hasTx || tx != c.tx {
			t.Errorf("%s: Transmitter = %v, %v; want %v, %v", c.name, tx, ok, c.tx, c.hasTx)
		}
	}
	for _, runt := range [][]byte{nil, {1, 2}, make([]byte, 9)} {
		if _, ok := Receiver(runt); ok {
			t.Errorf("Receiver accepted a %d-byte runt", len(runt))
		}
	}
	if _, ok := Transmitter(make([]byte, 15)); ok {
		t.Error("Transmitter accepted a 15-byte runt")
	}
}

func TestElementTooLong(t *testing.T) {
	e := Element{ID: 1, Body: make([]byte, 256)}
	if _, err := e.AppendTo(nil); err == nil {
		t.Fatal("accepted 256-byte element body")
	}
}

func TestTIMOddOffsetRejected(t *testing.T) {
	tim := TIM{BitmapOffset: 3}
	if _, err := tim.Element(); err == nil {
		t.Fatal("TIM accepted odd bitmap offset")
	}
}

func TestBTIMParseRejectsOddOffset(t *testing.T) {
	if _, err := readBTIM([]byte{3, 0xff}); err == nil {
		t.Fatal("readBTIM accepted odd offset")
	}
}

func TestPHYAirtime(t *testing.T) {
	// 192 bits preamble at 1 Mb/s = 192 µs: a bare preamble.
	preamble := FrameAirtime(0, Rate11Mbps)
	if preamble != 192*1000 {
		t.Errorf("preamble duration = %v, want 192µs", preamble)
	}
	// 1000-byte frame at 1 Mb/s: 192µs + 8000µs.
	if got := FrameAirtime(1000, Rate1Mbps); got != 8192*1000 {
		t.Errorf("airtime = %v, want 8.192ms", got)
	}
	// Higher rate shortens only the MAC portion.
	at11 := FrameAirtime(1000, Rate11Mbps)
	if at11 >= FrameAirtime(1000, Rate1Mbps) {
		t.Error("11 Mb/s airtime not shorter than 1 Mb/s")
	}
	if at11 <= preamble {
		t.Error("airtime not longer than bare preamble")
	}
}

func TestMACAddrHelpers(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Error("broadcast address misclassified")
	}
	if apAddr.IsBroadcast() || apAddr.IsMulticast() {
		t.Error("unicast address misclassified")
	}
	mc := MACAddr{0x01, 0x00, 0x5e, 0, 0, 1}
	if !mc.IsMulticast() || mc.IsBroadcast() {
		t.Error("multicast address misclassified")
	}
	if Broadcast.String() != "ff:ff:ff:ff:ff:ff" {
		t.Errorf("String = %q", Broadcast.String())
	}
}

// TestParseMAC: the parser reads back exactly what String prints, in
// either case, and refuses everything else — including the octets a
// scanf-style reader accepts ("0x", " 2", "1 ").
func TestParseMAC(t *testing.T) {
	mac, err := ParseMAC("02:1d:E0:aa:00:10")
	if err != nil {
		t.Fatal(err)
	}
	want := MACAddr{0x02, 0x1d, 0xe0, 0xaa, 0x00, 0x10}
	if mac != want {
		t.Fatalf("ParseMAC = %v, want %v", mac, want)
	}
	for _, bad := range []string{
		"", ":::::", "02:1d:e0:aa:00", "02:1d:e0:aa:00:10:20", "2:1d:e0:aa:00:10", "0g:00:00:00:00:00",
		"0x:1d:e0:ff:00:01", " 2:1d:e0:ff:00:01", "1 :1d:e0:ff:00:01",
	} {
		if _, err := ParseMAC(bad); err == nil {
			t.Errorf("ParseMAC(%q) accepted", bad)
		}
	}
	// String() of a parsed MAC parses back to the same address.
	back, err := ParseMAC(want.String())
	if err != nil || back != want {
		t.Fatalf("String round trip: %v, %v", back, err)
	}
}

func TestAIDValid(t *testing.T) {
	cases := []struct {
		aid  AID
		want bool
	}{{0, false}, {1, true}, {2007, true}, {2008, false}}
	for _, c := range cases {
		if c.aid.Valid() != c.want {
			t.Errorf("AID(%d).Valid() = %v, want %v", c.aid, !c.want, c.want)
		}
	}
}

func TestDisassocRoundTrip(t *testing.T) {
	d := &Disassoc{
		Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		Reason: ReasonStationLeft,
	}
	raw := d.Marshal()
	if Classify(raw) != KindDisassoc {
		t.Fatalf("Classify = %v", Classify(raw))
	}
	got, err := UnmarshalDisassoc(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != ReasonStationLeft || got.Header.Addr2 != c1Addr {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := UnmarshalDisassoc(raw[:10]); err == nil {
		t.Error("short disassoc accepted")
	}
}
