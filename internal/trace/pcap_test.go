package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/dot11"
)

func TestPCAPRoundTrip(t *testing.T) {
	tr, err := GenerateScenario(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePCAP(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPCAP(&buf, PCAPOptions{Name: tr.Name, DefaultRate: dot11.Rate1Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(tr.Frames) {
		t.Fatalf("round trip lost frames: %d vs %d", len(got.Frames), len(tr.Frames))
	}
	// Nanosecond timestamps and the radiotap Rate field carry every
	// frame exactly.
	for i := range tr.Frames {
		if w, g := tr.Frames[i], got.Frames[i]; g != w {
			t.Fatalf("frame %d: got %+v, want %+v", i, g, w)
		}
	}
}

// buildPCAP synthesizes a microsecond capture of the given link type
// holding pkts at times.
func buildPCAP(t testing.TB, linkType uint32, pkts [][]byte, times []time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	var gh [pcapGlobalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], pcapMagicMicros)
	binary.LittleEndian.PutUint32(gh[20:24], linkType)
	buf.Write(gh[:])
	var rec [pcapRecordHeaderLen]byte
	for i, p := range pkts {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(times[i]/time.Second))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(times[i]%time.Second/time.Microsecond))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p)))
		buf.Write(rec[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// snapPCAP is buildPCAP for one packet cut at snaplen snap: the record
// holds the first snap bytes and the packet's original length.
func snapPCAP(t testing.TB, linkType uint32, pkt []byte, snap int) []byte {
	t.Helper()
	raw := buildPCAP(t, linkType, [][]byte{pkt[:snap]}, []time.Duration{0})
	binary.LittleEndian.PutUint32(raw[pcapGlobalHeaderLen+12:], uint32(len(pkt)))
	return raw
}

// radiotapUDP builds a radiotap record (Rate 11 Mb/s) of a broadcast
// 802.11 data frame carrying a UDP datagram to dstPort.
func radiotapUDP(dstPort uint16, payload int) []byte {
	rt := []byte{0, 0, 9, 0, 0x04, 0, 0, 0, 0x16}
	df := &dot11.DataFrame{
		Header:  dot11.MACHeader{FC: dot11.FrameControl{FromDS: true}, Addr1: dot11.Broadcast},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: dstPort, Payload: make([]byte, payload)}),
	}
	return append(rt, df.Marshal()...)
}

// ethBroadcastUDP builds a broadcast Ethernet frame carrying UDP.
func ethBroadcastUDP(dstPort uint16, payload int) []byte {
	ip := make([]byte, 20+8+payload)
	ip[0] = 0x45
	ip[9] = 17
	ip[28-8+2] = byte(dstPort >> 8) // udp[2:4] after 20-byte IP header
	ip[28-8+3] = byte(dstPort)
	eth := make([]byte, 14)
	for i := 0; i < 6; i++ {
		eth[i] = 0xff
	}
	eth[12], eth[13] = 0x08, 0x00
	return append(eth, ip...)
}

func TestReadPCAPEthernet(t *testing.T) {
	pkts := [][]byte{
		ethBroadcastUDP(5353, 50),
		ethBroadcastUDP(1900, 80),
	}
	// A unicast packet that must be skipped.
	uni := ethBroadcastUDP(9999, 10)
	uni[0] = 0x02
	pkts = append(pkts, uni)
	// Epoch-style timestamps exercise the rebase-to-first-packet path.
	const epoch = 1_700_000_000 * time.Second
	raw := buildPCAP(t, DLTEthernet, pkts,
		[]time.Duration{epoch + time.Second, epoch + 2*time.Second, epoch + 3*time.Second})

	tr, err := ReadPCAP(bytes.NewReader(raw), PCAPOptions{Name: "eth"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 2 {
		t.Fatalf("frames = %d, want 2 (unicast skipped)", len(tr.Frames))
	}
	if tr.Frames[0].DstPort != 5353 || tr.Frames[1].DstPort != 1900 {
		t.Fatalf("ports = %d, %d", tr.Frames[0].DstPort, tr.Frames[1].DstPort)
	}
	if tr.Frames[0].At != 0 || tr.Frames[1].At != time.Second {
		t.Fatalf("times not rebased: %v %v", tr.Frames[0].At, tr.Frames[1].At)
	}
	// Ethernet header swapped for 802.11 MAC + LLC/SNAP.
	wantLen := len(pkts[0]) - 14 + dot11.MACHeaderLen + dot11.LLCSNAPLen
	if tr.Frames[0].Length != wantLen {
		t.Fatalf("length = %d, want %d", tr.Frames[0].Length, wantLen)
	}
}

// TestReadPCAPKeepsTruncatedFrames: a broadcast UDP frame whose record
// a 96-byte snaplen cut inside the UDP payload is kept on every link
// type, with its port and the length of the frame that was on the air.
func TestReadPCAPKeepsTruncatedFrames(t *testing.T) {
	const snap = 96
	eth := ethBroadcastUDP(5353, 200)
	rt := radiotapUDP(5353, 200)
	wlan := rt[9:]
	for _, c := range []struct {
		name     string
		linkType uint32
		pkt      []byte
		wantLen  int
	}{
		{"Ethernet", DLTEthernet, eth, len(eth) - 14 + dot11.MACHeaderLen + dot11.LLCSNAPLen},
		{"802.11", DLT80211, wlan, len(wlan)},
		{"radiotap", DLTRadiotap, rt, len(wlan)},
	} {
		tr, err := ReadPCAP(bytes.NewReader(snapPCAP(t, c.linkType, c.pkt, snap)), PCAPOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(tr.Frames) != 1 {
			t.Fatalf("%s: %d frames from a truncated record, want 1", c.name, len(tr.Frames))
		}
		if f := tr.Frames[0]; f.DstPort != 5353 || f.Length != c.wantLen {
			t.Errorf("%s: port %d, length %d; want 5353, %d", c.name, f.DstPort, f.Length, c.wantLen)
		}
	}
}

// TestReadPCAPStripsRadiotapFCS: a radiotap record whose Flags say the
// frame carries its FCS yields the frame without it, whole or cut at a
// 96-byte snaplen, and a record too short to hold the FCS is skipped.
func TestReadPCAPStripsRadiotapFCS(t *testing.T) {
	// Radiotap: length 10, present Flags|Rate, Flags 0x10, 11 Mb/s.
	rt := []byte{0, 0, 10, 0, 0x06, 0, 0, 0, radiotapFlagFCS, 0x16}
	wlan := radiotapUDP(5353, 100)[9:]
	if len(wlan) != 160 {
		t.Fatalf("data frame is %d bytes, want 160", len(wlan))
	}
	pkt := append(append(append([]byte(nil), rt...), wlan...), 0xde, 0xad, 0xbe, 0xef)
	for _, snap := range []int{len(pkt), len(pkt) - 2, 96} {
		tr, err := ReadPCAP(bytes.NewReader(snapPCAP(t, DLTRadiotap, pkt, snap)), PCAPOptions{})
		if err != nil {
			t.Fatalf("snaplen %d: %v", snap, err)
		}
		if len(tr.Frames) != 1 {
			t.Fatalf("snaplen %d: %d frames, want 1", snap, len(tr.Frames))
		}
		if f := tr.Frames[0]; f.Length != 160 || f.DstPort != 5353 || f.Rate != dot11.Rate11Mbps {
			t.Errorf("snaplen %d: length %d, port %d, rate %v; want 160, 5353, 11 Mb/s", snap, f.Length, f.DstPort, f.Rate)
		}
	}
	short := append(append([]byte(nil), rt...), 1, 2, 3)
	tr, err := ReadPCAP(bytes.NewReader(buildPCAP(t, DLTRadiotap, [][]byte{short}, []time.Duration{0})), PCAPOptions{})
	if err != nil || len(tr.Frames) != 0 {
		t.Fatalf("record shorter than its FCS: %v, %v; want no frames", tr, err)
	}
}

// TestReadPCAPSkipsLaterFragments: an Ethernet capture of a non-first
// IPv4 fragment, whose payload would read as UDP port 0xbeef, imports
// no frame.
func TestReadPCAPSkipsLaterFragments(t *testing.T) {
	pkt := ethBroadcastUDP(5353, 40)
	ip := pkt[14:]
	ip[7] = 185 // fragment offset 185×8 bytes
	copy(ip[20:], []byte{0xde, 0xad, 0xbe, 0xef})
	tr, err := ReadPCAP(bytes.NewReader(buildPCAP(t, DLTEthernet, [][]byte{pkt}, []time.Duration{0})), PCAPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 0 {
		t.Fatalf("%d frames from a later fragment (first port %d), want 0", len(tr.Frames), tr.Frames[0].DstPort)
	}
}

func TestReadPCAPRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a pcap"),
		func() []byte { // unsupported link type
			var gh [pcapGlobalHeaderLen]byte
			binary.LittleEndian.PutUint32(gh[0:4], pcapMagicMicros)
			binary.LittleEndian.PutUint32(gh[20:24], 999)
			return gh[:]
		}(),
	}
	for i, c := range cases {
		if _, err := ReadPCAP(bytes.NewReader(c), PCAPOptions{}); err == nil {
			t.Errorf("case %d: garbage pcap accepted", i)
		}
	}
}

func TestReadPCAPBigEndianAndNanos(t *testing.T) {
	// Big-endian nanosecond magic with one broadcast packet.
	var buf bytes.Buffer
	var gh [pcapGlobalHeaderLen]byte
	binary.BigEndian.PutUint32(gh[0:4], pcapMagicNanos)
	binary.BigEndian.PutUint32(gh[20:24], DLTEthernet)
	buf.Write(gh[:])
	p := ethBroadcastUDP(5353, 10)
	var rec [pcapRecordHeaderLen]byte
	binary.BigEndian.PutUint32(rec[0:4], 10)
	binary.BigEndian.PutUint32(rec[4:8], 500_000_000) // 0.5 s in ns
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(p)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(p)))
	buf.Write(rec[:])
	buf.Write(p)

	tr, err := ReadPCAP(&buf, PCAPOptions{Name: "be"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(tr.Frames))
	}
}

func TestParseRadiotap(t *testing.T) {
	// Radiotap header: version 0, length 12, present = Flags|Rate|Channel
	// (bits 1, 2, 3): flags(1) rate(1) then channel(4, align 2).
	hdr := []byte{
		0x00, 0x00, // version, pad
		0x0c, 0x00, // length = 12
		0x0e, 0x00, 0x00, 0x00, // present: bits 1,2,3
		0x00,       // flags
		0x16,       // rate = 22 * 500 kb/s = 11 Mb/s
		0x00, 0x00, // (channel would follow; truncated within hdrLen)
	}
	hdrLen, rate, fcs, ok := parseRadiotap(hdr)
	if !ok || hdrLen != 12 {
		t.Fatalf("parseRadiotap: ok=%v len=%d", ok, hdrLen)
	}
	if rate != dot11.Rate11Mbps || fcs {
		t.Fatalf("rate = %v, FCS %v; want 11 Mb/s and no FCS", rate, fcs)
	}
	hdr[8] = radiotapFlagFCS
	if _, rate, fcs, ok := parseRadiotap(hdr); !ok || rate != dot11.Rate11Mbps || !fcs {
		t.Fatalf("Flags 0x10: ok=%v rate=%v FCS %v; want 11 Mb/s with the FCS", ok, rate, fcs)
	}
}

func TestParseRadiotapWithTSFT(t *testing.T) {
	// TSFT (8 bytes, align 8) before Rate: present bits 0 and 2.
	hdr := make([]byte, 18)
	hdr[2] = 18 // length
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<0|1<<2)
	hdr[16] = 0x04 // rate = 2 * 500 kb/s? No: 4*500k = 2 Mb/s
	hdrLen, rate, _, ok := parseRadiotap(hdr)
	if !ok || hdrLen != 18 {
		t.Fatalf("ok=%v len=%d", ok, hdrLen)
	}
	if rate != dot11.Rate2Mbps {
		t.Fatalf("rate = %v, want 2 Mb/s", rate)
	}
}

func TestParseRadiotapChainedPresent(t *testing.T) {
	// Present word with ext bit set chains to a second word; Rate in
	// the first word still parses.
	hdr := make([]byte, 16)
	hdr[2] = 16
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<2|1<<31)
	binary.LittleEndian.PutUint32(hdr[8:12], 0)
	hdr[12] = 0x02 // 1 Mb/s
	_, rate, _, ok := parseRadiotap(hdr)
	if !ok || rate != dot11.Rate1Mbps {
		t.Fatalf("ok=%v rate=%v", ok, rate)
	}
}

func TestParseRadiotapRejectsBad(t *testing.T) {
	if _, _, _, ok := parseRadiotap([]byte{0, 0}); ok {
		t.Error("short radiotap accepted")
	}
	bad := make([]byte, 8)
	bad[0] = 1 // wrong version
	bad[2] = 8
	if _, _, _, ok := parseRadiotap(bad); ok {
		t.Error("wrong version accepted")
	}
}

func TestReadPCAPRadiotap(t *testing.T) {
	// Build a radiotap + 802.11 capture by prefixing WritePCAP-style
	// frames with a radiotap header carrying an 11 Mb/s rate.
	pkt := radiotapUDP(1900, 20)

	var buf bytes.Buffer
	var gh [pcapGlobalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], pcapMagicMicros)
	binary.LittleEndian.PutUint32(gh[20:24], DLTRadiotap)
	buf.Write(gh[:])
	var rec [pcapRecordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(pkt)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(pkt)))
	buf.Write(rec[:])
	buf.Write(pkt)

	tr, err := ReadPCAP(&buf, PCAPOptions{Name: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(tr.Frames))
	}
	if tr.Frames[0].Rate != dot11.Rate11Mbps {
		t.Fatalf("rate = %v, want 11 Mb/s from radiotap", tr.Frames[0].Rate)
	}
	if tr.Frames[0].DstPort != 1900 {
		t.Fatalf("port = %d", tr.Frames[0].DstPort)
	}
}

func TestReadPCAPSkipsControlFrames(t *testing.T) {
	// An 802.11 capture containing a beacon and an ACK yields no trace
	// frames.
	var buf bytes.Buffer
	var gh [pcapGlobalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], pcapMagicMicros)
	binary.LittleEndian.PutUint32(gh[20:24], DLT80211)
	buf.Write(gh[:])
	beacon := &dot11.Beacon{Header: dot11.MACHeader{Addr1: dot11.Broadcast}, SSID: "x"}
	braw, err := beacon.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ack := (&dot11.ACK{RA: dot11.MACAddr{1}}).AppendTo(nil)
	var rec [pcapRecordHeaderLen]byte
	for _, p := range [][]byte{braw, ack} {
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p)))
		buf.Write(rec[:])
		buf.Write(p)
	}
	tr, err := ReadPCAP(&buf, PCAPOptions{Name: "ctl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 0 {
		t.Fatalf("frames = %d, want 0", len(tr.Frames))
	}
}
