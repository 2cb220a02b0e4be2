package dot11

import (
	"bytes"
	"slices"
	"testing"
)

// Fuzz targets: every decoder must return an error or a value — never
// panic — on arbitrary input, and successfully-decoded frames must
// re-encode to an equivalent wire image where the format is canonical.

func seedCorpus(f *testing.F) {
	f.Helper()
	var bm VirtualBitmap
	bm.Set(3)
	btim := BTIMFromBitmap(&bm)
	b := &Beacon{
		Header:         MACHeader{Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr},
		BeaconInterval: 100,
		SSID:           "fuzz",
		TIM:            &TIM{DTIMPeriod: 3, PartialBitmap: []byte{0x05}},
		BTIM:           &btim,
	}
	if raw, err := b.Marshal(); err == nil {
		f.Add(raw)
	}
	m := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: []uint16{53, 5353}}
	f.Add(m.AppendTo(nil))
	req := &AssocRequest{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, SSID: "x", HIDECapable: true}
	if raw, err := req.Marshal(); err == nil {
		f.Add(raw)
	}
	resp := &AssocResponse{Header: MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr}, AID: 7}
	if raw, err := resp.Marshal(); err == nil {
		f.Add(raw)
	}
	rreq := &AssocRequest{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Reassoc: true, CurrentAP: apAddr, SSID: "x", Ports: []uint16{5353}}
	if raw, err := rreq.Marshal(); err == nil {
		f.Add(raw)
	}
	rresp := &AssocResponse{Header: MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr}, Reassoc: true, AID: 9, HIDESupported: true}
	if raw, err := rresp.Marshal(); err == nil {
		f.Add(raw)
	}
	dis := &Disassoc{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Reason: ReasonStationLeft}
	f.Add(dis.Marshal())
	data := &DataFrame{
		Header:  MACHeader{FC: FrameControl{FromDS: true, MoreData: true}, Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr},
		Payload: EncapsulateUDP(UDPDatagram{DstPort: 5353, Payload: []byte("fuzz")}),
	}
	f.Add(data.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
}

// FuzzUnmarshalBeacon drives ReadBeacon, the one beacon reader and the
// frame every client parses most: no input may panic or be written
// into, every bit test of an accepted reading must equal the
// Decompress reference (see checkReadBeacon), and an accepted reading,
// rebuilt into a Beacon, must re-marshal and read back equal.
func FuzzUnmarshalBeacon(f *testing.F) {
	seedCorpus(f)
	for _, raw := range beaconEdgeSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, ok := checkReadBeacon(t, raw)
		if !ok {
			return
		}
		b := Beacon{
			Header: r.Header, Timestamp: r.Timestamp, BeaconInterval: r.BeaconInterval,
			Capability: r.Capability, SSID: string(r.SSID),
		}
		if r.HasTIM {
			b.TIM = &r.TIM
		}
		if r.HasBTIM {
			b.BTIM = &r.BTIM
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of an accepted reading failed: %v", err)
		}
		var r2 BeaconReading
		if err := ReadBeacon(out, &r2); err != nil {
			t.Fatalf("read of the re-marshalled beacon failed: %v", err)
		}
		if r2.Header != r.Header || r2.Timestamp != r.Timestamp || r2.BeaconInterval != r.BeaconInterval ||
			r2.Capability != r.Capability || !bytes.Equal(r2.SSID, r.SSID) ||
			r2.HasTIM != r.HasTIM || r2.HasBTIM != r.HasBTIM {
			t.Fatalf("beacon drifted across re-encode: %+v -> %+v", r, r2)
		}
		if r.HasTIM && (r2.TIM.DTIMCount != r.TIM.DTIMCount || r2.TIM.DTIMPeriod != r.TIM.DTIMPeriod ||
			r2.TIM.Broadcast != r.TIM.Broadcast || r2.TIM.BitmapOffset != r.TIM.BitmapOffset ||
			!bytes.Equal(r2.TIM.PartialBitmap, r.TIM.PartialBitmap)) {
			t.Fatalf("TIM drifted across re-encode: %+v -> %+v", r.TIM, r2.TIM)
		}
		if r.HasBTIM && (r2.BTIM.Offset != r.BTIM.Offset || !bytes.Equal(r2.BTIM.PartialBitmap, r.BTIM.PartialBitmap)) {
			t.Fatalf("BTIM drifted across re-encode: %+v -> %+v", r.BTIM, r2.BTIM)
		}
	})
}

// beaconEdgeSeeds are beacons that stress the reader's element walk
// and bit tests: repeated TIM/BTIM elements (the last one wins), a
// bitmap reaching past the virtual bitmap's capacity (every bit test
// answers false), a BTIM near the top of the AID space, and a
// malformed element after a valid TIM.
func beaconEdgeSeeds() [][]byte {
	hdr := func() []byte {
		b := make([]byte, MACHeaderLen+beaconFixedLen)
		h := MACHeader{FC: FrameControl{Type: TypeManagement, Subtype: SubtypeBeacon}, Addr1: Broadcast, Addr2: apAddr}
		h.marshalInto(b)
		return b
	}
	elem := func(b []byte, id uint8, body ...byte) []byte {
		return append(append(b, id, uint8(len(body))), body...)
	}
	var seeds [][]byte
	b := hdr()
	b = elem(b, ElementIDTIM, 1, 3, 0x01, 0xff)
	b = elem(b, ElementIDBTIM, 0, 0x08)
	b = elem(b, ElementIDTIM, 0, 3, 0x00, 0x06)
	b = elem(b, ElementIDBTIM, 2, 0x00, 0x01)
	seeds = append(seeds, b)
	seeds = append(seeds, elem(hdr(), ElementIDTIM, 0, 1, 250, 0xff, 0xff, 0xff))
	seeds = append(seeds, elem(elem(hdr(), ElementIDTIM, 0, 1, 0, 0), ElementIDBTIM, 250, 0x80))
	seeds = append(seeds, append(elem(hdr(), ElementIDTIM, 0, 1, 0, 0x02), ElementIDBTIM, 4, 0))
	return seeds
}

// checkReadBeacon reads raw with ReadBeacon and reports the reading
// and whether it was accepted. The frame must come back untouched, and
// the bit tests of an accepted reading must equal the Decompress
// reference for every AID up to MaxAID+8.
func checkReadBeacon(t *testing.T, raw []byte) (BeaconReading, bool) {
	t.Helper()
	orig := append([]byte(nil), raw...)
	var r BeaconReading
	err := ReadBeacon(raw, &r)
	if !bytes.Equal(raw, orig) {
		t.Fatal("ReadBeacon wrote into the frame")
	}
	if err != nil {
		return r, false
	}
	if r.HasTIM {
		checkBits(t, "TIM", r.TIM.BitmapOffset, r.TIM.PartialBitmap, r.TIM.UnicastBuffered)
	}
	if r.HasBTIM {
		checkBits(t, "BTIM", r.BTIM.Offset, r.BTIM.PartialBitmap, r.BTIM.UsefulBroadcastBuffered)
	}
	return r, true
}

// checkBits requires an in-place bit test to equal
// Decompress(offset, partial).Get for every AID up to MaxAID+8, false
// where Decompress rejects the encoding.
func checkBits(t *testing.T, elem string, offset uint8, partial []byte, bit func(AID) bool) {
	t.Helper()
	ref, err := Decompress(offset, partial)
	for aid := AID(0); aid <= MaxAID+8; aid++ {
		if want := err == nil && ref.Get(aid); bit(aid) != want {
			t.Fatalf("%s bit for AID %d: reading %v, Decompress %v", elem, aid, bit(aid), want)
		}
	}
}

// FuzzUnmarshalUDPPortMessage drives ReadUDPPortMessage, the one port
// message reader. Given a dirty non-empty scratch slice it must leave
// the frame untouched, reuse the scratch when it has room, and hold no
// ports on error; an accepted message must re-encode with AppendTo to
// a frame that reads back the same header and ports; and AppendTo onto
// a non-empty prefix must yield the prefix followed by those bytes.
func FuzzUnmarshalUDPPortMessage(f *testing.F) {
	seedCorpus(f)
	split := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: make([]uint16, 2*MaxPortsPerElement+3)}
	f.Add(split.AppendTo(nil)) // three Open UDP Ports elements
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := append([]byte(nil), raw...)
		scratch := []uint16{0xdead, 0xbeef, 7}
		hdr, ports, err := ReadUDPPortMessage(raw, scratch[:2])
		if !bytes.Equal(raw, orig) {
			t.Fatal("ReadUDPPortMessage wrote into the frame")
		}
		if err != nil {
			if len(ports) != 0 {
				t.Fatalf("ReadUDPPortMessage failed (%v) holding ports %v", err, ports)
			}
			return
		}
		if len(ports) > 0 && &ports[0] != &scratch[0] && cap(scratch) >= len(ports) {
			t.Fatal("ReadUDPPortMessage ignored a scratch slice with room")
		}
		m := UDPPortMessage{Header: hdr, Ports: ports}
		out := m.AppendTo(nil)
		hdr2, ports2, err := ReadUDPPortMessage(out, nil)
		if err != nil {
			t.Fatalf("read of the re-encoded message failed: %v", err)
		}
		if hdr2 != hdr || !slices.Equal(ports2, ports) {
			t.Fatalf("message drifted across re-encode: %v %v -> %v %v", hdr, ports, hdr2, ports2)
		}
		prefix := []byte{0xa5, 0x5a, 0x01}
		app := m.AppendTo(append([]byte(nil), prefix...))
		if !bytes.Equal(app, append(append([]byte(nil), prefix...), out...)) {
			t.Fatalf("AppendTo after a prefix = %x, want %x then %x", app, prefix, out)
		}
	})
}

// FuzzUnmarshalAssocFrames drives the decoders of the association
// exchange — association and reassociation requests and responses: none
// may panic, Classify must agree with the subtype of any successful
// decode, and decoded frames must re-encode to frames that decode to the
// same fields, CurrentAP included.
func FuzzUnmarshalAssocFrames(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if r, err := UnmarshalAssocRequest(raw); err == nil {
			want := KindAssocRequest
			if r.Reassoc {
				want = KindReassocRequest
			}
			if Classify(raw) != want {
				t.Fatalf("Classify = %v, UnmarshalAssocRequest decoded Reassoc=%v", Classify(raw), r.Reassoc)
			}
			out, err := r.Marshal()
			if err != nil {
				t.Fatalf("re-marshal failed: %v", err)
			}
			r2, err := UnmarshalAssocRequest(out)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if r2.Header != r.Header || r2.Reassoc != r.Reassoc || r2.Capability != r.Capability ||
				r2.CurrentAP != r.CurrentAP || r2.SSID != r.SSID || r2.HIDECapable != r.HIDECapable ||
				(r2.Ports == nil) != (r.Ports == nil) || !slices.Equal(r2.Ports, r.Ports) {
				t.Fatalf("request fields drifted across re-encode: %+v -> %+v", r, r2)
			}
		}
		if r, err := UnmarshalAssocResponse(raw); err == nil {
			want := KindAssocResponse
			if r.Reassoc {
				want = KindReassocResponse
			}
			if Classify(raw) != want {
				t.Fatalf("Classify = %v, UnmarshalAssocResponse decoded Reassoc=%v", Classify(raw), r.Reassoc)
			}
			out, err := r.Marshal()
			if err != nil {
				t.Fatalf("re-marshal failed: %v", err)
			}
			r2, err := UnmarshalAssocResponse(out)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if *r2 != *r {
				t.Fatalf("response fields drifted across re-encode: %+v -> %+v", r, r2)
			}
		}
	})
}

// FuzzUnmarshalRoamFrames drives the roaming path: a reassociation frame
// is an association frame with another subtype (and, in a request, the
// Current AP field), so flipping Reassoc on any decoded frame must give a
// frame that Classify names by its new subtype and that decodes to the
// same fields, CurrentAP aside. Disassociation frames must decode
// without panic, agree with Classify and re-encode with their reason.
func FuzzUnmarshalRoamFrames(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if r, err := UnmarshalAssocRequest(raw); err == nil {
			flip := *r
			flip.Reassoc = !r.Reassoc
			flip.CurrentAP = MACAddr{}
			out, err := flip.Marshal()
			if err != nil {
				t.Fatalf("marshal with Reassoc=%v failed: %v", flip.Reassoc, err)
			}
			want := KindAssocRequest
			if flip.Reassoc {
				want = KindReassocRequest
			}
			if Classify(out) != want {
				t.Fatalf("Classify = %v after flipping Reassoc to %v", Classify(out), flip.Reassoc)
			}
			r2, err := UnmarshalAssocRequest(out)
			if err != nil {
				t.Fatalf("re-decode after flip failed: %v", err)
			}
			hdr := r.Header
			hdr.FC = r2.Header.FC
			if r2.Header != hdr || r2.Reassoc != flip.Reassoc || r2.Capability != r.Capability ||
				r2.CurrentAP != (MACAddr{}) || r2.SSID != r.SSID || r2.HIDECapable != r.HIDECapable ||
				!slices.Equal(r2.Ports, r.Ports) {
				t.Fatalf("request fields drifted across a Reassoc flip: %+v -> %+v", r, r2)
			}
		}
		if r, err := UnmarshalAssocResponse(raw); err == nil {
			flip := *r
			flip.Reassoc = !r.Reassoc
			out, err := flip.Marshal()
			if err != nil {
				t.Fatalf("marshal with Reassoc=%v failed: %v", flip.Reassoc, err)
			}
			want := KindAssocResponse
			if flip.Reassoc {
				want = KindReassocResponse
			}
			if Classify(out) != want {
				t.Fatalf("Classify = %v after flipping Reassoc to %v", Classify(out), flip.Reassoc)
			}
			r2, err := UnmarshalAssocResponse(out)
			if err != nil {
				t.Fatalf("re-decode after flip failed: %v", err)
			}
			flip.Header.FC = r2.Header.FC
			if *r2 != flip {
				t.Fatalf("response fields drifted across a Reassoc flip: %+v -> %+v", r, r2)
			}
		}
		if d, err := UnmarshalDisassoc(raw); err == nil {
			if Classify(raw) != KindDisassoc {
				t.Fatal("Classify disagrees with UnmarshalDisassoc")
			}
			d2, err := UnmarshalDisassoc(d.Marshal())
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if d2.Reason != d.Reason {
				t.Fatal("disassoc reason drifted across re-encode")
			}
		}
	})
}

// FuzzParseUDP drives the UDP header walk through both of its users:
// the header-only DstUDPPort (and IPv4DstUDPPort behind the LLC/SNAP
// header) must read ParseUDP's port from every body ParseUDP accepts,
// and must accept every truncation of a body it accepts that still
// holds the headers, with the same port; a datagram ParseUDP accepts
// must re-encapsulate to a parseable body with the same ports and
// payload.
func FuzzParseUDP(f *testing.F) {
	f.Add(EncapsulateUDP(UDPDatagram{SrcPort: 1, DstPort: 2, Payload: []byte("hi")}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xaa}, 40))
	// A non-first IPv4 fragment (offset 185×8) whose payload would read
	// as port 0xbeef.
	frag := EncapsulateUDP(UDPDatagram{DstPort: 2, Payload: make([]byte, 8)})
	frag[LLCSNAPLen+7] = 185
	copy(frag[LLCSNAPLen+IPv4HdrLen:], []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(frag)
	// A header whose checksum does not hold: only the port readers
	// accept it.
	f.Add(ttlFlipped())
	f.Fuzz(func(t *testing.T, raw []byte) {
		port, perr := DstUDPPort(raw)
		d, err := ParseUDP(raw)
		if err == nil && (perr != nil || port != d.DstPort) {
			t.Fatalf("DstUDPPort = %d, %v on a body ParseUDP reads as port %d", port, perr, d.DstPort)
		}
		if perr == nil {
			if p, err := IPv4DstUDPPort(raw[LLCSNAPLen:]); err != nil || p != port {
				t.Fatalf("IPv4DstUDPPort = %d, %v behind LLC/SNAP; DstUDPPort read %d", p, err, port)
			}
			hdrs := LLCSNAPLen + int(raw[LLCSNAPLen]&0x0f)*4 + UDPHdrLen
			for n := hdrs; n < len(raw); n++ {
				if p, err := DstUDPPort(raw[:n]); err != nil || p != port {
					t.Fatalf("DstUDPPort of the first %d bytes = %d, %v; the whole body reads %d", n, p, err, port)
				}
			}
			if _, err := DstUDPPort(raw[:hdrs-1]); err == nil {
				t.Fatalf("DstUDPPort accepted %d bytes, short of the %d-byte headers", hdrs-1, hdrs)
			}
		}
		if err != nil {
			return
		}
		// A decoded datagram must re-encapsulate to a parseable body
		// with the same ports and payload.
		out := EncapsulateUDP(d)
		d2, err := ParseUDP(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if d2.DstPort != d.DstPort || d2.SrcPort != d.SrcPort || !bytes.Equal(d2.Payload, d.Payload) {
			t.Fatal("datagram drifted across re-encapsulation")
		}
	})
}

// FuzzBTIMElement drives the BTIM (element ID 201) codec with
// arbitrary element bodies: readBTIM, which ReadBeacon reads each BTIM
// element with, must never panic, and any body it accepts must
// re-encode to the identical wire image and preserve per-AID bit
// lookups.
func FuzzBTIMElement(f *testing.F) {
	var bm VirtualBitmap
	bm.Set(3)
	bm.Set(200)
	if e, err := BTIMFromBitmap(&bm).Element(); err == nil {
		f.Add(e.Body)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 0xff, 0x01})
	f.Add([]byte{1, 0xff}) // odd offset: must be rejected
	f.Add(bytes.Repeat([]byte{0xff}, 252))
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := readBTIM(body)
		if err != nil {
			return
		}
		e, err := b.Element()
		if err != nil {
			t.Fatalf("re-encode of accepted BTIM failed: %v", err)
		}
		if !bytes.Equal(e.Body, body) {
			t.Fatalf("BTIM wire image drifted: %x -> %x", body, e.Body)
		}
		b2, err := readBTIM(e.Body)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		for aid := AID(1); aid <= MaxAID; aid++ {
			if b.UsefulBroadcastBuffered(aid) != b2.UsefulBroadcastBuffered(aid) {
				t.Fatalf("AID %d lookup drifted across round-trip", aid)
			}
		}
	})
}

// FuzzOpenUDPPortsElement drives the Open UDP Ports (element ID 200)
// codec shared by port messages and association requests: appendPorts
// must never panic and accepts exactly the even-length bodies, and the
// ports it reads re-encode with appendPortElements to elements of at
// most MaxPortsPerElement ports whose bodies, concatenated, are the
// original body; a list that fits one element is not split.
func FuzzOpenUDPPortsElement(f *testing.F) {
	f.Add([]byte{0x35, 0x00, 0xe9, 0x14, 0x6c, 0x07}) // 53, 5353, 1900
	f.Add([]byte{})
	f.Add([]byte{0, 53})
	f.Add([]byte{0xff}) // odd length: must be rejected
	f.Add(bytes.Repeat([]byte{0x14, 0xeb}, MaxPortsPerElement))
	f.Add(bytes.Repeat([]byte{0, 1}, MaxPortsPerElement+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		ports, err := appendPorts(nil, body)
		if (err == nil) != (len(body)%2 == 0) {
			t.Fatalf("appendPorts err = %v for a %d-byte body", err, len(body))
		}
		if err != nil {
			return
		}
		if len(ports)*2 != len(body) {
			t.Fatalf("decoded %d ports from %d bytes", len(ports), len(body))
		}
		out := appendPortElements(nil, ports)
		var back []byte
		for rest := out; len(rest) > 0; {
			e, r, err := nextElement(rest)
			if err != nil || e.ID != ElementIDOpenUDPPorts || len(e.Body) > 2*MaxPortsPerElement {
				t.Fatalf("re-encoded %x holds a bad element (id %d, %d bytes): %v", out, e.ID, len(e.Body), err)
			}
			back, rest = append(back, e.Body...), r
		}
		if !bytes.Equal(back, body) {
			t.Fatalf("port list wire image drifted: %x -> %x", body, back)
		}
		if len(ports) <= MaxPortsPerElement && len(out) != 2+len(body) {
			t.Fatalf("%d ports split across elements: %x", len(ports), out)
		}
	})
}

// FuzzClassifyNeverPanics feeds arbitrary frames to Classify and to
// ReadDataFrame, which must accept exactly the data frames with a full
// MAC header, read a payload that aliases the rest of the frame, and
// leave its DataFrame unchanged on error.
func FuzzClassifyNeverPanics(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind := Classify(raw)
		_ = kind.String()
		sentinel := DataFrame{Header: MACHeader{Seq: 0xbeef}, Payload: []byte{1}}
		d := sentinel
		err := ReadDataFrame(raw, &d)
		if want := kind == KindData && len(raw) >= MACHeaderLen; (err == nil) != want {
			t.Fatalf("data frame accepted = %v for a %d-byte %v frame", err == nil, len(raw), kind)
		}
		if err != nil {
			if d.Header != sentinel.Header || len(d.Payload) != 1 || &d.Payload[0] != &sentinel.Payload[0] {
				t.Fatalf("ReadDataFrame failed (%v) and changed its DataFrame to %+v", err, d)
			}
			return
		}
		if len(d.Payload) != len(raw)-MACHeaderLen || len(d.Payload) > 0 && &d.Payload[0] != &raw[MACHeaderLen] {
			t.Fatal("ReadDataFrame payload does not alias the rest of the frame")
		}
	})
}
