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
	if raw, err := m.Marshal(); err == nil {
		f.Add(raw)
	}
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

// FuzzUnmarshalBeacon drives the beacon decoders, the frames every
// client parses most. UnmarshalBeacon must round-trip what it accepts,
// and the in-place ReadBeacon must agree with it on every input (see
// checkReadBeacon).
func FuzzUnmarshalBeacon(f *testing.F) {
	seedCorpus(f)
	for _, raw := range beaconEdgeSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := UnmarshalBeacon(raw)
		checkReadBeacon(t, raw, b, err)
		if err != nil {
			return
		}
		// Re-encode: must succeed and decode to the same fields.
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of decoded beacon failed: %v", err)
		}
		b2, err := UnmarshalBeacon(out)
		if err != nil {
			t.Fatalf("decode of re-marshalled beacon failed: %v", err)
		}
		if b2.SSID != b.SSID || b2.BeaconInterval != b.BeaconInterval {
			t.Fatal("beacon fields drifted across re-encode")
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

// checkReadBeacon is the differential half of FuzzUnmarshalBeacon: the
// in-place reader errs exactly when UnmarshalBeacon (b, err) does,
// reads the same fields, leaves the frame untouched, and its bit tests
// equal the Decompress reference for every AID up to MaxAID+8.
func checkReadBeacon(t *testing.T, raw []byte, b *Beacon, err error) {
	t.Helper()
	orig := append([]byte(nil), raw...)
	var r BeaconReading
	rerr := ReadBeacon(raw, &r)
	if !bytes.Equal(raw, orig) {
		t.Fatal("ReadBeacon wrote into the frame")
	}
	if (rerr != nil) != (err != nil) {
		t.Fatalf("ReadBeacon err = %v, UnmarshalBeacon err = %v", rerr, err)
	}
	if err != nil {
		return
	}
	if r.Header != b.Header || r.Timestamp != b.Timestamp || r.BeaconInterval != b.BeaconInterval ||
		r.Capability != b.Capability || string(r.SSID) != b.SSID {
		t.Fatalf("fixed fields differ: reading %+v, beacon %+v", r, b)
	}
	if r.HasTIM != (b.TIM != nil) || r.HasBTIM != (b.BTIM != nil) {
		t.Fatalf("element presence differs: reading TIM=%v BTIM=%v, beacon TIM=%v BTIM=%v",
			r.HasTIM, r.HasBTIM, b.TIM != nil, b.BTIM != nil)
	}
	if r.HasTIM {
		if r.TIM.DTIMCount != b.TIM.DTIMCount || r.TIM.DTIMPeriod != b.TIM.DTIMPeriod ||
			r.TIM.Broadcast != b.TIM.Broadcast || r.TIM.BitmapOffset != b.TIM.BitmapOffset ||
			!bytes.Equal(r.TIM.PartialBitmap, b.TIM.PartialBitmap) {
			t.Fatalf("TIM differs: reading %+v, beacon %+v", r.TIM, *b.TIM)
		}
		checkBits(t, "TIM", b.TIM.BitmapOffset, b.TIM.PartialBitmap, r.TIM.UnicastBuffered, b.TIM.UnicastBuffered)
	}
	if r.HasBTIM {
		if r.BTIM.Offset != b.BTIM.Offset || !bytes.Equal(r.BTIM.PartialBitmap, b.BTIM.PartialBitmap) {
			t.Fatalf("BTIM differs: reading %+v, beacon %+v", r.BTIM, *b.BTIM)
		}
		checkBits(t, "BTIM", b.BTIM.Offset, b.BTIM.PartialBitmap, r.BTIM.UsefulBroadcastBuffered, b.BTIM.UsefulBroadcastBuffered)
	}
}

// checkBits requires the in-place bit tests of a reading and of the
// decoded beacon to equal Decompress(offset, partial).Get for every
// AID up to MaxAID+8, false where Decompress rejects the encoding.
func checkBits(t *testing.T, elem string, offset uint8, partial []byte, reading, decoded func(AID) bool) {
	t.Helper()
	ref, err := Decompress(offset, partial)
	for aid := AID(0); aid <= MaxAID+8; aid++ {
		want := err == nil && ref.Get(aid)
		if reading(aid) != want || decoded(aid) != want {
			t.Fatalf("%s bit for AID %d: reading %v, beacon %v, Decompress %v", elem, aid, reading(aid), decoded(aid), want)
		}
	}
}

// FuzzUnmarshalUDPPortMessage drives the port-message codec. The
// in-place ReadUDPPortMessage, given a dirty non-empty scratch slice,
// accepts exactly what UnmarshalUDPPortMessage accepts and reads the
// same header and ports; an accepted message re-encodes with Marshal
// to a frame carrying exactly the same ports; and AppendTo onto a
// non-empty prefix yields the prefix followed by Marshal's bytes.
func FuzzUnmarshalUDPPortMessage(f *testing.F) {
	seedCorpus(f)
	split := &UDPPortMessage{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}, Ports: make([]uint16, 2*MaxPortsPerElement+3)}
	if raw, err := split.Marshal(); err == nil {
		f.Add(raw) // three Open UDP Ports elements
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := append([]byte(nil), raw...)
		m, err := UnmarshalUDPPortMessage(raw)
		scratch := []uint16{0xdead, 0xbeef, 7}
		hdr, ports, rerr := ReadUDPPortMessage(raw, scratch[:2])
		if !bytes.Equal(raw, orig) {
			t.Fatal("ReadUDPPortMessage wrote into the frame")
		}
		if (rerr != nil) != (err != nil) {
			t.Fatalf("ReadUDPPortMessage err = %v, UnmarshalUDPPortMessage err = %v", rerr, err)
		}
		if err != nil {
			return
		}
		if hdr != m.Header || !slices.Equal(ports, m.Ports) {
			t.Fatalf("in-place read %v %v, owning decode %v %v", hdr, ports, m.Header, m.Ports)
		}
		if len(ports) > 0 && &ports[0] != &scratch[0] && cap(scratch) >= len(ports) {
			t.Fatal("ReadUDPPortMessage ignored a scratch slice with room")
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		m2, err := UnmarshalUDPPortMessage(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !slices.Equal(m2.Ports, m.Ports) {
			t.Fatalf("ports drifted across re-encode: %v -> %v", m.Ports, m2.Ports)
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

func FuzzParseElements(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 'x'})
	f.Add([]byte{5, 4, 0, 3, 0, 1})
	f.Add(bytes.Repeat([]byte{200, 2, 1, 2}, 10))
	f.Fuzz(func(t *testing.T, raw []byte) {
		elems, err := ParseElements(raw)
		if err != nil {
			return
		}
		// Total re-encoded length must equal the input length.
		total := 0
		for _, e := range elems {
			total += e.WireLen()
		}
		if total != len(raw) {
			t.Fatalf("element lengths %d != input %d", total, len(raw))
		}
	})
}

func FuzzParseUDP(f *testing.F) {
	f.Add(EncapsulateUDP(UDPDatagram{SrcPort: 1, DstPort: 2, Payload: []byte("hi")}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xaa}, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := ParseUDP(raw)
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
// arbitrary element bodies: ParseBTIM must never panic, and any body it
// accepts must re-encode to the identical wire image and preserve
// per-AID bit lookups.
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
		b, err := ParseBTIM(Element{ID: ElementIDBTIM, Body: body})
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
		b2, err := ParseBTIM(e)
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

// FuzzClassifyNeverPanics feeds arbitrary frames to Classify, and to
// both data-frame decoders: the in-place ReadDataFrame accepts exactly
// what UnmarshalDataFrame accepts (data frames with a full MAC header)
// and reads the same header and payload, aliasing the frame.
func FuzzClassifyNeverPanics(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind := Classify(raw)
		_ = kind.String()
		d, err := UnmarshalDataFrame(raw)
		var r DataFrame
		rerr := ReadDataFrame(raw, &r)
		if (rerr != nil) != (err != nil) {
			t.Fatalf("ReadDataFrame err = %v, UnmarshalDataFrame err = %v", rerr, err)
		}
		if want := kind == KindData && len(raw) >= MACHeaderLen; (err == nil) != want {
			t.Fatalf("data frame accepted = %v for a %d-byte %v frame", err == nil, len(raw), kind)
		}
		if err != nil {
			return
		}
		if r.Header != d.Header || !bytes.Equal(r.Payload, d.Payload) {
			t.Fatalf("in-place read %+v, owning decode %+v", r, *d)
		}
		if len(r.Payload) > 0 && &r.Payload[0] != &raw[MACHeaderLen] {
			t.Fatal("ReadDataFrame payload does not alias the frame")
		}
	})
}
