package medium

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/sim"
)

// checkReading holds a Frame to a fresh read of its own bytes, the
// reference: the kind must equal dot11.Classify, BeaconOK must hold
// exactly when dot11.ReadBeacon accepts the bytes, and then every field
// of the reading must equal that read, its slices lying in f.Raw.
func checkReading(t testing.TB, f *Frame) {
	t.Helper()
	if k := dot11.Classify(f.Raw); f.Kind != k {
		t.Errorf("frame %x: kind %v, a fresh Classify says %v", f.Raw, f.Kind, k)
	}
	var b dot11.BeaconReading
	ok := dot11.ReadBeacon(f.Raw, &b) == nil
	if f.BeaconOK != ok {
		t.Fatalf("frame %x: BeaconOK %v, a fresh ReadBeacon accepts it: %v", f.Raw, f.BeaconOK, ok)
	}
	if !ok {
		return
	}
	if !reflect.DeepEqual(f.Beacon, b) {
		t.Errorf("frame %x: reading %+v, a fresh ReadBeacon reads %+v", f.Raw, f.Beacon, b)
	}
	for _, s := range [][]byte{f.Beacon.SSID, f.Beacon.TIM.PartialBitmap, f.Beacon.BTIM.PartialBitmap} {
		if len(s) > 0 && !within(s, f.Raw) {
			t.Errorf("frame %x: reading holds %x from other bytes than the frame's", f.Raw, s)
		}
	}
}

// within reports whether s is a slice of raw's bytes.
func within(s, raw []byte) bool {
	for i := range raw {
		if &raw[i] == &s[0] {
			return i+len(s) <= len(raw)
		}
	}
	return false
}

// rereader is a node that checks every reading it is handed against a
// fresh read of the delivered bytes, and keeps the bytes, the Frame
// each delivery came in and its kind and beacon verdict.
type rereader struct {
	t      *testing.T
	raws   [][]byte
	frames []*Frame
	kinds  []dot11.FrameKind
	oks    []bool
}

func (r *rereader) Receive(f *Frame, _ time.Duration) {
	checkReading(r.t, f)
	r.raws = append(r.raws, append([]byte(nil), f.Raw...))
	r.frames = append(r.frames, f)
	r.kinds = append(r.kinds, f.Kind)
	r.oks = append(r.oks, f.BeaconOK)
}

// readingFrames returns one frame of each shape a reading must get
// right: beacons with TIM and BTIM (a DTIM announcing group traffic, a
// legacy beacon without a BTIM and one carrying two TIMs), group data,
// an ACK, a UDP Port Message, and beacons the reader refuses.
func readingFrames(t testing.TB) [][]byte {
	t.Helper()
	var bm dot11.VirtualBitmap
	bm.Set(3)
	bm.Set(200)
	btim := dot11.BTIMFromBitmap(&bm)
	hdr := dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: apAddr, Addr3: apAddr}
	dtim, err := (&dot11.Beacon{
		Header: hdr, Timestamp: 1 << 33, BeaconInterval: 100, SSID: "cafe",
		TIM:  &dot11.TIM{DTIMPeriod: 3, Broadcast: true, BitmapOffset: 2, PartialBitmap: []byte{0x11, 0}},
		BTIM: &btim,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := (&dot11.Beacon{
		Header: hdr, Timestamp: 7, BeaconInterval: 200,
		TIM: &dot11.TIM{DTIMCount: 1, DTIMPeriod: 3, PartialBitmap: []byte{0x04}},
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tim, err := (&dot11.TIM{DTIMPeriod: 1, Broadcast: true, PartialBitmap: []byte{0x08}}).Element()
	if err != nil {
		t.Fatal(err)
	}
	twoTIMs, err := tim.AppendTo(append([]byte(nil), legacy...))
	if err != nil {
		t.Fatal(err)
	}
	data := (&dot11.DataFrame{
		Header:  dot11.MACHeader{FC: dot11.FrameControl{FromDS: true, MoreData: true}, Addr1: dot11.Broadcast, Addr2: apAddr, Addr3: apAddr},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 5353, Payload: make([]byte, 40)}),
	}).Marshal()
	return [][]byte{
		dtim,
		legacy,
		twoTIMs,
		data,
		(&dot11.ACK{RA: s1Addr}).AppendTo(nil),
		(&dot11.UDPPortMessage{
			Header: dot11.MACHeader{Addr1: apAddr, Addr2: s1Addr, Addr3: apAddr},
			Ports:  []uint16{53, 5353},
		}).AppendTo(nil),
		dtim[:dot11.MACHeaderLen+6],              // a beacon cut inside its fixed fields
		dtim[:len(dtim)-1],                       // a beacon whose last element runs past the frame
		append(dtim[:len(dtim):len(dtim)], 5, 1), // a TIM too short to read
	}
}

// transmitAll sends every frame from the AP, with the port message
// coming from s1 as stations send it, and runs the engine.
func transmitAll(eng *sim.Engine, m *Medium, frames [][]byte, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, raw := range frames {
			src := apAddr
			if dot11.Classify(raw) == dot11.KindUDPPortMessage {
				src = s1Addr
			}
			m.Transmit(src, raw, dot11.Rate1Mbps)
		}
	}
	eng.Run()
}

// TestSharedReadingMatchesFreshRead is the reference for the read the
// medium makes once per transmission: every receiver's reading equals
// a fresh Classify and ReadBeacon of the bytes it was delivered, on a
// pristine channel and under a composed loss, corruption and
// duplication plan, and on the pristine channel every receiver of a
// transmission is handed the same Frame.
func TestSharedReadingMatchesFreshRead(t *testing.T) {
	for _, c := range []struct {
		name string
		plan fault.Plan
	}{
		{"pristine", nil},
		{"loss+corrupt+duplicate", fault.Compose(fault.Loss{P: 0.2}, fault.Corrupt{P: 0.4}, fault.Duplicate{P: 0.3})},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			m := New(eng, 9)
			m.SetFaultPlan(c.plan)
			nodes := map[dot11.MACAddr]*rereader{}
			for _, addr := range []dot11.MACAddr{apAddr, s1Addr, s2Addr, {2, 0, 0, 0, 0, 0x30}} {
				nodes[addr] = &rereader{t: t}
				m.Attach(addr, nodes[addr])
			}
			frames := readingFrames(t)
			rounds := 1
			if c.plan != nil {
				rounds = 40
			}
			transmitAll(eng, m, frames, rounds)

			got := 0
			for _, r := range nodes {
				got += len(r.frames)
			}
			if got != m.Stats.Deliveries || got == 0 {
				t.Fatalf("nodes checked %d deliveries, the medium counted %d", got, m.Stats.Deliveries)
			}
			if c.plan == nil {
				// Each group frame reaches the three other nodes, the ACK
				// s1 and the port message the AP: one shared Frame apiece.
				r := nodes[s2Addr]
				b, d := dot11.KindBeacon, dot11.KindData
				wantKinds := []dot11.FrameKind{b, b, b, d, b, b, b}
				wantOK := []bool{true, true, true, false, false, false, false}
				if !reflect.DeepEqual(r.kinds, wantKinds) || !reflect.DeepEqual(r.oks, wantOK) {
					t.Fatalf("s2 read kinds %v, beacons accepted %v; want %v, %v", r.kinds, r.oks, wantKinds, wantOK)
				}
				for i, f := range r.frames {
					if f != &m.frame {
						t.Errorf("delivery %d handed s2 another Frame than the medium's one reading", i)
					}
				}
				return
			}
			if m.Stats.Losses == 0 || m.Stats.Corruptions == 0 || m.Stats.Duplicates == 0 {
				t.Fatalf("plan never applied every effect: %+v", m.Stats)
			}
		})
	}
}

// TestCorruptedReceiverReadsItsOwnBytes corrupts every copy one
// receiver in the middle of the fan-out gets: its reading is of its
// own garbled bytes, and the receivers on both sides of it keep the
// original bytes and the original's reading.
func TestCorruptedReceiverReadsItsOwnBytes(t *testing.T) {
	eng := sim.New()
	m := New(eng, 3)
	m.SetFaultPlan(fault.To(s1Addr, fault.Corrupt{P: 1}))
	before, garbled, after := &rereader{t: t}, &rereader{t: t}, &rereader{t: t}
	m.Attach(s2Addr, before)
	m.Attach(s1Addr, garbled)
	m.Attach(dot11.MACAddr{2, 0, 0, 0, 0, 0x30}, after)
	orig := readingFrames(t)[0]
	var want Frame
	want.Read(orig, dot11.Rate1Mbps)
	const n = 60
	transmitAll(eng, m, [][]byte{orig}, n)

	if len(before.frames) != n || len(garbled.frames) != n || len(after.frames) != n {
		t.Fatalf("deliveries %d/%d/%d, want %d each", len(before.frames), len(garbled.frames), len(after.frames), n)
	}
	differs := 0
	for i := 0; i < n; i++ {
		for _, r := range []*rereader{before, after} {
			if !bytes.Equal(r.raws[i], orig) || r.frames[i] != &m.frame {
				t.Fatalf("delivery %d: an uncorrupted receiver got %x, not the original's shared reading", i, r.raws[i])
			}
		}
		if bytes.Equal(garbled.raws[i], orig) || garbled.frames[i] == &m.frame {
			t.Fatalf("delivery %d: the corrupted receiver got the original's bytes or reading", i)
		}
		// The flips land across the frame, so some of them move the
		// reading away from the original's.
		var g Frame
		g.Read(garbled.raws[i], dot11.Rate1Mbps)
		if g.Kind != want.Kind || g.BeaconOK != want.BeaconOK || !reflect.DeepEqual(g.Beacon, want.Beacon) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("no corrupted copy read differently from the original")
	}
}

// FuzzFrameRead feeds Frame.Read arbitrary bytes, as the airlink hub and
// link hand it datagrams from outside, into a Frame that already holds
// a beacon's reading: the reading must match a fresh Classify and
// ReadBeacon of the bytes, and the bytes must come back untouched.
func FuzzFrameRead(f *testing.F) {
	frames := readingFrames(f)
	for _, raw := range frames {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, raw []byte) {
		orig := append([]byte(nil), raw...)
		var fr Frame
		fr.Read(frames[0], dot11.Rate1Mbps)
		fr.Read(raw, dot11.Rate11Mbps)
		if !bytes.Equal(fr.Raw, raw) || fr.Rate != dot11.Rate11Mbps {
			t.Fatalf("Read kept %x at %v, want the input at 11 Mb/s", fr.Raw, fr.Rate)
		}
		checkReading(t, &fr)
		if !bytes.Equal(raw, orig) {
			t.Fatalf("Read wrote its input: %x, was %x", raw, orig)
		}
	})
}
