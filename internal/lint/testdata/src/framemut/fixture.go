// Package fixture exercises the framemut analyzer. The test harness
// analyzes it as repro/internal/medium and as repro/internal/station,
// where every frame parameter — a []byte buffer, a medium.Frame or a
// dot11.BeaconReading — is shared by every receiver of a transmission;
// the Receive/ReceiveAs methods are checked under any path. Delivered
// frames and the channel's reading of them are immutable — the only
// sanctioned mutation path clones first with append([]byte(nil), b...).
package fixture

import (
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
)

type sink struct {
	last []byte
	hdr  [6]byte
}

// Receive mutates the shared frame and its reading every way the alias
// flow catches.
func (s *sink) Receive(f *medium.Frame, at time.Duration) {
	f.Raw[0] = 1 // want `write into a byte slice that may alias the delivered frame`
	b := f.Raw
	b[2] = 0xff // want `write into a byte slice that may alias the delivered frame`
	hdr := f.Raw[4:10]
	hdr[0]++ // want `write into a byte slice that may alias the delivered frame`
	var scratch [16]byte
	copy(f.Raw[4:10], scratch[:])      // want `copy into a byte slice that may alias the delivered frame`
	f.Beacon.BTIM.PartialBitmap[0] = 1 // want `write into a byte slice that may alias the delivered frame`
	f.Kind = dot11.KindData            // want `store through a pointer that may alias the shared reading`
	f.Beacon.TIM.DTIMCount++           // want `store through a pointer that may alias the shared reading`
}

// ReceiveAs shows a may-alias merge: after the conditional, dst MAY
// still be the frame, so the write is flagged.
func (s *sink) ReceiveAs(to [6]byte, f *medium.Frame, at time.Duration) {
	dst := s.last
	if len(f.Raw) > 8 {
		dst = f.Raw
	}
	dst[0] = 0 // want `write into a byte slice that may alias the delivered frame`
}

// Clean shows the sanctioned idioms: reading, copying OUT of the
// frame, cloning before mutation, and rebinding to the clone.
func (s *sink) Clean(raw []byte) {
	// Not a Receive method and not named like one — but in this package
	// every []byte parameter is in scope, so the clean paths matter.
	_ = raw[0]                // reads are fine
	copy(s.hdr[:], raw[4:10]) // copying out of the frame is fine
	c := append([]byte(nil), raw...)
	c[0] ^= 0xff // the sanctioned clone path: fresh backing array
	raw = c
	raw[1] = 0 // rebound to the clone — no longer aliases the frame
	s.last = c
}

// corrupt is the medium-style corruption helper: clone, flip, hand on.
func corrupt(raw []byte, at int) []byte {
	c := append([]byte(nil), raw...)
	c[at] ^= 0xff
	return c
}

// patch writes in place — exactly the stray write the analyzer exists
// to catch in this package.
func patch(frame []byte, seq uint16) {
	frame[22] = byte(seq) // want `write into a byte slice that may alias the delivered frame`
}

// handleBeacon is a station-style helper handed the channel's reading
// of a beacon: its bitmaps alias the frame, and the struct itself is
// the one every later receiver reads.
func handleBeacon(b *dot11.BeaconReading) {
	b.TIM.PartialBitmap[0] = 2 // want `write into a byte slice that may alias the delivered frame`
	b.TIM.DTIMCount = 0        // want `store through a pointer that may alias the shared reading`
	bm := b.BTIM.PartialBitmap
	bm[0]++                    // want `write into a byte slice that may alias the delivered frame`
	copy(b.SSID, "x")          // want `copy into a byte slice that may alias the delivered frame`
	*b = dot11.BeaconReading{} // want `store through a pointer that may alias the shared reading`
}

// readOwn reads a beacon from a frame buffer it was handed: a reading
// filled by a call that receives the frame aliases it through its
// fields, and so does a slice taken from one of them.
func readOwn(raw []byte) {
	var b dot11.BeaconReading
	if err := dot11.ReadBeacon(raw, &b); err != nil {
		return
	}
	b.BTIM.PartialBitmap[0] = 0xff // want `write into a byte slice that may alias the delivered frame`
	b.TIM.DTIMCount = 1            // a store into the local reading writes that copy only
}

// readBeacon is the read-only use a station makes of a reading: bit
// tests, copying out, mutating only a clone, and storing into the
// fields of a copy of the struct.
func readBeacon(b *dot11.BeaconReading, aid dot11.AID) bool {
	if !b.HasTIM {
		return false
	}
	var ssid [32]byte
	copy(ssid[:], b.SSID)
	own := dot11.BTIM{Offset: b.BTIM.Offset, PartialBitmap: append([]byte(nil), b.BTIM.PartialBitmap...)}
	own.PartialBitmap[0] = 0
	r := *b
	r.TIM.DTIMCount = 0
	return r.TIM.UnicastBuffered(aid) || own.UsefulBroadcastBuffered(aid)
}
