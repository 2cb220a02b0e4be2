// Package fixture exercises the framemut analyzer. The test harness
// analyzes it as repro/internal/medium and as repro/internal/station,
// where every []byte parameter is a shared frame buffer; the
// Receive/ReceiveAs methods are checked under any path. Delivered
// frames are immutable — the only sanctioned mutation path clones
// first with append([]byte(nil), b...).
package fixture

import (
	"time"

	"repro/internal/dot11"
)

type sink struct {
	last []byte
	hdr  [6]byte
}

// Receive mutates the shared buffer every way the alias flow catches.
func (s *sink) Receive(raw []byte, rate int, at time.Duration) {
	raw[0] = 1 // want `write into a byte slice that may alias the delivered frame`
	b := raw
	b[2] = 0xff // want `write into a byte slice that may alias the delivered frame`
	hdr := raw[4:10]
	hdr[0]++ // want `write into a byte slice that may alias the delivered frame`
	var scratch [16]byte
	copy(raw[4:10], scratch[:]) // want `copy into a byte slice that may alias the delivered frame`
}

// ReceiveAs shows a may-alias merge: after the conditional, dst MAY
// still be the frame, so the write is flagged.
func (s *sink) ReceiveAs(to [6]byte, raw []byte, rate int, at time.Duration) {
	dst := s.last
	if len(raw) > 8 {
		dst = raw
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

// handleBeacon is a station-style helper handed the delivered frame: a
// reading filled by a call that receives the frame aliases it through
// its fields, and so does a slice taken from one of them.
func handleBeacon(raw []byte) {
	var b dot11.BeaconReading
	if err := dot11.ReadBeacon(raw, &b); err != nil {
		return
	}
	b.BTIM.PartialBitmap[0] = 0xff // want `write into a byte slice that may alias the delivered frame`
	bm := b.TIM.PartialBitmap
	bm[0]++           // want `write into a byte slice that may alias the delivered frame`
	copy(b.SSID, "x") // want `copy into a byte slice that may alias the delivered frame`
}

// readBeacon is the read-only use a station makes of a reading: bit
// tests, copying out, and mutating only a clone.
func readBeacon(raw []byte, aid dot11.AID) bool {
	var b dot11.BeaconReading
	if dot11.ReadBeacon(raw, &b) != nil || !b.HasTIM {
		return false
	}
	var ssid [32]byte
	copy(ssid[:], b.SSID)
	own := dot11.BTIM{Offset: b.BTIM.Offset, PartialBitmap: append([]byte(nil), b.BTIM.PartialBitmap...)}
	own.PartialBitmap[0] = 0
	return b.TIM.UnicastBuffered(aid) || own.UsefulBroadcastBuffered(aid)
}
