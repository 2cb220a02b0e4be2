package dot11

import "math/bits"

// VirtualBitmap is a full traffic-indication virtual bitmap: one bit per
// AID, bit k of octet k/8 corresponding to AID k (IEEE 802.11-2012
// §8.4.2.7). Octet 0 bit 0 is the AID-0 position, which the standard TIM
// repurposes as the broadcast/multicast indicator; the HIDE BTIM uses
// per-client bits starting at AID 1.
//
// The zero value is an empty bitmap. The bitmap grows on demand up to
// the 251 octets needed for MaxAID.
type VirtualBitmap struct {
	octets [bitmapOctets]byte // fixed backing; 2008 bits cover AID 0..2007
	hi     int                // index one past the highest non-zero octet
}

// bitmapOctets is the capacity of a full virtual bitmap in octets.
const bitmapOctets = 252

// Set sets the bit for aid. Invalid AIDs (> MaxAID) are ignored.
func (v *VirtualBitmap) Set(aid AID) {
	if aid > MaxAID {
		return
	}
	oct := int(aid) / 8
	v.octets[oct] |= 1 << (uint(aid) % 8)
	if oct+1 > v.hi {
		v.hi = oct + 1
	}
}

// Clear clears the bit for aid.
func (v *VirtualBitmap) Clear(aid AID) {
	if aid > MaxAID {
		return
	}
	v.octets[int(aid)/8] &^= 1 << (uint(aid) % 8)
	v.shrink()
}

// Get reports whether the bit for aid is set.
func (v *VirtualBitmap) Get(aid AID) bool {
	if aid > MaxAID {
		return false
	}
	return v.octets[int(aid)/8]&(1<<(uint(aid)%8)) != 0
}

// Reset clears every bit.
func (v *VirtualBitmap) Reset() {
	for i := 0; i < v.hi; i++ {
		v.octets[i] = 0
	}
	v.hi = 0
}

// Any reports whether any bit is set.
func (v *VirtualBitmap) Any() bool { return v.hi > 0 }

// Count returns the number of set bits.
func (v *VirtualBitmap) Count() int {
	n := 0
	for i := 0; i < v.hi; i++ {
		b := v.octets[i]
		for b != 0 {
			b &= b - 1
			n++
		}
	}
	return n
}

// AppendAIDs appends the AID of every set bit to dst in ascending
// order and returns the extended slice.
func (v *VirtualBitmap) AppendAIDs(dst []AID) []AID {
	for i := 0; i < v.hi; i++ {
		for b := v.octets[i]; b != 0; b &= b - 1 {
			dst = append(dst, AID(i*8+bits.TrailingZeros8(b)))
		}
	}
	return dst
}

// Or sets every bit of v that is set in o (bitwise union). Union is
// order-independent, which is what lets Algorithm 1 fold precomputed
// per-port bitmaps together and still produce bit-identical BTIMs.
func (v *VirtualBitmap) Or(o *VirtualBitmap) {
	for i := 0; i < o.hi; i++ {
		v.octets[i] |= o.octets[i]
	}
	if o.hi > v.hi {
		v.hi = o.hi
	}
}

// shrink recomputes hi after a Clear.
func (v *VirtualBitmap) shrink() {
	for v.hi > 0 && v.octets[v.hi-1] == 0 {
		v.hi--
	}
}

// Compress produces the partial virtual bitmap encoding of Figure 5:
// it trims leading all-zero octets (rounded down to an even count, as
// the figure requires N1 to be even) and trailing all-zero octets, and
// returns the byte offset of the first included octet plus the included
// octets. An empty bitmap compresses to offset 0 and a single zero
// octet, mirroring the standard TIM's minimum one-octet bitmap.
func (v *VirtualBitmap) Compress() (offset uint8, partial []byte) {
	if v.hi == 0 {
		return 0, []byte{0}
	}
	lo := 0
	for lo < v.hi && v.octets[lo] == 0 {
		lo++
	}
	lo &^= 1 // N1 must be even (paper Figure 5)
	out := make([]byte, v.hi-lo)
	copy(out, v.octets[lo:v.hi])
	return uint8(lo), out
}

// Decompress reconstructs a full bitmap from a partial virtual bitmap
// and its offset. It returns an error if the encoding would exceed the
// bitmap's capacity.
func Decompress(offset uint8, partial []byte) (*VirtualBitmap, error) {
	var v VirtualBitmap
	if int(offset)+len(partial) > bitmapOctets {
		return nil, ErrBadElement
	}
	copy(v.octets[offset:], partial)
	v.hi = int(offset) + len(partial)
	v.shrink()
	return &v, nil
}

// partialGet tests the bit for aid of a partial virtual bitmap in
// place. It answers exactly as Decompress(offset, partial).Get(aid)
// does, including false for an encoding Decompress rejects, without
// building the full bitmap.
func partialGet(offset uint8, partial []byte, aid AID) bool {
	if aid > MaxAID || int(offset)+len(partial) > bitmapOctets {
		return false
	}
	i := int(aid)/8 - int(offset)
	return i >= 0 && i < len(partial) && partial[i]&(1<<(uint(aid)%8)) != 0
}
