package dot11

import "fmt"

// Element is a generic 802.11 information element: a one-byte ID, a
// one-byte length, and up to 255 bytes of body.
type Element struct {
	ID   uint8
	Body []byte
}

// AppendTo appends the encoded element to b and returns the extended
// slice. It returns an error if the body exceeds 255 bytes.
func (e Element) AppendTo(b []byte) ([]byte, error) {
	if len(e.Body) > 255 {
		return nil, fmt.Errorf("%w: id=%d len=%d", ErrElementTooLong, e.ID, len(e.Body))
	}
	b = append(b, e.ID, uint8(len(e.Body)))
	return append(b, e.Body...), nil
}

// nextElement splits the first element off a non-empty element blob.
// The body aliases b.
func nextElement(b []byte) (e Element, rest []byte, err error) {
	if len(b) < 2 {
		return Element{}, nil, fmt.Errorf("%w: trailing %d bytes", ErrBadElement, len(b))
	}
	id, n := b[0], int(b[1])
	if len(b) < 2+n {
		return Element{}, nil, fmt.Errorf("%w: element id=%d declares %d bytes, %d remain", ErrBadElement, id, n, len(b)-2)
	}
	return Element{ID: id, Body: b[2 : 2+n]}, b[2+n:], nil
}

// TIM is the standard Traffic Indication Map element (Figure 1). The
// DTIM Count is the number of beacons before the next DTIM (zero in a
// DTIM beacon); the DTIM Period is in beacon intervals. Bit 0 of the
// Bitmap Control field indicates buffered broadcast/multicast traffic;
// bits 1..7 carry the bitmap offset in units of two octets. The partial
// virtual bitmap carries per-AID unicast indications.
type TIM struct {
	DTIMCount     uint8
	DTIMPeriod    uint8
	Broadcast     bool // Bitmap Control bit 0: group traffic buffered
	BitmapOffset  uint8
	PartialBitmap []byte
}

// Element encodes the TIM as an information element.
func (t TIM) Element() (Element, error) {
	if t.BitmapOffset%2 != 0 {
		return Element{}, fmt.Errorf("%w: TIM bitmap offset %d is odd", ErrBadElement, t.BitmapOffset)
	}
	pm := t.PartialBitmap
	if len(pm) == 0 {
		pm = []byte{0}
	}
	body := make([]byte, 0, 3+len(pm))
	ctl := t.BitmapOffset / 2 << 1
	if t.Broadcast {
		ctl |= 0x01
	}
	body = append(body, t.DTIMCount, t.DTIMPeriod, ctl)
	body = append(body, pm...)
	return Element{ID: ElementIDTIM, Body: body}, nil
}

// readTIM decodes a TIM element body in place: the partial bitmap
// aliases body.
func readTIM(body []byte) (TIM, error) {
	if len(body) < 4 {
		return TIM{}, fmt.Errorf("%w: TIM body %d bytes", ErrBadElement, len(body))
	}
	return TIM{
		DTIMCount:     body[0],
		DTIMPeriod:    body[1],
		Broadcast:     body[2]&0x01 != 0,
		BitmapOffset:  body[2] >> 1 << 1,
		PartialBitmap: body[3:],
	}, nil
}

// UnicastBuffered reports whether the TIM indicates buffered unicast
// traffic for aid.
func (t TIM) UnicastBuffered(aid AID) bool {
	return partialGet(t.BitmapOffset, t.PartialBitmap, aid)
}

// BTIM is the Broadcast Traffic Indication Map element HIDE adds to
// beacon frames (Figure 4, element ID 201). Each bit of the partial
// virtual bitmap corresponds to a client AID and indicates useful
// broadcast frames buffered at the AP for that client. The Offset field
// is the byte index of the first octet included in the partial bitmap
// (Figure 5's N1, always even).
type BTIM struct {
	Offset        uint8
	PartialBitmap []byte
}

// BTIMFromBitmap compresses a full virtual bitmap into a BTIM.
func BTIMFromBitmap(v *VirtualBitmap) BTIM {
	off, pm := v.Compress()
	return BTIM{Offset: off, PartialBitmap: pm}
}

// Element encodes the BTIM as an information element.
func (b BTIM) Element() (Element, error) {
	if b.Offset%2 != 0 {
		return Element{}, fmt.Errorf("%w: BTIM offset %d is odd", ErrBadElement, b.Offset)
	}
	pm := b.PartialBitmap
	if len(pm) == 0 {
		pm = []byte{0}
	}
	body := make([]byte, 0, 1+len(pm))
	body = append(body, b.Offset)
	body = append(body, pm...)
	return Element{ID: ElementIDBTIM, Body: body}, nil
}

// readBTIM decodes a BTIM element body in place: the partial bitmap
// aliases body.
func readBTIM(body []byte) (BTIM, error) {
	if len(body) < 2 {
		return BTIM{}, fmt.Errorf("%w: BTIM body %d bytes", ErrBadElement, len(body))
	}
	if body[0]%2 != 0 {
		return BTIM{}, fmt.Errorf("%w: BTIM offset %d is odd", ErrBadElement, body[0])
	}
	return BTIM{Offset: body[0], PartialBitmap: body[1:]}, nil
}

// UsefulBroadcastBuffered reports whether the BTIM bit for aid is set,
// i.e. whether the AP holds broadcast frames useful to that client.
func (b BTIM) UsefulBroadcastBuffered(aid AID) bool {
	return partialGet(b.Offset, b.PartialBitmap, aid)
}

// MaxPortsPerElement is the number of 2-byte ports that fit in one
// 255-byte body of the Open UDP Ports element (ID 200), which lists the
// UDP ports open on a client in UDP Port Messages and association
// requests (paper Figure 3). Longer lists are split across several
// elements.
const MaxPortsPerElement = 127

// appendPorts validates an Open UDP Ports element body and appends its
// ports to dst.
func appendPorts(dst []uint16, body []byte) ([]uint16, error) {
	if len(body)%2 != 0 {
		return dst, fmt.Errorf("%w: odd port list length %d", ErrBadElement, len(body))
	}
	for i := 0; i < len(body); i += 2 {
		dst = append(dst, getUint16(body[i:]))
	}
	return dst, nil
}

// appendPortElements appends ports as Open UDP Ports elements of at
// most MaxPortsPerElement ports each; an empty list still gets one
// empty element.
func appendPortElements(b []byte, ports []uint16) []byte {
	for {
		n := min(len(ports), MaxPortsPerElement)
		b = append(b, ElementIDOpenUDPPorts, uint8(2*n))
		for _, p := range ports[:n] {
			b = append(b, byte(p), byte(p>>8))
		}
		if ports = ports[n:]; len(ports) == 0 {
			return b
		}
	}
}
