package dot11

import (
	"encoding/binary"
	"fmt"
)

// Beacon is an 802.11 beacon management frame carrying the fixed
// timestamp/interval/capability fields plus information elements,
// including the standard TIM and (on HIDE APs) the BTIM.
type Beacon struct {
	Header         MACHeader
	Timestamp      uint64 // µs since AP timer start (TSF)
	BeaconInterval uint16 // in time units (TU = 1024 µs)
	Capability     uint16
	SSID           string
	TIM            *TIM
	BTIM           *BTIM
}

// beaconFixedLen is the length of the fixed beacon body fields:
// timestamp (8) + beacon interval (2) + capability (2).
const beaconFixedLen = 12

// Marshal encodes the beacon into wire format.
func (b *Beacon) Marshal() ([]byte, error) {
	hdr := b.Header
	hdr.FC.Type = TypeManagement
	hdr.FC.Subtype = SubtypeBeacon

	out := make([]byte, MACHeaderLen+beaconFixedLen, MACHeaderLen+beaconFixedLen+64)
	hdr.marshalInto(out)
	p := out[MACHeaderLen:]
	for i := 0; i < 8; i++ {
		p[i] = byte(b.Timestamp >> (8 * i))
	}
	putUint16(p[8:], b.BeaconInterval)
	putUint16(p[10:], b.Capability)

	var err error
	if out, err = (Element{ID: ElementIDSSID, Body: []byte(b.SSID)}).AppendTo(out); err != nil {
		return nil, err
	}
	if b.TIM != nil {
		e, err := b.TIM.Element()
		if err != nil {
			return nil, err
		}
		if out, err = e.AppendTo(out); err != nil {
			return nil, err
		}
	}
	if b.BTIM != nil {
		e, err := b.BTIM.Element()
		if err != nil {
			return nil, err
		}
		if out, err = e.AppendTo(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BeaconReading is a beacon read in place by ReadBeacon. Its byte
// slices (SSID and both partial bitmaps) alias the frame it was read
// from, so it lives no longer than that frame may be used: a station
// reads the shared, immutable delivered frame during Receive and
// never retains the reading. A caller that keeps a beacon copies the
// frame before reading it.
type BeaconReading struct {
	Header         MACHeader
	Timestamp      uint64
	BeaconInterval uint16
	Capability     uint16
	SSID           []byte // last SSID element's body
	HasTIM         bool   // whether TIM holds the last TIM element
	TIM            TIM
	HasBTIM        bool // whether BTIM holds the last BTIM element
	BTIM           BTIM
}

// ReadBeacon validates a beacon frame and reads it into r in place;
// reading a well-formed beacon allocates nothing. It keeps the last
// TIM and BTIM element of a frame carrying several and skips every
// other element, as a legacy receiver skips the BTIM it does not
// understand, which is what makes HIDE backward compatible. On error
// r holds no meaningful reading.
func ReadBeacon(raw []byte, r *BeaconReading) error {
	hdr, err := unmarshalMACHeader(raw)
	if err != nil {
		return err
	}
	if hdr.FC.Type != TypeManagement || hdr.FC.Subtype != SubtypeBeacon {
		return fmt.Errorf("%w: %v/%d, want beacon", ErrBadFrameType, hdr.FC.Type, hdr.FC.Subtype)
	}
	if len(raw) < MACHeaderLen+beaconFixedLen {
		return fmt.Errorf("%w: %d bytes for beacon body", ErrShortFrame, len(raw)-MACHeaderLen)
	}
	p := raw[MACHeaderLen:]
	// Reset, then fill in place: assigning a BeaconReading literal goes
	// through a stack temporary, which made the whole read ~12% slower.
	*r = BeaconReading{}
	r.Header = hdr
	r.Timestamp = binary.LittleEndian.Uint64(p)
	r.BeaconInterval = getUint16(p[8:])
	r.Capability = getUint16(p[10:])
	for rest := p[beaconFixedLen:]; len(rest) > 0; {
		var e Element
		if e, rest, err = nextElement(rest); err != nil {
			return err
		}
		switch e.ID {
		case ElementIDSSID:
			r.SSID = e.Body
		case ElementIDTIM:
			if r.TIM, err = readTIM(e.Body); err != nil {
				return err
			}
			r.HasTIM = true
		case ElementIDBTIM:
			if r.BTIM, err = readBTIM(e.Body); err != nil {
				return err
			}
			r.HasBTIM = true
		}
	}
	return nil
}

// UDPPortMessage is the HIDE management frame (type 00, subtype 1111)
// a client sends to the AP right before entering suspend mode,
// reporting the UDP ports open on the client (paper Figure 3). Ports
// beyond 127 are split across multiple Open UDP Ports elements.
type UDPPortMessage struct {
	Header MACHeader
	Ports  []uint16
}

// AppendTo appends the encoded UDP Port Message to b and returns the
// extended slice, so a sender can encode every message into one
// reused buffer.
func (m *UDPPortMessage) AppendTo(b []byte) []byte {
	hdr := m.Header
	hdr.FC.Type = TypeManagement
	hdr.FC.Subtype = SubtypeUDPPortMessage
	start := len(b)
	b = append(b, make([]byte, MACHeaderLen)...)
	hdr.marshalInto(b[start:])
	return appendPortElements(b, m.Ports)
}

// ReadUDPPortMessage validates a UDP Port Message in place and appends
// the ports of its Open UDP Ports elements, in frame order, to
// ports[:0]; with a scratch slice of enough capacity it allocates
// nothing. On error the returned slice keeps the scratch's storage but
// holds no ports.
func ReadUDPPortMessage(raw []byte, ports []uint16) (MACHeader, []uint16, error) {
	ports = ports[:0]
	hdr, err := unmarshalMACHeader(raw)
	if err != nil {
		return MACHeader{}, ports, err
	}
	if hdr.FC.Type != TypeManagement || hdr.FC.Subtype != SubtypeUDPPortMessage {
		return MACHeader{}, ports, fmt.Errorf("%w: %v/%d, want UDP port message", ErrBadFrameType, hdr.FC.Type, hdr.FC.Subtype)
	}
	for rest := raw[MACHeaderLen:]; len(rest) > 0; {
		var e Element
		if e, rest, err = nextElement(rest); err != nil {
			return MACHeader{}, ports[:0], err
		}
		if e.ID != ElementIDOpenUDPPorts {
			continue
		}
		if ports, err = appendPorts(ports, e.Body); err != nil {
			return MACHeader{}, ports[:0], err
		}
	}
	return hdr, ports, nil
}

// ACK is an 802.11 ACK control frame.
type ACK struct {
	RA MACAddr // receiver address
}

// AppendTo appends the encoded ACK (without FCS) to b and returns the
// extended slice.
func (a *ACK) AppendTo(b []byte) []byte {
	fc := FrameControl{Type: TypeControl, Subtype: SubtypeACK}.Marshal()
	b = append(b, fc[0], fc[1], 0, 0) // frame control, zero duration
	return append(b, a.RA[:]...)
}

// PSPoll is the Power Save Poll control frame a station in PS mode
// sends to retrieve one buffered unicast frame from the AP.
type PSPoll struct {
	AID   AID
	BSSID MACAddr
	TA    MACAddr // transmitting station
}

// Marshal encodes the PS-Poll into wire format (without FCS).
func (p *PSPoll) Marshal() []byte {
	out := make([]byte, PSPollFrameLen-FCSLen)
	fc := FrameControl{Type: TypeControl, Subtype: SubtypePSPoll}.Marshal()
	out[0], out[1] = fc[0], fc[1]
	// The Duration/ID field carries the AID with the two MSBs set.
	putUint16(out[2:], uint16(p.AID)|0xc000)
	copy(out[4:], p.BSSID[:])
	copy(out[10:], p.TA[:])
	return out
}

// UnmarshalPSPoll decodes a PS-Poll control frame.
func UnmarshalPSPoll(raw []byte) (*PSPoll, error) {
	if len(raw) < PSPollFrameLen-FCSLen {
		return nil, fmt.Errorf("%w: %d bytes for PS-Poll", ErrShortFrame, len(raw))
	}
	fc := UnmarshalFrameControl([2]byte{raw[0], raw[1]})
	if fc.Type != TypeControl || fc.Subtype != SubtypePSPoll {
		return nil, fmt.Errorf("%w: %v/%d, want PS-Poll", ErrBadFrameType, fc.Type, fc.Subtype)
	}
	p := &PSPoll{AID: AID(getUint16(raw[2:]) &^ 0xc000)}
	copy(p.BSSID[:], raw[4:])
	copy(p.TA[:], raw[10:])
	return p, nil
}

// DataFrame is an 802.11 data frame whose body is an LLC/SNAP + IPv4 +
// UDP datagram — the "UDP-padded" frames the paper manages. The MoreData
// bit in the header signals further buffered group frames after a DTIM.
type DataFrame struct {
	Header  MACHeader
	Payload []byte // LLC/SNAP + IP packet
}

// Marshal encodes the data frame into wire format.
func (d *DataFrame) Marshal() []byte {
	hdr := d.Header
	hdr.FC.Type = TypeData
	hdr.FC.Subtype = SubtypeData
	out := make([]byte, MACHeaderLen+len(d.Payload))
	hdr.marshalInto(out)
	copy(out[MACHeaderLen:], d.Payload)
	return out
}

// ReadDataFrame reads a data frame into d without allocating; the
// payload aliases raw, so d lives no longer than raw may be used. It
// accepts every data frame with a whole MAC header. On error d is left
// unchanged.
func ReadDataFrame(raw []byte, d *DataFrame) error {
	hdr, err := unmarshalMACHeader(raw)
	if err != nil {
		return err
	}
	if hdr.FC.Type != TypeData {
		return fmt.Errorf("%w: %v, want data", ErrBadFrameType, hdr.FC.Type)
	}
	d.Header = hdr
	d.Payload = raw[MACHeaderLen:]
	return nil
}

// FrameKind classifies a raw frame without fully decoding it.
type FrameKind uint8

// Frame kinds returned by Classify.
const (
	KindUnknown FrameKind = iota
	KindBeacon
	KindUDPPortMessage
	KindACK
	KindPSPoll
	KindData
	KindAssocRequest
	KindAssocResponse
	KindDisassoc
	KindReassocRequest
	KindReassocResponse
)

// String returns the name of the frame kind.
func (k FrameKind) String() string {
	switch k {
	case KindBeacon:
		return "beacon"
	case KindUDPPortMessage:
		return "udp-port-message"
	case KindACK:
		return "ack"
	case KindPSPoll:
		return "ps-poll"
	case KindData:
		return "data"
	case KindAssocRequest:
		return "assoc-request"
	case KindAssocResponse:
		return "assoc-response"
	case KindDisassoc:
		return "disassoc"
	case KindReassocRequest:
		return "reassoc-request"
	case KindReassocResponse:
		return "reassoc-response"
	default:
		return "unknown"
	}
}

// Classify inspects the frame control field of a raw frame.
func Classify(raw []byte) FrameKind {
	if len(raw) < 2 {
		return KindUnknown
	}
	fc := UnmarshalFrameControl([2]byte{raw[0], raw[1]})
	switch {
	case fc.Type == TypeManagement && fc.Subtype == SubtypeBeacon:
		return KindBeacon
	case fc.Type == TypeManagement && fc.Subtype == SubtypeUDPPortMessage:
		return KindUDPPortMessage
	case fc.Type == TypeManagement && fc.Subtype == SubtypeAssocRequest:
		return KindAssocRequest
	case fc.Type == TypeManagement && fc.Subtype == SubtypeAssocResponse:
		return KindAssocResponse
	case fc.Type == TypeManagement && fc.Subtype == SubtypeDisassoc:
		return KindDisassoc
	case fc.Type == TypeManagement && fc.Subtype == SubtypeReassocRequest:
		return KindReassocRequest
	case fc.Type == TypeManagement && fc.Subtype == SubtypeReassocResponse:
		return KindReassocResponse
	case fc.Type == TypeControl && fc.Subtype == SubtypeACK:
		return KindACK
	case fc.Type == TypeControl && fc.Subtype == SubtypePSPoll:
		return KindPSPoll
	case fc.Type == TypeData:
		return KindData
	default:
		return KindUnknown
	}
}
