// Package dot11 models the subset of IEEE 802.11 needed by the HIDE
// system: MAC addressing, frame control, management/data/control frames,
// the standard TIM information element, and the two elements HIDE adds
// to the protocol — the Open UDP Ports element (ID 200) carried in UDP
// Port Messages and the Broadcast Traffic Indication Map (BTIM, ID 201)
// carried in beacons.
//
// Frames marshal to and from wire format ([]byte) so the simulated AP
// and stations exchange real encoded frames rather than Go structs,
// and frame lengths feed the airtime and energy models directly.
// Multi-byte fields are little-endian, matching 802.11 conventions.
package dot11

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// MACAddr is a 48-bit IEEE 802 MAC address.
type MACAddr [6]byte

// Broadcast is the all-ones broadcast destination address.
var Broadcast = MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the conventional colon-separated form.
func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// ParseMAC parses the colon-separated form String prints
// ("02:1d:e0:aa:00:10"): six octets of exactly two hex digits each,
// in either case, and nothing else.
func ParseMAC(s string) (MACAddr, error) {
	var a MACAddr
	parts := strings.Split(s, ":")
	if len(parts) != len(a) {
		return a, fmt.Errorf("dot11: bad MAC %q", s)
	}
	for i, p := range parts {
		if len(p) != 2 {
			return a, fmt.Errorf("dot11: bad MAC %q", s)
		}
		if _, err := hex.Decode(a[i:i+1], []byte(p)); err != nil {
			return a, fmt.Errorf("dot11: bad MAC %q", s)
		}
	}
	return a, nil
}

// IsBroadcast reports whether the address is the broadcast address.
func (a MACAddr) IsBroadcast() bool { return a == Broadcast }

// IsMulticast reports whether the group bit is set (includes broadcast).
func (a MACAddr) IsMulticast() bool { return a[0]&0x01 != 0 }

// addrBlockBits is the width of the member-index space inside a MAC
// address block: the low three octets, treated as a big-endian counter.
const addrBlockBits = 24

// MaxAddrBlock is the largest member count an address block can carry
// without the low-octet counter wrapping into the OUI.
const MaxAddrBlock = 1 << addrBlockBits

// AddrAdd returns the i-th address of the block starting at base: the
// low three octets act as a 24-bit big-endian counter, the top three
// (the OUI) are untouched. Station numbers map to addresses this way,
// so a cohort of N members reserves N consecutive addresses.
func AddrAdd(base MACAddr, i int) MACAddr {
	v := uint32(base[3])<<16 | uint32(base[4])<<8 | uint32(base[5])
	v += uint32(i)
	base[3] = byte(v >> 16)
	base[4] = byte(v >> 8)
	base[5] = byte(v)
	return base
}

// AddrOffset returns the index addr would occupy in a block based at
// base (AddrAdd(base, off) == addr), or ok=false when the top octets
// differ or addr precedes base. The offset is computed in the 24-bit
// counter space, so it is only meaningful against a block that does not
// wrap (see MaxAddrBlock).
func AddrOffset(base, addr MACAddr) (off int, ok bool) {
	if base[0] != addr[0] || base[1] != addr[1] || base[2] != addr[2] {
		return 0, false
	}
	b := uint32(base[3])<<16 | uint32(base[4])<<8 | uint32(base[5])
	a := uint32(addr[3])<<16 | uint32(addr[4])<<8 | uint32(addr[5])
	if a < b {
		return 0, false
	}
	return int(a - b), true
}

// AID is an 802.11 Association ID assigned by an AP to a client.
// Valid AIDs are 1..2007; 0 is reserved (and used by the TIM bitmap's
// broadcast bit position).
type AID uint16

// MaxAID is the largest valid association ID (802.11-2012 §8.4.1.8).
const MaxAID AID = 2007

// Valid reports whether the AID is in the assignable range.
func (a AID) Valid() bool { return a >= 1 && a <= MaxAID }

// FrameType is the 2-bit Type field of the Frame Control field.
type FrameType uint8

// Frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// String returns the conventional name of the frame type.
func (t FrameType) String() string {
	switch t {
	case TypeManagement:
		return "management"
	case TypeControl:
		return "control"
	case TypeData:
		return "data"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Management frame subtypes used by this package.
const (
	SubtypeBeacon uint8 = 0b1000
	// SubtypeUDPPortMessage is the reserved management subtype (1111)
	// that HIDE assigns to the UDP Port Message (paper Figure 3).
	SubtypeUDPPortMessage uint8 = 0b1111
)

// Control frame subtypes used by this package.
const (
	SubtypePSPoll uint8 = 0b1010
	SubtypeACK    uint8 = 0b1101
)

// Data frame subtypes used by this package.
const (
	SubtypeData uint8 = 0b0000
)

// Information element IDs.
const (
	ElementIDSSID uint8 = 0
	ElementIDTIM  uint8 = 5
	// ElementIDOpenUDPPorts is the reserved element ID (200) HIDE
	// assigns to the Open UDP Ports element (paper §III-B).
	ElementIDOpenUDPPorts uint8 = 200
	// ElementIDBTIM is the reserved element ID (201) HIDE assigns to
	// the Broadcast Traffic Indication Map element (paper §III-D).
	ElementIDBTIM uint8 = 201
)

// Sizes of fixed wire structures in bytes.
const (
	// MACHeaderLen is the length of the 3-address MAC header used by
	// management and data frames here: Frame Control (2) + Duration (2)
	// + 3 addresses (18) + Sequence Control (2) = 24 bytes, i.e. the
	// 224 bits of Table II.
	MACHeaderLen = 24
	// ACKFrameLen is the length of an ACK control frame: Frame Control
	// (2) + Duration (2) + RA (6) + FCS (4).
	ACKFrameLen = 14
	// PSPollFrameLen is the length of a PS-Poll control frame: Frame
	// Control (2) + AID (2) + BSSID (6) + TA (6) + FCS (4).
	PSPollFrameLen = 20
	// FCSLen is the length of the frame check sequence. The simulator
	// accounts for it in airtime but does not append it to marshalled
	// bytes (frames are delivered intact or not at all).
	FCSLen = 4
)

// Common errors returned by frame and element decoders.
var (
	ErrShortFrame     = errors.New("dot11: frame too short")
	ErrBadFrameType   = errors.New("dot11: unexpected frame type/subtype")
	ErrElementTooLong = errors.New("dot11: information element exceeds 255 bytes")
	ErrBadElement     = errors.New("dot11: malformed information element")
)

// FrameControl is the 16-bit Frame Control field. Only the fields the
// HIDE system needs are modelled.
type FrameControl struct {
	Type     FrameType
	Subtype  uint8
	ToDS     bool
	FromDS   bool
	MoreData bool // AP: more buffered frames follow (paper Eq. 10's d_more)
	PwrMgmt  bool // station: entering power-save mode
	Retry    bool
}

// Marshal encodes the frame control field into two bytes.
func (fc FrameControl) Marshal() [2]byte {
	var b [2]byte
	b[0] = byte(fc.Type)<<2 | fc.Subtype<<4 // protocol version 0
	if fc.ToDS {
		b[1] |= 0x01
	}
	if fc.FromDS {
		b[1] |= 0x02
	}
	if fc.Retry {
		b[1] |= 0x08
	}
	if fc.PwrMgmt {
		b[1] |= 0x10
	}
	if fc.MoreData {
		b[1] |= 0x20
	}
	return b
}

// UnmarshalFrameControl decodes a frame control field.
func UnmarshalFrameControl(b [2]byte) FrameControl {
	return FrameControl{
		Type:     FrameType(b[0] >> 2 & 0x03),
		Subtype:  b[0] >> 4,
		ToDS:     b[1]&0x01 != 0,
		FromDS:   b[1]&0x02 != 0,
		Retry:    b[1]&0x08 != 0,
		PwrMgmt:  b[1]&0x10 != 0,
		MoreData: b[1]&0x20 != 0,
	}
}

// MACHeader is the 3-address MAC header shared by management and data
// frames in an infrastructure BSS.
type MACHeader struct {
	FC       FrameControl
	Duration uint16
	Addr1    MACAddr // receiver / destination
	Addr2    MACAddr // transmitter / source
	Addr3    MACAddr // BSSID (or DA/SA depending on ToDS/FromDS)
	Seq      uint16  // sequence control (seq<<4 | frag)
}

// marshalInto writes the header into b, which must have room for
// MACHeaderLen bytes.
func (h *MACHeader) marshalInto(b []byte) {
	fc := h.FC.Marshal()
	b[0], b[1] = fc[0], fc[1]
	putUint16(b[2:], h.Duration)
	copy(b[4:], h.Addr1[:])
	copy(b[10:], h.Addr2[:])
	copy(b[16:], h.Addr3[:])
	putUint16(b[22:], h.Seq)
}

// unmarshalMACHeader decodes a MAC header from the front of b.
func unmarshalMACHeader(b []byte) (MACHeader, error) {
	if len(b) < MACHeaderLen {
		return MACHeader{}, fmt.Errorf("%w: %d bytes for MAC header", ErrShortFrame, len(b))
	}
	return MACHeader{
		FC:       UnmarshalFrameControl([2]byte{b[0], b[1]}),
		Duration: getUint16(b[2:]),
		Addr1:    MACAddr(b[4:10]),
		Addr2:    MACAddr(b[10:16]),
		Addr3:    MACAddr(b[16:22]),
		Seq:      getUint16(b[22:]),
	}, nil
}

// Receiver returns a raw frame's receiver address, bytes 4–10: Addr1
// of management and data frames, the RA of an ACK, the BSSID of a
// PS-Poll. A frame too short to carry one reports false.
func Receiver(raw []byte) (MACAddr, bool) {
	if len(raw) < 10 {
		return MACAddr{}, false
	}
	return MACAddr(raw[4:10]), true
}

// Transmitter returns a raw frame's transmitter address, bytes 10–16:
// Addr2 of management and data frames, the TA of a PS-Poll. An ACK
// carries none, and neither does a frame too short to hold one.
func Transmitter(raw []byte) (MACAddr, bool) {
	if len(raw) < 16 || Classify(raw) == KindACK {
		return MACAddr{}, false
	}
	return MACAddr(raw[10:16]), true
}

// putUint16 writes v little-endian.
func putUint16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

// getUint16 reads a little-endian uint16.
func getUint16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}
