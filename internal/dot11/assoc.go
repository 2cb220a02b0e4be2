package dot11

import "fmt"

// Association management frames. HIDE piggybacks on the standard
// association exchange: a HIDE-capable station includes an Open UDP
// Ports element in its association request, which both declares BTIM
// support and seeds the AP's Client UDP Port Table before the first
// suspend. Legacy stations omit the element and get standard
// treatment.
//
// Reassociation (subtypes 0010/0011) is the same exchange, made by a
// station moving between APs of one ESS: the request adds a Current AP
// field naming the AP the station leaves, so the distribution system
// can migrate its state, and the response differs only in its subtype.
// One codec serves each direction, and its Reassoc field is the
// subtype.

// Management subtypes for the (re)association exchange.
const (
	SubtypeAssocRequest    uint8 = 0b0000
	SubtypeAssocResponse   uint8 = 0b0001
	SubtypeReassocRequest  uint8 = 0b0010
	SubtypeReassocResponse uint8 = 0b0011
)

// Association status codes (802.11 table 8-37 subset).
const (
	StatusSuccess         uint16 = 0
	StatusUnspecifiedFail uint16 = 1
	StatusAPFull          uint16 = 17
)

// AssocRequest is an association or reassociation request. Ports being
// non-nil marks the station HIDE-capable (a zero-length open set is
// expressed as a present, empty element).
type AssocRequest struct {
	Header     MACHeader
	Capability uint16
	SSID       string
	// Ports is the initial open UDP port set; nil means the station is
	// a legacy (non-HIDE) client.
	Ports []uint16
	// HIDECapable marks the station as understanding BTIM elements.
	// Set implicitly when Ports is non-nil.
	HIDECapable bool
	// Reassoc marks a reassociation request (subtype 0010), the only
	// kind that carries CurrentAP.
	Reassoc bool
	// CurrentAP names the AP a reassociating station is roaming away
	// from.
	CurrentAP MACAddr
}

// assocReqFixedLen is capability (2) + listen interval (2); a
// reassociation request follows it with the current AP address (6).
const assocReqFixedLen = 4

// fixedLen is the length of the request body before its elements.
func (r *AssocRequest) fixedLen() int {
	if r.Reassoc {
		return assocReqFixedLen + len(r.CurrentAP)
	}
	return assocReqFixedLen
}

// Marshal encodes the request with the subtype Reassoc selects.
func (r *AssocRequest) Marshal() ([]byte, error) {
	hdr := r.Header
	hdr.FC.Type = TypeManagement
	hdr.FC.Subtype = SubtypeAssocRequest
	if r.Reassoc {
		hdr.FC.Subtype = SubtypeReassocRequest
	}
	fixed := r.fixedLen()
	out := make([]byte, MACHeaderLen+fixed, MACHeaderLen+fixed+32)
	hdr.marshalInto(out)
	p := out[MACHeaderLen:]
	putUint16(p, r.Capability)
	if r.Reassoc {
		copy(p[assocReqFixedLen:], r.CurrentAP[:])
	}
	var err error
	if out, err = (Element{ID: ElementIDSSID, Body: []byte(r.SSID)}).AppendTo(out); err != nil {
		return nil, err
	}
	if r.HIDECapable || r.Ports != nil {
		out = appendPortElements(out, r.Ports)
	}
	return out, nil
}

// UnmarshalAssocRequest decodes an association or reassociation
// request; Reassoc reports which subtype it carried.
func UnmarshalAssocRequest(raw []byte) (*AssocRequest, error) {
	hdr, err := unmarshalMACHeader(raw)
	if err != nil {
		return nil, err
	}
	if hdr.FC.Type != TypeManagement || (hdr.FC.Subtype != SubtypeAssocRequest && hdr.FC.Subtype != SubtypeReassocRequest) {
		return nil, fmt.Errorf("%w: %v/%d, want (re)assoc request", ErrBadFrameType, hdr.FC.Type, hdr.FC.Subtype)
	}
	r := &AssocRequest{Header: hdr, Reassoc: hdr.FC.Subtype == SubtypeReassocRequest}
	fixed := r.fixedLen()
	if len(raw) < MACHeaderLen+fixed {
		return nil, fmt.Errorf("%w: %d bytes for %v", ErrShortFrame, len(raw), Classify(raw))
	}
	p := raw[MACHeaderLen:]
	r.Capability = getUint16(p)
	if r.Reassoc {
		copy(r.CurrentAP[:], p[assocReqFixedLen:])
	}
	for rest := p[fixed:]; len(rest) > 0; {
		var e Element
		if e, rest, err = nextElement(rest); err != nil {
			return nil, err
		}
		switch e.ID {
		case ElementIDSSID:
			r.SSID = string(e.Body)
		case ElementIDOpenUDPPorts:
			r.HIDECapable = true
			if r.Ports == nil {
				r.Ports = []uint16{}
			}
			if r.Ports, err = appendPorts(r.Ports, e.Body); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// AssocResponse is an association or reassociation response; both
// carry the same body.
type AssocResponse struct {
	Header MACHeader
	// Reassoc marks a reassociation response (subtype 0011).
	Reassoc    bool
	Capability uint16
	Status     uint16
	AID        AID
	// HIDESupported tells the station the AP will send BTIM elements.
	HIDESupported bool
}

// assocRespFixedLen is capability (2) + status (2) + AID (2).
const assocRespFixedLen = 6

// hideSupportElementID flags AP-side HIDE support in the response.
const hideSupportElementID uint8 = 202

// Marshal encodes the response with the subtype Reassoc selects.
func (r *AssocResponse) Marshal() ([]byte, error) {
	hdr := r.Header
	hdr.FC.Type = TypeManagement
	hdr.FC.Subtype = SubtypeAssocResponse
	if r.Reassoc {
		hdr.FC.Subtype = SubtypeReassocResponse
	}
	out := make([]byte, MACHeaderLen+assocRespFixedLen, MACHeaderLen+assocRespFixedLen+4)
	hdr.marshalInto(out)
	p := out[MACHeaderLen:]
	putUint16(p, r.Capability)
	putUint16(p[2:], r.Status)
	putUint16(p[4:], uint16(r.AID)|0xc000)
	if r.HIDESupported {
		var err error
		if out, err = (Element{ID: hideSupportElementID}).AppendTo(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalAssocResponse decodes an association or reassociation
// response; Reassoc reports which subtype it carried.
func UnmarshalAssocResponse(raw []byte) (*AssocResponse, error) {
	hdr, err := unmarshalMACHeader(raw)
	if err != nil {
		return nil, err
	}
	if hdr.FC.Type != TypeManagement || (hdr.FC.Subtype != SubtypeAssocResponse && hdr.FC.Subtype != SubtypeReassocResponse) {
		return nil, fmt.Errorf("%w: %v/%d, want (re)assoc response", ErrBadFrameType, hdr.FC.Type, hdr.FC.Subtype)
	}
	if len(raw) < MACHeaderLen+assocRespFixedLen {
		return nil, fmt.Errorf("%w: %d bytes for %v", ErrShortFrame, len(raw), Classify(raw))
	}
	p := raw[MACHeaderLen:]
	r := &AssocResponse{
		Header:     hdr,
		Reassoc:    hdr.FC.Subtype == SubtypeReassocResponse,
		Capability: getUint16(p),
		Status:     getUint16(p[2:]),
		AID:        AID(getUint16(p[4:]) &^ 0xc000),
	}
	for rest := p[assocRespFixedLen:]; len(rest) > 0; {
		var e Element
		if e, rest, err = nextElement(rest); err != nil {
			return nil, err
		}
		if e.ID == hideSupportElementID {
			r.HIDESupported = true
		}
	}
	return r, nil
}
