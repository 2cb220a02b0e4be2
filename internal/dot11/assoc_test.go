package dot11

import (
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func TestAssocRequestRoundTrip(t *testing.T) {
	req := &AssocRequest{
		Header:      MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr, Seq: 5 << 4},
		Capability:  0x0431,
		SSID:        "hide-net",
		HIDECapable: true,
		Ports:       []uint16{53, 5353, 17500},
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Classify(raw) != KindAssocRequest {
		t.Fatalf("Classify = %v", Classify(raw))
	}
	got, err := UnmarshalAssocRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.SSID != req.SSID || got.Capability != req.Capability {
		t.Errorf("fixed fields: %+v", got)
	}
	if !got.HIDECapable {
		t.Error("HIDE capability lost")
	}
	if len(got.Ports) != 3 || got.Ports[1] != 5353 {
		t.Errorf("ports = %v", got.Ports)
	}
}

func TestAssocRequestLegacy(t *testing.T) {
	req := &AssocRequest{
		Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		SSID:   "net",
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAssocRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.HIDECapable || got.Ports != nil {
		t.Errorf("legacy request decoded as HIDE: %+v", got)
	}
}

func TestAssocRequestEmptyPortSetStillHIDE(t *testing.T) {
	// A HIDE station with no open ports still declares capability via
	// a present, empty element.
	req := &AssocRequest{
		Header:      MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		HIDECapable: true,
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAssocRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HIDECapable {
		t.Error("empty-port HIDE request decoded as legacy")
	}
	if len(got.Ports) != 0 {
		t.Errorf("ports = %v, want empty", got.Ports)
	}
}

func TestAssocResponseRoundTrip(t *testing.T) {
	resp := &AssocResponse{
		Header:        MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr},
		Capability:    0x0401,
		Status:        StatusSuccess,
		AID:           1234,
		HIDESupported: true,
	}
	raw, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Classify(raw) != KindAssocResponse {
		t.Fatalf("Classify = %v", Classify(raw))
	}
	got, err := UnmarshalAssocResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.AID != 1234 || got.Status != StatusSuccess || !got.HIDESupported {
		t.Errorf("round trip: %+v", got)
	}
}

func TestAssocResponseFailureStatus(t *testing.T) {
	resp := &AssocResponse{
		Header: MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr},
		Status: StatusAPFull,
	}
	raw, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAssocResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusAPFull || got.HIDESupported {
		t.Errorf("failure response: %+v", got)
	}
}

func TestAssocWrongTypeRejected(t *testing.T) {
	resp := &AssocResponse{Header: MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr}}
	raw, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAssocRequest(raw); err == nil {
		t.Error("UnmarshalAssocRequest accepted a response")
	}
	req := &AssocRequest{Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}}
	raw2, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAssocResponse(raw2); err == nil {
		t.Error("UnmarshalAssocResponse accepted a request")
	}
}

func TestAssocRejectsBadElements(t *testing.T) {
	// Both decoders walk their elements with nextElement: a truncated
	// element header, or a body shorter than its length byte, after
	// well-formed elements is an error.
	hdr := MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}
	req, err := (&AssocRequest{Header: hdr, SSID: "net", HIDECapable: true, Ports: []uint16{53}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&AssocResponse{Header: hdr, AID: 1, HIDESupported: true}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{{5}, {5, 10, 1, 2}} {
		if _, err := UnmarshalAssocRequest(append(req[:len(req):len(req)], tail...)); !errors.Is(err, ErrBadElement) {
			t.Errorf("request ending % x: err = %v, want ErrBadElement", tail, err)
		}
		if _, err := UnmarshalAssocResponse(append(resp[:len(resp):len(resp)], tail...)); !errors.Is(err, ErrBadElement) {
			t.Errorf("response ending % x: err = %v, want ErrBadElement", tail, err)
		}
	}
}

func TestAssocRequestRoundTripProperty(t *testing.T) {
	f := func(cap uint16, ssid string, ports []uint16) bool {
		if len(ssid) > 32 {
			ssid = ssid[:32]
		}
		req := &AssocRequest{
			Header:      MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
			Capability:  cap,
			SSID:        ssid,
			HIDECapable: true,
			Ports:       ports,
		}
		raw, err := req.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalAssocRequest(raw)
		if err != nil {
			return false
		}
		if got.SSID != ssid || got.Capability != cap || len(got.Ports) != len(ports) {
			return false
		}
		for i := range ports {
			if got.Ports[i] != ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReassocRequestRoundTrip(t *testing.T) {
	req := &AssocRequest{
		Header:      MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr, Seq: 9 << 4},
		Reassoc:     true,
		Capability:  0x0431,
		CurrentAP:   MACAddr{0x02, 0x1d, 0xe0, 0x00, 0x00, 0x07},
		SSID:        "hide-ess",
		HIDECapable: true,
		Ports:       []uint16{53, 5353, 17500},
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Classify(raw) != KindReassocRequest {
		t.Fatalf("Classify = %v", Classify(raw))
	}
	got, err := UnmarshalAssocRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Reassoc {
		t.Error("reassociation subtype decoded as association")
	}
	if got.SSID != req.SSID || got.Capability != req.Capability {
		t.Errorf("fixed fields: %+v", got)
	}
	if got.CurrentAP != req.CurrentAP {
		t.Errorf("current AP = %v, want %v", got.CurrentAP, req.CurrentAP)
	}
	if !got.HIDECapable {
		t.Error("HIDE capability lost")
	}
	if len(got.Ports) != 3 || got.Ports[1] != 5353 {
		t.Errorf("ports = %v", got.Ports)
	}
}

func TestReassocRequestLegacy(t *testing.T) {
	req := &AssocRequest{
		Header:    MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		Reassoc:   true,
		CurrentAP: apAddr,
		SSID:      "net",
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAssocRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.HIDECapable || got.Ports != nil {
		t.Errorf("legacy request decoded as HIDE: %+v", got)
	}
}

func TestReassocResponseRoundTrip(t *testing.T) {
	resp := &AssocResponse{
		Header:        MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr},
		Reassoc:       true,
		Capability:    0x0401,
		Status:        StatusSuccess,
		AID:           1777,
		HIDESupported: true,
	}
	raw, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Classify(raw) != KindReassocResponse {
		t.Fatalf("Classify = %v", Classify(raw))
	}
	got, err := UnmarshalAssocResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Reassoc || got.AID != 1777 || got.Status != StatusSuccess || !got.HIDESupported {
		t.Errorf("round trip: %+v", got)
	}
}

// TestReassocWrongSubtypeRejected: association and reassociation
// frames overlap deliberately, so the subtype is the only
// discriminator. The one decoder per direction reads Reassoc from it,
// refuses the other direction's subtypes, and reads the Current AP
// field only from a reassociation request.
func TestReassocWrongSubtypeRejected(t *testing.T) {
	hdr := MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr}
	for _, reassoc := range []bool{false, true} {
		req, err := (&AssocRequest{Header: hdr, Reassoc: reassoc}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := (&AssocResponse{Header: hdr, Reassoc: reassoc}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if r, err := UnmarshalAssocRequest(req); err != nil || r.Reassoc != reassoc {
			t.Errorf("request reassoc=%v decoded as %+v, %v", reassoc, r, err)
		}
		if r, err := UnmarshalAssocResponse(resp); err != nil || r.Reassoc != reassoc {
			t.Errorf("response reassoc=%v decoded as %+v, %v", reassoc, r, err)
		}
		if _, err := UnmarshalAssocRequest(resp); err == nil {
			t.Errorf("UnmarshalAssocRequest accepted a response (reassoc=%v)", reassoc)
		}
		if _, err := UnmarshalAssocResponse(req); err == nil {
			t.Errorf("UnmarshalAssocResponse accepted a request (reassoc=%v)", reassoc)
		}
	}
	// An association request body, relabelled as a reassociation,
	// is too short to hold the Current AP field.
	raw, err := (&AssocRequest{Header: hdr}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw[0] |= SubtypeReassocRequest << 4
	if _, err := UnmarshalAssocRequest(raw); !errors.Is(err, ErrShortFrame) {
		t.Errorf("relabelled association request: err = %v, want %v", err, ErrShortFrame)
	}
}

func TestReassocRequestRoundTripProperty(t *testing.T) {
	f := func(cap uint16, cur [6]byte, ssid string, ports []uint16) bool {
		if len(ssid) > 32 {
			ssid = ssid[:32]
		}
		req := &AssocRequest{
			Header:      MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
			Reassoc:     true,
			Capability:  cap,
			CurrentAP:   MACAddr(cur),
			SSID:        ssid,
			HIDECapable: true,
			Ports:       ports,
		}
		raw, err := req.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalAssocRequest(raw)
		if err != nil {
			return false
		}
		if !got.Reassoc || got.SSID != ssid || got.Capability != cap || got.CurrentAP != MACAddr(cur) || len(got.Ports) != len(ports) {
			return false
		}
		for i := range ports {
			if got.Ports[i] != ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAssocFramesOnTheAir pins the wire image of the (re)association
// exchange: each frame must encode to its recorded bytes and decode
// with Reassoc set from the subtype alone. No other test records
// reassociation bytes, so this is what catches a moved Current AP
// field.
func TestAssocFramesOnTheAir(t *testing.T) {
	retry := FrameControl{Retry: true}
	for _, c := range []struct {
		name    string
		frame   interface{ Marshal() ([]byte, error) }
		hex     string
		reassoc bool
	}{
		{"HIDE association request", &AssocRequest{
			Header:     MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr, Seq: 5 << 4},
			Capability: 0x0431, SSID: "hide-net", HIDECapable: true, Ports: []uint16{53, 5353, 17500},
		}, "000000000200000000010200000000100200000000015000310400000008686964652d6e6574c8063500e9145c44", false},
		{"legacy association request", &AssocRequest{
			Header: MACHeader{FC: retry, Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr, Seq: 6 << 4},
			SSID:   "net",
		}, "0008000002000000000102000000001002000000000160000000000000036e6574", false},
		{"HIDE reassociation request", &AssocRequest{
			Header:  MACHeader{FC: retry, Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr, Seq: 9 << 4},
			Reassoc: true, Capability: 0x0431, CurrentAP: MACAddr{0x02, 0x1d, 0xe0, 0x00, 0x00, 0x07},
			SSID: "hide-ess", HIDECapable: true, Ports: []uint16{5353, 17500},
		}, "20080000020000000001020000000010020000000001900031040000021de00000070008686964652d657373c804e9145c44", true},
		{"HIDE association response", &AssocResponse{
			Header:     MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr, Seq: 3 << 4},
			Capability: 0x0401, Status: StatusSuccess, AID: 1234, HIDESupported: true,
		}, "10000000020000000010020000000001020000000001300001040000d2c4ca00", false},
		{"reassociation response", &AssocResponse{
			Header:  MACHeader{Addr1: c1Addr, Addr2: apAddr, Addr3: apAddr, Seq: 4 << 4},
			Reassoc: true, Capability: 0x0401, Status: StatusSuccess, AID: 1777, HIDESupported: true,
		}, "30000000020000000010020000000001020000000001400001040000f1c6ca00", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, err := c.frame.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(raw); got != c.hex {
				t.Fatalf("wire image\n got %s\nwant %s", got, c.hex)
			}
			var reassoc bool
			if _, ok := c.frame.(*AssocRequest); ok {
				r, err := UnmarshalAssocRequest(raw)
				if err != nil {
					t.Fatal(err)
				}
				reassoc = r.Reassoc
			} else {
				r, err := UnmarshalAssocResponse(raw)
				if err != nil {
					t.Fatal(err)
				}
				reassoc = r.Reassoc
			}
			if reassoc != c.reassoc {
				t.Errorf("decoded Reassoc = %v, want %v", reassoc, c.reassoc)
			}
		})
	}
}
