package main

import (
	"strings"
	"testing"

	"repro/internal/dot11"
	"repro/internal/netmedium"
)

// TestDescribeNamesEveryKind: frames without a dedicated decoder line
// print their frame-kind name, never "unknown".
func TestDescribeNamesEveryKind(t *testing.T) {
	hdr := dot11.MACHeader{Addr1: dot11.MACAddr{2, 0, 0, 0, 0, 1}, Addr2: dot11.MACAddr{2, 0, 0, 0, 0, 2}}
	frame := func(m interface{ Marshal() ([]byte, error) }) []byte {
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for want, raw := range map[string][]byte{
		"assoc-request":    frame(&dot11.AssocRequest{Header: hdr}),
		"reassoc-request":  frame(&dot11.AssocRequest{Header: hdr, Reassoc: true}),
		"assoc-response":   frame(&dot11.AssocResponse{Header: hdr}),
		"reassoc-response": frame(&dot11.AssocResponse{Header: hdr, Reassoc: true}),
		"disassoc":         (&dot11.Disassoc{Header: hdr}).Marshal(),
	} {
		if got := describe(netmedium.FrameEvent{Raw: raw}); !strings.HasSuffix(got, " "+want) {
			t.Errorf("describe(%s) = %q", want, got)
		}
	}
}

// TestDescribeDecodedFrames pins the lines of the frames hidetap
// decodes: a beacon's TIM and BTIM, a port message's ports, and a
// broadcast data frame's UDP port.
func TestDescribeDecodedFrames(t *testing.T) {
	ap := dot11.MACAddr{2, 0, 0, 0, 0, 1}
	var bm dot11.VirtualBitmap
	bm.Set(3)
	btim := dot11.BTIMFromBitmap(&bm)
	beacon, err := (&dot11.Beacon{
		Header: dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: ap, Addr3: ap},
		SSID:   "hide",
		TIM:    &dot11.TIM{DTIMCount: 0, DTIMPeriod: 3, Broadcast: true},
		BTIM:   &btim,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg := (&dot11.UDPPortMessage{Header: dot11.MACHeader{Addr1: ap, Addr2: dot11.MACAddr{2, 0, 0, 0, 0, 2}}, Ports: []uint16{53, 5353}}).AppendTo(nil)
	data := (&dot11.DataFrame{
		Header:  dot11.MACHeader{FC: dot11.FrameControl{FromDS: true, MoreData: true}, Addr1: dot11.Broadcast, Addr2: ap},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 1900, Payload: make([]byte, 8)}),
	}).Marshal()
	for _, c := range []struct {
		raw  []byte
		want string
	}{
		{beacon, `beacon ssid="hide" dtim=0/3 bc=true btim[off=0,1B]`},
		{msg, "udp-port-message from 02:00:00:00:00:02: 2 ports [53 5353]"},
		{data, "data broadcast udp/1900 more=true"},
		{data[:len(data)-1], "data broadcast"},
		{beacon[:30], "beacon (malformed)"},
	} {
		if got := describe(netmedium.FrameEvent{Raw: c.raw}); !strings.HasSuffix(got, "B "+c.want) {
			t.Errorf("describe = %q, want it to end %q", got, c.want)
		}
	}
}
