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
