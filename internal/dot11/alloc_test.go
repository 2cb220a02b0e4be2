package dot11

import (
	"bytes"
	"slices"
	"testing"
)

// These tests pin the in-place readers and append encoders of the
// frames every station and AP handles in steady state at zero
// allocations: a data frame read into a caller's DataFrame, a port
// message read into a warm scratch slice, and a port message and an
// ACK encoded into warm buffers.

func TestAllocBudgetReadDataFrame(t *testing.T) {
	raw := (&DataFrame{
		Header:  MACHeader{FC: FrameControl{FromDS: true}, Addr1: Broadcast, Addr2: apAddr, Addr3: apAddr},
		Payload: EncapsulateUDP(UDPDatagram{DstPort: 5353, Payload: make([]byte, 64)}),
	}).Marshal()
	var d DataFrame
	allocs := testing.AllocsPerRun(200, func() {
		if err := ReadDataFrame(raw, &d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadDataFrame: %.1f allocs/op, want 0", allocs)
	}
	if len(d.Payload) == 0 || &d.Payload[0] != &raw[MACHeaderLen] {
		t.Fatal("ReadDataFrame payload does not alias the frame")
	}
}

func TestAllocBudgetPortMessageRoundTrip(t *testing.T) {
	m := UDPPortMessage{
		Header: MACHeader{Addr1: apAddr, Addr2: c1Addr, Addr3: apAddr},
		Ports:  []uint16{53, 137, 1900, 5353},
	}
	ack := ACK{RA: c1Addr}
	var buf, ackBuf []byte
	var ports []uint16
	roundTrip := func() {
		buf = m.AppendTo(buf[:0])
		var err error
		if _, ports, err = ReadUDPPortMessage(buf, ports); err != nil {
			t.Fatal(err)
		}
		ackBuf = ack.AppendTo(ackBuf[:0])
	}
	roundTrip() // warm the three buffers
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("warm port-message encode, read and ACK encode: %.1f allocs/op, want 0", allocs)
	}
	if !bytes.Equal(buf, m.AppendTo(nil)) || !bytes.Equal(ackBuf, ack.AppendTo(nil)) {
		t.Fatal("encoding into a warm buffer differs from encoding into a fresh one")
	}
	if !slices.Equal(ports, m.Ports) {
		t.Fatalf("read %v, want %v", ports, m.Ports)
	}
}
