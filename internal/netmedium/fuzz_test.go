package netmedium

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dot11"
)

// FuzzMessageCodec fuzzes both codec directions: arbitrary datagrams
// must never panic Unmarshal, and anything that decodes must re-encode
// to the identical datagram (the codec is canonical).
func FuzzMessageCodec(f *testing.F) {
	seed, err := Message{Type: MsgFrame, At: time.Second, Rate: dot11.Rate11Mbps, Payload: []byte{1, 2, 3}}.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if len(m.Payload) > maxFrameLen {
			t.Fatalf("Unmarshal accepted %d-byte payload", len(m.Payload))
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("re-encoding a decoded message failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("codec not canonical:\n in %x\nout %x", data, out)
		}
	})
}

// sinkConn is a PacketConn whose writes go nowhere but are counted per
// destination; the servers' per-datagram steps call nothing else.
type sinkConn struct {
	net.PacketConn
	sent map[netip.AddrPort]int
}

func (c *sinkConn) WriteTo(b []byte, to net.Addr) (int, error) {
	c.sent[AddrPortOf(to)]++
	return len(b), nil
}

// datagramSeeds are fuzz seeds for the servers' datagram handling, one
// per message kind a peer sends plus a truncated header, each from its
// own source.
func datagramSeeds(f *testing.F) {
	f.Helper()
	frame, err := (&dot11.AssocRequest{Header: dot11.MACHeader{Addr2: dot11.MACAddr{2, 0, 0, 0, 0, 1}}}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	msgs := []Message{
		{Type: MsgFrame, Rate: dot11.Rate1Mbps, Payload: frame},
		{Type: MsgPing},
		{Type: MsgPong},
		{Type: MsgSubscribe},
		{Type: MsgInject, Payload: InjectRequest{DstPort: 5353, PayloadSize: 64}.marshal()},
	}
	for i, m := range msgs {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(i), byte(len(b))}, b...))
	}
	ping, _ := Message{Type: MsgPing}.Marshal()
	f.Add(append([]byte{0x80, headerLen - 1}, ping[:headerLen-1]...))
}

// fuzzSources are the few source addresses fuzzed datagrams come from.
var fuzzSources = [4]netip.AddrPort{
	netip.MustParseAddrPort("127.0.0.1:40001"),
	netip.MustParseAddrPort("127.0.0.1:40002"),
	netip.MustParseAddrPort("[::1]:40001"),
	netip.MustParseAddrPort("10.0.0.7:9"),
}

// splitDatagrams cuts fuzz input into (source, datagram, sweep first)
// records: a header byte picks the source (low two bits) and asks for
// a liveness sweep before the datagram (top bit), a length byte sizes
// the datagram.
func splitDatagrams(data []byte, fn func(from netip.AddrPort, dgram []byte, sweep bool)) {
	for len(data) >= 2 {
		h, n := data[0], int(data[1])
		data = data[2:]
		n = min(n, len(data))
		fn(fuzzSources[h&3], data[:n], h&0x80 != 0)
		data = data[n:]
	}
}

// FuzzServerDatagrams feeds arbitrary datagrams from a few sources to
// the monitor server's per-datagram step, interleaved with liveness
// sweeps. It must never panic, the tap table must stay consistent, and
// frames must be published to exactly the taps it holds.
func FuzzServerDatagrams(f *testing.F) {
	datagramSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &sinkConn{sent: make(map[netip.AddrPort]int)}
		srv := NewServer(conn, nil, func(InjectRequest) {})
		splitDatagrams(data, func(from netip.AddrPort, dgram []byte, sweep bool) {
			if sweep {
				srv.PingPeers()
			}
			srv.HandleDatagram(dgram, from)
			if err := srv.peers.check(); err != nil {
				t.Fatal(err)
			}
		})
		clear(conn.sent)
		srv.Publish([]byte{0x80, 0}, dot11.Rate1Mbps, 0)
		n := 0
		srv.peers.Each(func(_, addr netip.AddrPort) {
			n++
			if conn.sent[addr] != 1 {
				t.Fatalf("tap %v sent %d copies of the frame", addr, conn.sent[addr])
			}
		})
		if len(conn.sent) != n || srv.Stats().Peers != n {
			t.Fatalf("frame published to %v, table holds %d taps", conn.sent, n)
		}
	})
}
