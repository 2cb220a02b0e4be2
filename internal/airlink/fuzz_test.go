package airlink

import (
	"net"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dot11"
	"repro/internal/netmedium"
	"repro/internal/sim"
)

// sinkConn is a PacketConn whose writes go nowhere but are counted per
// destination; the hub's per-datagram step and Transmit call nothing
// else.
type sinkConn struct {
	net.PacketConn
	sent map[netip.AddrPort]int
}

func (c *sinkConn) WriteTo(b []byte, to net.Addr) (int, error) {
	c.sent[netmedium.AddrPortOf(to)]++
	return len(b), nil
}

// FuzzHubDatagrams feeds arbitrary datagrams from a few sources to the
// hub's per-datagram step, interleaved with liveness sweeps. Input is
// a run of records: a header byte picks the source (low two bits) and
// asks for a sweep first (top bit), a length byte sizes the datagram.
// The hub must never panic; every frame's transmitter must be routed
// to the address it spoke from, unless the frame is its disassociation,
// which leaves it unrouted; each peer must hold exactly one address;
// and no evicted peer may still be routed.
func FuzzHubDatagrams(f *testing.F) {
	sources := [4]netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:40001"),
		netip.MustParseAddrPort("127.0.0.1:40002"),
		netip.MustParseAddrPort("[::1]:40001"),
		netip.MustParseAddrPort("10.0.0.7:9"),
	}
	record := func(src byte, m netmedium.Message) []byte {
		b, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte{src, byte(len(b))}, b...)
	}
	hdr := dot11.MACHeader{Addr1: bssid, Addr2: dot11.MACAddr{2, 0, 0, 0, 0, 1}, Addr3: bssid}
	frame, err := (&dot11.AssocRequest{Header: hdr}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	assoc := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: frame}
	for i, m := range []netmedium.Message{
		assoc,
		{Type: netmedium.MsgPing},
		{Type: netmedium.MsgPong},
		{Type: netmedium.MsgSubscribe},
		{Type: netmedium.MsgInject, Payload: []byte{0xe9, 0x14, 64, 0}},
	} {
		f.Add(record(byte(i), m))
	}
	ping := record(0x80, netmedium.Message{Type: netmedium.MsgPing})
	f.Add(append([]byte{0x80, 21}, ping[2:23]...)) // truncated header
	bye := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: (&dot11.Disassoc{Header: hdr}).Marshal()}
	f.Add(slices.Concat(record(0, assoc), record(0, bye))) // associate, then say goodbye

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &sinkConn{sent: make(map[netip.AddrPort]int)}
		hub := NewHub(conn, make(chan sim.Event))
		hub.SetLiveness(1)
		for len(data) >= 2 {
			h, n := data[0], min(int(data[1]), len(data)-2)
			from, dgram := sources[h&3], data[2:2+n]
			data = data[2+n:]
			if h&0x80 != 0 {
				for _, mac := range hub.PingPeers() {
					if _, ok := hub.Peers().Addr(mac); ok {
						t.Fatalf("evicted %v still has an address", mac)
					}
					if mac.IsMulticast() {
						continue // Transmit fans a group address out to every peer
					}
					clear(conn.sent)
					hub.Transmit(bssid, (&dot11.ACK{RA: mac}).AppendTo(nil), dot11.Rate1Mbps)
					if len(conn.sent) != 0 {
						t.Fatalf("evicted %v still routed: %v", mac, conn.sent)
					}
				}
			}
			hub.HandleDatagram(dgram, from)
			if m, err := netmedium.Unmarshal(dgram); err == nil && m.Type == netmedium.MsgFrame {
				if src, ok := dot11.Transmitter(m.Payload); ok {
					at, routed := hub.Peers().Addr(src)
					if dot11.Classify(m.Payload) == dot11.KindDisassoc {
						if routed {
							t.Fatalf("%v said goodbye from %v: still routed to %v", src, from, at)
						}
					} else if at != from {
						t.Fatalf("frame from %v at %v: routed to %v", src, from, at)
					}
				}
			}
			held := make(map[netip.AddrPort]bool)
			hub.Peers().Each(func(mac dot11.MACAddr, at netip.AddrPort) {
				if got, _ := hub.Peers().Addr(mac); got != at || held[at] {
					t.Fatalf("peer %v: listed at %v, routed to %v, address shared: %v", mac, at, got, held[at])
				}
				held[at] = true
			})
			if hub.Stats().Peers != len(held) {
				t.Fatalf("Stats().Peers = %d, table holds %d", hub.Stats().Peers, len(held))
			}
		}
		clear(conn.sent)
		hub.Transmit(bssid, broadcastBeacon(t), dot11.Rate1Mbps)
		n := 0
		hub.Peers().Each(func(_ dot11.MACAddr, at netip.AddrPort) {
			n++
			if conn.sent[at] != 1 {
				t.Fatalf("peer at %v sent %d copies of a group frame", at, conn.sent[at])
			}
		})
		if len(conn.sent) != n {
			t.Fatalf("group frame fanned out to %v, table holds %d peers", conn.sent, n)
		}
	})
}
