package medium

import (
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// benchSink is a no-op receiver tallying deliveries.
type benchSink struct{ n int }

func (s *benchSink) Receive(*Frame, time.Duration) { s.n++ }

// benchMedium builds a medium with one source and extra subscriber
// nodes attached, returning the engine, medium, and source address.
func benchMedium(subscribers int) (*sim.Engine, *Medium, dot11.MACAddr) {
	eng := sim.New()
	m := New(eng, 1)
	src := dot11.MACAddr{0x02, 0, 0, 0, 0, 0xfe}
	m.Attach(src, &benchSink{})
	for i := 0; i < subscribers; i++ {
		m.Attach(dot11.MACAddr{0x02, 0, 0, 0, 1, byte(i)}, &benchSink{})
	}
	return eng, m, src
}

// benchFrame marshals a representative broadcast data frame.
func benchFrame(dst dot11.MACAddr, src dot11.MACAddr) []byte {
	f := &dot11.DataFrame{
		Header: dot11.MACHeader{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: dst, Addr2: src, Addr3: src,
		},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 5353, Payload: make([]byte, 160)}),
	}
	return f.Marshal()
}

// BenchmarkBroadcastFanout measures one group-addressed transmission
// delivered to 16 subscribers — the per-DTIM flush hot path.
func BenchmarkBroadcastFanout(b *testing.B) {
	eng, m, src := benchMedium(16)
	frame := benchFrame(dot11.Broadcast, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(src, frame, dot11.Rate11Mbps)
		eng.Step()
	}
}

// BenchmarkUnicastDelivery measures one unicast transmission delivered
// to its single addressee among 16 attached nodes.
func BenchmarkUnicastDelivery(b *testing.B) {
	eng, m, src := benchMedium(16)
	dst := dot11.MACAddr{0x02, 0, 0, 0, 1, 3}
	frame := benchFrame(dst, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(src, frame, dot11.Rate11Mbps)
		eng.Step()
	}
}
