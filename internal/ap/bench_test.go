package ap

import (
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

// benchAP builds a HIDE AP with clients associated and port-table
// entries registered, its beacon loop started.
func benchAP(clients int, dtimPeriod int) (*sim.Engine, *AP) {
	eng := sim.New()
	med := medium.New(eng, 1)
	a := New(eng, med, Config{
		BSSID:      dot11.MACAddr{0x02, 0x1d, 0xe0, 0, 0, 1},
		SSID:       "bench",
		HIDE:       true,
		DTIMPeriod: dtimPeriod,
	})
	for i := 0; i < clients; i++ {
		addr := dot11.MACAddr{0x02, 0x1d, 0xe0, 0, 1, byte(i)}
		aid, err := a.Associate(addr, true)
		if err != nil {
			panic(err)
		}
		a.Table().Update(aid, []uint16{5353, uint16(6000 + i)})
	}
	a.Start()
	return eng, a
}

// BenchmarkBeaconIdleDTIM measures one idle DTIM beacon: 20 HIDE
// clients with registered ports, no buffered traffic. Every beacon is
// a DTIM (period 1), so this is the recurring AP cost the paper's
// Section V overhead analysis wants kept small.
func BenchmarkBeaconIdleDTIM(b *testing.B) {
	eng, a := benchAP(20, 1)
	interval := a.cfg.BeaconInterval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(time.Duration(i+1) * interval)
	}
	if a.Stats().BeaconsSent < b.N {
		b.Fatalf("sent %d beacons, want >= %d", a.Stats().BeaconsSent, b.N)
	}
}

// BenchmarkBeaconBusyDTIM measures a DTIM with buffered group traffic:
// the BTIM is recomputed via Algorithm 1 and the frames flush.
func BenchmarkBeaconBusyDTIM(b *testing.B) {
	eng, a := benchAP(20, 1)
	interval := a.cfg.BeaconInterval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate11Mbps)
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 9999}, dot11.Rate11Mbps)
		eng.RunUntil(time.Duration(i+1) * interval)
	}
}
