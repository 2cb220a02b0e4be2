package station

import (
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

// BenchmarkBeaconFanout measures one DTIM beacon of a HIDE AP delivered
// to 200 associated, suspended HIDE stations, the fan-out every beacon
// of a 200-station BSS makes: the AP patches its cached beacon, the
// medium reads the frame, and each station tests its TIM and BTIM
// bits. One op is one beacon interval of the engine, which holds
// nothing else.
func BenchmarkBeaconFanout(b *testing.B) {
	const stations = 200
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "bench", HIDE: true, DTIMPeriod: 1})
	sts := make([]*Station, stations)
	for i := range sts {
		st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 1, byte(i >> 8), byte(i)}, BSSID: bssid, Mode: HIDE})
		st.OpenPort(5353)
		aid, err := a.Associate(st.Addr(), true)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Join(aid); err != nil {
			b.Fatal(err)
		}
		sts[i] = st
	}
	a.Start()
	eng.RunUntil(2 * time.Second)
	for _, st := range sts {
		if !st.Suspended() || !st.Synced() {
			b.Fatal("a station is awake or unsynced after the handshake")
		}
	}
	start, heard := eng.Now(), sts[stations-1].Stats().BeaconsHeard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(start + time.Duration(i+1)*dot11.DefaultBeaconInterval)
	}
	b.StopTimer()
	if got := sts[stations-1].Stats().BeaconsHeard - heard; got != b.N {
		b.Fatalf("the last station heard %d beacons in %d intervals", got, b.N)
	}
}
