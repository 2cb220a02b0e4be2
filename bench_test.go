package hide

// This file is the benchmark harness for the paper's evaluation: one
// testing.B benchmark per table and figure, plus ablation benches for
// the design choices DESIGN.md calls out. Each figure bench reports
// the headline quantity as a custom metric so `go test -bench=.`
// regenerates the paper's numbers alongside timing data.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dcfsim"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/trace"
)

// BenchmarkTable1Profiles exercises the Table I device profiles: the
// validation path plus a model evaluation per profile.
func BenchmarkTable1Profiles(b *testing.B) {
	frames := []Arrival{{At: time.Second, Length: 200, Rate: Rate1Mbps, Wakelock: time.Second}}
	for i := 0; i < b.N; i++ {
		for _, dev := range Profiles {
			if _, err := ComputeEnergy(frames, dev, 10*time.Second, Overhead{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(NexusOne.PrW*1000, "nexus-Pr-mW")
	b.ReportMetric(GalaxyS4.PrW*1000, "s4-Pr-mW")
}

// BenchmarkTable2Config exercises the Table II DCF configuration via
// a model solve at 10 stations.
func BenchmarkTable2Config(b *testing.B) {
	cfg := TableII()
	for i := 0; i < b.N; i++ {
		if _, err := NetworkCapacity(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
	r, err := NetworkCapacity(cfg, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.CapacityBps/1e6, "S1-Mbps")
}

// BenchmarkFigure6TraceCDF regenerates the five scenario traces and
// their per-second volume CDFs.
func BenchmarkFigure6TraceCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range Scenarios {
			tr, err := GenerateTrace(s)
			if err != nil {
				b.Fatal(err)
			}
			c := NewCDFInts(tr.FramesPerSecond())
			_ = c.Mean()
		}
	}
	tr, err := GenerateTrace(WML)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tr.MeanFPS(), "WML-mean-fps")
}

// benchSuite runs the full Figure 7/8/9 evaluation for one device and
// reports the headline savings range.
func benchSuite(b *testing.B, dev Profile) {
	b.Helper()
	var s *Suite
	for i := 0; i < b.N; i++ {
		var err error
		s, err = RunSuiteContext(context.Background(), dev, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := s.SavingsRange(0)
	b.ReportMetric(lo*100, "save10-min-%")
	b.ReportMetric(hi*100, "save10-max-%")
	lo2, hi2 := s.SavingsRange(len(UsefulFractions) - 1)
	b.ReportMetric(lo2*100, "save2-min-%")
	b.ReportMetric(hi2*100, "save2-max-%")
}

// BenchmarkFigure7NexusOne regenerates Figure 7 (paper: HIDE:10% saves
// 34-75% on the Nexus One).
func BenchmarkFigure7NexusOne(b *testing.B) { benchSuite(b, NexusOne) }

// BenchmarkFigure8GalaxyS4 regenerates Figure 8 (paper: 18-78%).
func BenchmarkFigure8GalaxyS4(b *testing.B) { benchSuite(b, GalaxyS4) }

// BenchmarkFigure9SuspendFraction regenerates Figure 9's suspend
// fractions for the Nexus One.
func BenchmarkFigure9SuspendFraction(b *testing.B) {
	tr, err := GenerateTrace(Classroom)
	if err != nil {
		b.Fatal(err)
	}
	var row SuspendRow
	for i := 0; i < b.N; i++ {
		row, err = SuspendFractionsContext(context.Background(), tr, NexusOne, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ReceiveAll*100, "receive-all-%")
	b.ReportMetric(row.HIDE2*100, "HIDE2-%")
}

// BenchmarkFigure10Capacity regenerates Figure 10 (paper: 0.13% at
// N=50, p=75%).
func BenchmarkFigure10Capacity(b *testing.B) {
	cfg := TableII()
	for i := 0; i < b.N; i++ {
		if _, err := Figure10(cfg); err != nil {
			b.Fatal(err)
		}
	}
	params := hideCapacityWorstCase()
	c, err := CapacityOverhead(cfg, params, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c*100, "worst-case-%")
}

// hideCapacityWorstCase is the Figure 10 worst corner.
func hideCapacityWorstCase() CapacityParams {
	return CapacityParams{HIDEFraction: 0.75, PortMsgInterval: 10 * time.Second, PortsPerMsg: 50}
}

// BenchmarkFigure11DelayInterval regenerates Figure 11 (paper: 2.3% at
// 1/f = 10 s).
func BenchmarkFigure11DelayInterval(b *testing.B) {
	t := CalibratedARMTimings()
	for i := 0; i < b.N; i++ {
		if _, err := Figure11(t); err != nil {
			b.Fatal(err)
		}
	}
	d, err := DelayOverhead(DelayDefaults())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(d*100, "worst-case-%")
}

// BenchmarkFigure12DelayPorts regenerates Figure 12 (paper: <1.6% at
// n_o = 100).
func BenchmarkFigure12DelayPorts(b *testing.B) {
	t := CalibratedARMTimings()
	for i := 0; i < b.N; i++ {
		if _, err := Figure12(t); err != nil {
			b.Fatal(err)
		}
	}
	p := DelayDefaults()
	p.PortMsgInterval = 30 * time.Second
	p.OpenPorts = 100
	d, err := DelayOverhead(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(d*100, "worst-case-%")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationBTIMCompression compares the on-air size of the
// compressed partial virtual bitmap (Figure 5) against a full bitmap,
// for a sparse high-AID client population — the case the Offset field
// exists for.
func BenchmarkAblationBTIMCompression(b *testing.B) {
	var bm dot11.VirtualBitmap
	for aid := dot11.AID(1800); aid <= 1850; aid++ {
		bm.Set(aid)
	}
	var compressed int
	for i := 0; i < b.N; i++ {
		btim := dot11.BTIMFromBitmap(&bm)
		e, err := btim.Element()
		if err != nil {
			b.Fatal(err)
		}
		compressed = 2 + len(e.Body)
	}
	b.ReportMetric(float64(compressed), "compressed-bytes")
	b.ReportMetric(float64(2+1+251), "full-bitmap-bytes")
}

// BenchmarkAblationPortTable measures the AP's port-table refresh path
// (delete old ports + insert new ones), the cost Eq. 25 prices.
func BenchmarkAblationPortTable(b *testing.B) {
	tab := NewPortTable()
	ports := make([]uint16, 50)
	for i := range ports {
		ports[i] = uint16(1024 + i*7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Update(dot11.AID(1+i%50), ports)
	}
}

// BenchmarkAblationAlgorithm1 measures the per-DTIM flag computation
// as the AP runs it: one OrListeners per buffered frame's port, at the
// paper's n_f = 10 buffered frames and 50 clients.
func BenchmarkAblationAlgorithm1(b *testing.B) {
	tab := NewPortTable()
	for aid := dot11.AID(1); aid <= 50; aid++ {
		tab.Update(aid, []uint16{uint16(5000 + aid%10), 5353})
	}
	buffered := []uint16{5353, 5001, 5002, 5003, 5004, 5005, 5006, 5007, 5008, 5009}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var flags dot11.VirtualBitmap
		for _, port := range buffered {
			tab.OrListeners(port, &flags)
		}
	}
}

// BenchmarkAblationSyncInterval sweeps the port-message interval and
// reports the protocol overhead energy (Eq. 17): the knob trading
// freshness against energy.
func BenchmarkAblationSyncInterval(b *testing.B) {
	tr, err := GenerateTrace(Starbucks)
	if err != nil {
		b.Fatal(err)
	}
	p, err := policy.New(HIDE)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := policy.AppendArrivals(nil, p, tr, TagUniform(tr, 0.1, 1))
	if err != nil {
		b.Fatal(err)
	}
	intervals := []time.Duration{10 * time.Second, 60 * time.Second, 600 * time.Second}
	var last Breakdown
	for i := 0; i < b.N; i++ {
		for _, iv := range intervals {
			o := DefaultOverhead()
			o.PortMsgInterval = iv
			if last, err = ComputeEnergy(arr, NexusOne, tr.Duration, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(last.EoJ, "Eo-J-at-600s")
}

// BenchmarkAblationCombinedPolicy evaluates the future-work HIDE +
// client-side combination at 20% stale port tables against pure HIDE.
func BenchmarkAblationCombinedPolicy(b *testing.B) {
	tr, err := GenerateTrace(WRL)
	if err != nil {
		b.Fatal(err)
	}
	useful := TagUniform(tr, 0.1, 1)
	var hideJ, combJ float64
	for i := 0; i < b.N; i++ {
		h, err := EvaluateContext(context.Background(), tr, useful, NexusOne, HIDE, Options{})
		if err != nil {
			b.Fatal(err)
		}
		arr, err := policy.AppendArrivals(nil, policy.CombinedPolicy{Staleness: 0.2, Seed: 3}, tr, useful)
		if err != nil {
			b.Fatal(err)
		}
		cb, err := energy.Compute(arr, energy.Config{
			Device: NexusOne, Duration: tr.Duration, Overhead: energy.DefaultOverhead(),
		})
		if err != nil {
			b.Fatal(err)
		}
		hideJ, combJ = h.Breakdown.TotalJ(), cb.TotalJ()
	}
	b.ReportMetric(hideJ, "HIDE-J")
	b.ReportMetric(combJ, "combined-J")
}

// --- Hot-path micro benches ---

// BenchmarkBeaconMarshal measures beacon encoding with TIM + BTIM.
func BenchmarkBeaconMarshal(b *testing.B) {
	var bm dot11.VirtualBitmap
	bm.Set(3)
	bm.Set(40)
	btim := dot11.BTIMFromBitmap(&bm)
	beacon := &dot11.Beacon{
		Header:         dot11.MACHeader{Addr1: dot11.Broadcast},
		BeaconInterval: 100,
		SSID:           "bench",
		TIM:            &dot11.TIM{DTIMPeriod: 3, PartialBitmap: []byte{0}},
		BTIM:           &btim,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := beacon.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeaconRead measures what a station runs per beacon it
// hears: the in-place read of a DTIM beacon off the shared frame, then
// its TIM unicast and BTIM broadcast bit tests.
func BenchmarkBeaconRead(b *testing.B) {
	var bm dot11.VirtualBitmap
	bm.Set(3)
	btim := dot11.BTIMFromBitmap(&bm)
	beacon := &dot11.Beacon{
		Header:         dot11.MACHeader{Addr1: dot11.Broadcast},
		BeaconInterval: 100,
		SSID:           "bench",
		TIM:            &dot11.TIM{DTIMPeriod: 3, PartialBitmap: []byte{0}},
		BTIM:           &btim,
	}
	raw, err := beacon.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var r dot11.BeaconReading
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dot11.ReadBeacon(raw, &r); err != nil {
			b.Fatal(err)
		}
		if r.TIM.UnicastBuffered(3) || !r.BTIM.UsefulBroadcastBuffered(3) {
			b.Fatal("bit tests misread the beacon")
		}
	}
}

// BenchmarkDstUDPPort measures the header-only read of a broadcast
// frame body's destination UDP port.
func BenchmarkDstUDPPort(b *testing.B) {
	body := dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 5353, Payload: make([]byte, 100)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dot11.DstUDPPort(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyModel measures one full Section IV evaluation over a
// realistic 45-minute trace.
func BenchmarkEnergyModel(b *testing.B) {
	tr, err := GenerateTrace(WML)
	if err != nil {
		b.Fatal(err)
	}
	useful := TagUniform(tr, 0.1, 1)
	p, err := policy.New(policy.ReceiveAll)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := policy.AppendArrivals(nil, p, tr, useful)
	if err != nil {
		b.Fatal(err)
	}
	cfg := energy.Config{Device: NexusOne, Duration: tr.Duration}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := energy.Compute(arr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arr)), "frames")
}

// BenchmarkClientSideCell measures one client-side lower-bound cell of
// Figure 7: tagging, arrivals and the six-wakelock sweep over the same
// 45-minute trace at 10% useful frames.
func BenchmarkClientSideCell(b *testing.B) {
	tr, err := GenerateTrace(WML)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateFractionContext(ctx, tr, 0.1, NexusOne, ClientSide, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Frames)), "frames")
}

// BenchmarkProtocolSim measures the full protocol simulation: AP plus
// three stations replaying two minutes of trace over the emulated
// channel.
func BenchmarkProtocolSim(b *testing.B) {
	cfg := trace.GenConfig{
		Name: "bench", Duration: 2 * time.Minute, MeanFPS: 2,
		BurstFactor: 2, BurstFraction: 0.2, MeanFrameBytes: 200,
		MoreDataFraction: 0.3,
		Rates:            []dot11.Rate{dot11.Rate1Mbps},
		RateWeights:      []float64{1},
		Mix:              trace.DefaultPortMix(),
		Seed:             9,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(NetworkConfig{HIDE: true, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.AddStation(StationHIDE, []uint16{5353}); err != nil {
			b.Fatal(err)
		}
		if _, err := net.AddStation(StationLegacy, nil); err != nil {
			b.Fatal(err)
		}
		if err := net.Replay(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDTIMPeriod runs the protocol simulation across DTIM
// periods 1-3 (the paper's "typical values") and reports the HIDE
// station's energy for each: longer periods batch group traffic into
// fewer wake windows at the cost of delivery latency.
func BenchmarkAblationDTIMPeriod(b *testing.B) {
	cfg := trace.GenConfig{
		Name: "dtim-ablation", Duration: 2 * time.Minute, MeanFPS: 3,
		BurstFactor: 2, BurstFraction: 0.2, MeanFrameBytes: 200,
		MoreDataFraction: 0.3,
		Rates:            []dot11.Rate{dot11.Rate1Mbps},
		RateWeights:      []float64{1},
		Mix:              trace.DefaultPortMix(),
		Seed:             11,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	joules := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, period := range []int{1, 2, 3} {
			net, err := NewNetwork(NetworkConfig{HIDE: true, DTIMPeriod: period})
			if err != nil {
				b.Fatal(err)
			}
			st, err := net.AddStation(StationHIDE, []uint16{5353})
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Replay(tr); err != nil {
				b.Fatal(err)
			}
			e, err := net.StationEnergy(st, NexusOne, tr.Duration, true)
			if err != nil {
				b.Fatal(err)
			}
			joules[period] = e.TotalJ()
		}
	}
	b.ReportMetric(joules[1], "J-dtim1")
	b.ReportMetric(joules[3], "J-dtim3")
}

// BenchmarkAblationUnicastFilter compares AP-side unicast filtering
// (the paper's §I extension) against standard buffering for a station
// whose unicast traffic is mostly useless.
func BenchmarkAblationUnicastFilter(b *testing.B) {
	var filteredRx, plainRx float64
	for i := 0; i < b.N; i++ {
		for _, filter := range []bool{true, false} {
			net, err := NewNetwork(NetworkConfig{HIDE: true, FilterUnicast: filter})
			if err != nil {
				b.Fatal(err)
			}
			st, err := net.AddStation(StationHIDE, []uint16{4000})
			if err != nil {
				b.Fatal(err)
			}
			net.AP.Start()
			net.Engine.RunUntil(500 * time.Millisecond)
			addr := dot11.MACAddr{0x02, 0x1d, 0xe0, 0x01, 0x00, 0x01}
			for k := 0; k < 20; k++ {
				port := uint16(9000 + k) // all useless
				if k%10 == 0 {
					port = 4000 // 10% useful
				}
				if err := net.AP.EnqueueUnicast(addr, dot11.UDPDatagram{DstPort: port}, dot11.Rate11Mbps); err != nil {
					b.Fatal(err)
				}
				net.Engine.RunUntil(net.Engine.Now() + 2*time.Second)
			}
			if filter {
				filteredRx = float64(st.Stats().UnicastReceived)
			} else {
				plainRx = float64(st.Stats().UnicastReceived)
			}
		}
	}
	b.ReportMetric(filteredRx, "rx-filtered")
	b.ReportMetric(plainRx, "rx-plain")
}

// BenchmarkAblationListenInterval sweeps the 802.11 listen interval on
// the live protocol sim: fewer beacon wake-ups (lower Eb) against
// missed DTIM indications (lost useful frames).
func BenchmarkAblationListenInterval(b *testing.B) {
	cfg := trace.GenConfig{
		Name: "li-ablation", Duration: 2 * time.Minute, MeanFPS: 2,
		BurstFactor: 2, BurstFraction: 0.2, MeanFrameBytes: 200,
		MoreDataFraction: 0.3,
		Rates:            []dot11.Rate{dot11.Rate1Mbps},
		RateWeights:      []float64{1},
		Mix:              trace.DefaultPortMix(),
		Seed:             13,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	results := map[int]float64{}
	received := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, li := range []int{1, 3, 10} {
			net, err := NewNetwork(NetworkConfig{HIDE: true})
			if err != nil {
				b.Fatal(err)
			}
			st, err := net.AddStationListenInterval(StationHIDE, []uint16{5353}, li)
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Replay(tr); err != nil {
				b.Fatal(err)
			}
			e, err := net.StationEnergy(st, NexusOne, tr.Duration, true)
			if err != nil {
				b.Fatal(err)
			}
			results[li] = e.TotalJ()
			received[li] = st.Stats().GroupUseful
		}
	}
	b.ReportMetric(results[1], "J-li1")
	b.ReportMetric(results[10], "J-li10")
	b.ReportMetric(float64(received[1]), "useful-li1")
	b.ReportMetric(float64(received[10]), "useful-li10")
}

// BenchmarkScaleClients runs the beyond-the-paper population-scaling
// experiment: BTIM bytes per beacon and mean per-station energy as the
// HIDE population grows.
func BenchmarkScaleClients(b *testing.B) {
	var pts []core.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.DefaultScaleClients(NexusOne)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].BTIMBytesPerBeacon, "btimB-n1")
	b.ReportMetric(pts[len(pts)-1].BTIMBytesPerBeacon, "btimB-n40")
	b.ReportMetric(pts[len(pts)-1].MeanStationJ, "J-per-station-n40")
}

// BenchmarkDCFValidation measures the slotted CSMA/CA Monte-Carlo
// simulator against the Bianchi fixed point at N=20 (the Figure 10
// substrate validation).
func BenchmarkDCFValidation(b *testing.B) {
	cfg := TableII()
	var relErr float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, relErr, err = dcfsim.ValidateAgainstBianchi(cfg, 20, 10*time.Second, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(relErr*100, "model-error-%")
}

// BenchmarkRunSuiteWorkers measures the parallel evaluation engine's
// scaling on the full Figure 7/8/9 suite: the same five per-trace
// jobs at 1, 2, and 4 workers and at GOMAXPROCS (workers 0). On a
// single-CPU host all variants degenerate to sequential throughput;
// the sub-benchmark ratios show the engine's scheduling overhead is
// negligible in that case.
func BenchmarkRunSuiteWorkers(b *testing.B) {
	// Warm the shared trace cache so every variant measures pure
	// evaluation, not first-touch trace generation.
	if _, err := RunSuiteContext(context.Background(), NexusOne, Options{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		name := "workers=gomaxprocs"
		if workers > 0 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunSuiteContext(context.Background(), NexusOne, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStationsMillion replays a 2-minute WRL trace against 10⁶
// HIDE clients, each port class folded into one aggregate cohort
// station (DESIGN.md §9). The WindowWorkers
// sub-benchmarks run the same population through the windowed-parallel
// assembly (DESIGN.md §13); inspect their worker fan-out with
// `go test -run '^$' -bench 'StationsMillion/window' -trace w.out .`
// and `go tool trace w.out`.
func BenchmarkStationsMillion(b *testing.B) {
	cfg := ScenarioConfig(WRL)
	cfg.Duration = 2 * time.Minute
	tr, err := GenerateTraceConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"window=1", 1}, {"window=2", 2}, {"window=4", 4}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := core.ScaleClientsNetwork(core.NetworkConfig{}, tr, NexusOne, []int{1_000_000},
					core.Options{Cohort: 1 << 30, WindowWorkers: v.workers})
				if err != nil {
					b.Fatal(err)
				}
				if pts[0].N != 1_000_000 {
					b.Fatalf("scaled %d clients, want 1000000", pts[0].N)
				}
			}
		})
	}
}
