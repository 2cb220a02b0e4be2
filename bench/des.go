package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/ess"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/station"
	"repro/internal/trace"
)

// scaleTrace generates the first 2 minutes of scenario s's calibrated
// trace, and the host time it took. The trace keeps the scenario's own
// seed whatever the run's seed: a 2-minute trace's frame count varies by
// about 20% between generator seeds, which would swamp the run-to-run
// comparison, so the run's seed drives the protocol's randomness (loss
// draws, refresh jitter, backoff, roaming) instead.
func scaleTrace(s trace.Scenario) (*trace.Trace, float64, error) {
	cfg := trace.ScenarioConfig(s)
	cfg.Duration = 2 * time.Minute
	t := wallNow()
	tr, err := trace.Generate(cfg)
	return tr, ms(since(t)), err
}

// scaleWorkload is a core.ScaleClientsNetwork op at one population.
type scaleWorkload struct {
	tr   *trace.Trace
	net  core.NetworkConfig
	n    int
	opts core.Options
}

// op runs the population through core's scaling entry point.
func (w *scaleWorkload) op() (any, error) {
	pts, err := core.ScaleClientsNetwork(w.net, w.tr, energy.NexusOne, []int{w.n}, w.opts)
	if err != nil {
		return nil, err
	}
	return pts[0], nil
}

// setupBSS is bss-200: 200 HIDE stations, each modelled individually, on
// a hardened lossy BSS replaying 2 minutes of WRL.
func setupBSS(seed uint64, _ string) (*instance, error) {
	tr, gen, err := scaleTrace(trace.WRL)
	if err != nil {
		return nil, err
	}
	w := &scaleWorkload{
		tr: tr, n: 200,
		net: core.NetworkConfig{HIDE: true, Harden: true, RefreshJitter: 1, Loss: 0.02, Seed: seed},
	}
	return &instance{op: w.op, traced: w.traced, genMS: gen}, nil
}

// setupPopulation is pop-1m: 10⁶ HIDE clients, each port class folded
// into one cohort, replaying 2 minutes of WRL.
func setupPopulation(seed uint64, _ string) (*instance, error) {
	tr, gen, err := scaleTrace(trace.WRL)
	if err != nil {
		return nil, err
	}
	w := &scaleWorkload{
		tr: tr, n: 1_000_000,
		net:  core.NetworkConfig{HIDE: true, Seed: seed},
		opts: core.Options{Cohort: 1 << 30},
	}
	return &instance{op: w.op, traced: w.traced, curves: w.windowCurves, genMS: gen}, nil
}

// windowCurves times the same op through the windowed-parallel assembly
// at 1 and 2 window workers, against the serial op's median p50.
func (w *scaleWorkload) windowCurves(p50 float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, k := range []int{1, 2} {
		v := *w
		v.opts.WindowWorkers = k
		t, err := medianOf(3, func() error {
			_, err := v.op()
			return err
		})
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("core.window.op_ms_w%d", k)] = t
	}
	out["core.window.speedup_w2"] = ratio(p50, out["core.window.op_ms_w2"])
	return out, nil
}

// traced rebuilds the op from the public calls ScaleClientsNetwork makes
// — NewNetwork, AddStation or AddCohort per port class, ScheduleReplay,
// and the engine run Replay performs — with every event stamped, then
// recomputes the ScalePoint and checks it equals the untraced op's.
func (w *scaleWorkload) traced(want any) (map[string]float64, error) {
	l := layers{}
	ports := sortedPorts(w.tr)
	t := wallNow()
	cfg := w.net
	cfg.HIDE = true
	net, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	st := stampNetwork(net)
	var stations []*station.Station
	var cohorts []*station.CohortStation
	if w.opts.Cohort <= 1 {
		for i := 0; i < w.n; i++ {
			s, err := net.AddStation(station.HIDE, []uint16{ports[i%len(ports)]})
			if err != nil {
				return nil, err
			}
			stations = append(stations, s)
		}
	} else {
		for i, p := range ports {
			size := w.n / len(ports)
			if i < w.n%len(ports) {
				size++
			}
			for off := 0; off < size; off += w.opts.Cohort {
				c, err := net.AddCohort(station.HIDE, []uint16{p}, min(w.opts.Cohort, size-off), 1)
				if err != nil {
					return nil, err
				}
				cohorts = append(cohorts, c)
			}
		}
	}
	if err := net.ScheduleReplay(w.tr); err != nil {
		return nil, err
	}
	l["core.assembly_ms"] = ms(since(t))
	net.Engine.RunUntil(w.tr.Duration + dot11.DefaultBeaconInterval)

	pt := core.ScalePoint{N: w.n, PortMsgsReceived: net.AP.Stats().PortMsgsReceived}
	if beacons := net.AP.Stats().BeaconsSent; beacons > 0 {
		pt.BTIMBytesPerBeacon = float64(net.AP.Stats().BTIMBytesSent) / float64(beacons)
	}
	var sumJ, sumUseful float64
	var stats []weightedStats
	t = wallNow()
	for _, s := range stations {
		b, err := net.StationEnergy(s, energy.NexusOne, w.tr.Duration, true)
		if err != nil {
			return nil, err
		}
		sumJ += b.TotalJ()
		sumUseful += float64(s.Stats().GroupUseful)
		stats = append(stats, weightedStats{s.Stats(), 1})
	}
	for _, c := range cohorts {
		_, total, err := net.CohortEnergy(c, energy.NexusOne, w.tr.Duration, true)
		if err != nil {
			return nil, err
		}
		sumJ += total.TotalJ()
		sumUseful += float64(c.MemberStats().GroupUseful) * float64(c.Count())
		stats = append(stats, weightedStats{c.MemberStats(), c.Count()})
	}
	l.energy(since(t), len(stats))
	pt.MeanStationJ = sumJ / float64(w.n)
	pt.MeanUseful = sumUseful / float64(w.n)
	if !reflect.DeepEqual(pt, want) {
		return nil, fmt.Errorf("traced ScalePoint %+v differs from the untraced op's %+v", pt, want)
	}
	l.stations(stats)
	cost, err := calibratedStampCost()
	if err != nil {
		return nil, err
	}
	l.shards([]*stamps{st}, net.Engine.Now(), cost)
	return l, nil
}

// sortedPorts is the trace's port set in ascending order, the
// round-robin order core assigns stations to.
func sortedPorts(tr *trace.Trace) []uint16 {
	var ports []uint16
	for p := range tr.PortHistogram() {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return ports
}

// essOut is one ess-8 op's output: the ESS counters and the summed
// station energy.
type essOut struct {
	Stats   ess.Stats
	EnergyJ float64
}

// essWorkload is the ess-8 op.
type essWorkload struct {
	tr       *trace.Trace
	netSeed  uint64
	roamSeed uint64
	stations int
}

// setupESS is ess-8: 8 APs, 64 roaming HIDE stations, replicated
// handoffs, 2 minutes of Classroom.
func setupESS(seed uint64, _ string) (*instance, error) {
	tr, gen, err := scaleTrace(trace.Classroom)
	if err != nil {
		return nil, err
	}
	w := &essWorkload{tr: tr, netSeed: 7, roamSeed: 7, stations: 64}
	if seed != 0 {
		w.netSeed, w.roamSeed = seed, seed
	}
	return &instance{
		op:     func() (any, error) { return w.run(0, nil) },
		traced: w.traced,
		curves: w.curves,
		genMS:  gen,
	}, nil
}

// run builds and runs the ESS at the given worker count (0 selects
// GOMAXPROCS). When l is non-nil every shard's events are stamped and
// the layer metrics are added to l.
func (w *essWorkload) run(workers int, l layers) (essOut, error) {
	e, err := ess.New(ess.Config{
		APs: 8,
		Network: core.NetworkConfig{
			DTIMPeriod: 1, HIDE: true, Harden: true, Seed: w.netSeed,
		},
		Replicate: true,
		RoamRate:  2,
		RoamSeed:  w.roamSeed,
		Workers:   workers,
	})
	if err != nil {
		return essOut{}, err
	}
	var st []*stamps
	if l != nil {
		for _, sh := range e.Shards() {
			st = append(st, stampNetwork(sh.Net))
		}
	}
	for s := 0; s < w.stations; s++ {
		if _, err := e.AddStation(station.HIDE, []uint16{5353, 53}, 1); err != nil {
			return essOut{}, err
		}
	}
	runStart := wallNow()
	if err := e.RunContext(context.Background(), w.tr); err != nil {
		return essOut{}, err
	}
	runEnd := wallNow()
	out := essOut{Stats: e.Stats()}
	t := wallNow()
	for _, s := range e.Stations() {
		b, err := e.StationEnergy(s, energy.NexusOne, w.tr.Duration, true)
		if err != nil {
			return essOut{}, err
		}
		out.EnergyJ += b.TotalJ()
	}
	if l != nil {
		l.energy(since(t), len(e.Stations()))
		var stats []weightedStats
		for _, s := range e.Stations() {
			stats = append(stats, weightedStats{s.Stats(), 1})
		}
		l.stations(stats)
		cost, err := calibratedStampCost()
		if err != nil {
			return essOut{}, err
		}
		busy, events := l.shards(st, e.Now(), cost)
		var sum, peak time.Duration
		for _, b := range busy {
			sum += b
			peak = max(peak, b)
		}
		// RunContext schedules every shard's replay before the first event
		// (at Workers=1 the events run one after another), so the time to
		// the earliest first event is replay scheduling, not barrier work.
		// Every event also costs a whole stamp pair outside busy.
		firstEvent := runEnd
		for _, s := range st {
			if !s.first.IsZero() && s.first.Before(firstEvent) {
				firstEvent = s.first
			}
		}
		stamping := cost.full * time.Duration(events)
		l["ess.shard_busy_ms"] = ms(sum)
		l["ess.shard_imbalance"] = ratio(float64(peak), float64(sum)/float64(len(busy)))
		l["ess.schedule_ms"] = ms(firstEvent.Sub(runStart))
		l["ess.barrier_ms"] = ms(max(0, runEnd.Sub(firstEvent)-sum-stamping))
		l["ess.roams"] = float64(out.Stats.Roams)
		l["ess.ds_records"] = float64(out.Stats.DSRecordsReplicated)
	}
	return out, nil
}

// traced runs the ESS at Workers=1 with every shard's events stamped, so
// the wall time not spent in shard events is the serial barrier share.
func (w *essWorkload) traced(want any) (map[string]float64, error) {
	l := layers{}
	out, err := w.run(1, l)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(out, want) {
		return nil, fmt.Errorf("traced ESS output %+v differs from the untraced op's %+v", out, want)
	}
	return l, nil
}

// curves times the untraced op at 1 and 2 shard workers.
func (w *essWorkload) curves(float64) (map[string]float64, error) {
	at := func(workers int) (float64, error) {
		return medianOf(3, func() error {
			_, err := w.run(workers, nil)
			return err
		})
	}
	w1, err := at(1)
	if err != nil {
		return nil, err
	}
	w2, err := at(2)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"ess.speedup_w2": ratio(w1, w2)}, nil
}

// Event classes the traced pass sorts each dispatched event into, by the
// AP and medium counters the event moved.
const (
	classBeacon    = iota // AP beacon tick: Algorithm 1, BTIM build, DTIM group flush
	classPortMsg          // a delivery that handed a UDP Port Message to the AP
	classEnqueue          // a trace frame arriving at the AP's group queue
	classDeliver          // any other medium delivery (fan-out to stations)
	classStationTx        // a station timer that put a frame on air
	classTimer            // a timer that transmitted nothing
	numClasses
)

// stamps attributes the host time of every event one engine dispatches
// to the layer whose counters it moved. The engine's interrupt
// predicate stamps the start of each event and a dispatch hook its end,
// so the simulation runs its normal RunUntil loop unchanged.
type stamps struct {
	ap  *ap.AP
	med *medium.Medium
	eng *sim.Engine

	t0      time.Time
	first   time.Time // start of the first event
	apPrev  ap.Stats
	medPrev medium.Stats

	ns         [numClasses]time.Duration
	n          [numClasses]int
	deliveries int // deliveries made by classDeliver events
	peak       int
	frames     [numFrameKinds]int
}

// numFrameKinds bounds dot11.FrameKind values.
const numFrameKinds = int(dot11.KindReassocResponse) + 1

// frameKindMetrics names the per-kind frame counters.
func frameKindMetrics() []metricDef {
	var out []metricDef
	for k := 0; k < numFrameKinds; k++ {
		out = append(out, metricDef{"medium.frames." + dot11.FrameKind(k).String(), "count/op"})
	}
	return out
}

// stampNetwork installs stamps on a network's engine and a frame tap on
// its medium.
func stampNetwork(n *core.Network) *stamps {
	s := &stamps{ap: n.AP, med: n.Medium, eng: n.Engine}
	n.Engine.SetInterrupt(s.before)
	n.Engine.AddHook(s.after)
	n.Medium.SetTap(func(raw []byte, _ dot11.Rate, _ time.Duration) {
		k := dot11.Classify(raw)
		if int(k) >= numFrameKinds {
			k = dot11.KindUnknown // a kind added to dot11 after this benchmark
		}
		s.frames[k]++
	})
	return s
}

// before runs ahead of each event; it never interrupts the run.
func (s *stamps) before() bool {
	s.apPrev = s.ap.Stats()
	s.medPrev = s.med.Stats
	s.t0 = wallNow()
	if s.first.IsZero() {
		s.first = s.t0
	}
	return false
}

// after runs once each event has been dispatched.
func (s *stamps) after(time.Duration) {
	d := since(s.t0)
	a, m := s.ap.Stats(), s.med.Stats
	c := classTimer
	switch {
	case a.BeaconsSent != s.apPrev.BeaconsSent:
		c = classBeacon
	case a.PortMsgsReceived != s.apPrev.PortMsgsReceived:
		c = classPortMsg
	case a.GroupFramesEnqueued != s.apPrev.GroupFramesEnqueued:
		c = classEnqueue
	case m.Deliveries != s.medPrev.Deliveries || m.Losses != s.medPrev.Losses:
		c = classDeliver
		s.deliveries += m.Deliveries - s.medPrev.Deliveries
	case m.Transmissions != s.medPrev.Transmissions:
		c = classStationTx
	}
	s.ns[c] += d
	s.n[c]++
	s.peak = max(s.peak, s.eng.Pending())
}

// calibratedStampCost is measureStampCost, run once per process.
var calibratedStampCost = sync.OnceValues(measureStampCost)

// stampCost is what stamping costs per event, calibrated on an idle
// network as the best of five batches.
type stampCost struct {
	// in is the host time an empty event records: the clock read and
	// snapshot work inside the stamped interval, subtracted from every
	// stamped event.
	in time.Duration
	// full is the whole before+after pair, the stamped interval and the
	// snapshots and bookkeeping around it, which a run's wall time also
	// holds once per event.
	full time.Duration
}

// measureStampCost calibrates the per-event stamp cost.
func measureStampCost() (stampCost, error) {
	net, err := core.NewNetwork(core.NetworkConfig{HIDE: true})
	if err != nil {
		return stampCost{}, err
	}
	best := stampCost{in: 1 << 62, full: 1 << 62}
	for batch := 0; batch < 5; batch++ {
		s := &stamps{ap: net.AP, med: net.Medium, eng: net.Engine}
		const n = 2000
		t := wallNow()
		for i := 0; i < n; i++ {
			s.before()
			s.after(0)
		}
		best.full = min(best.full, since(t)/n)
		best.in = min(best.in, s.ns[classTimer]/n)
	}
	return best, nil
}

// layers collects one traced op's per-layer metrics.
type layers map[string]float64

// corrected is a class's stamped time less the calibrated stamp cost.
func (s *stamps) corrected(c int, bias time.Duration) time.Duration {
	return max(0, s.ns[c]-bias*time.Duration(s.n[c]))
}

// shards adds the event-stamp metrics of one or more engines (an ESS has
// one per AP) that ran for span of simulated time, and returns each
// engine's stamped busy time and the number of events stamped.
func (l layers) shards(all []*stamps, span time.Duration, cost stampCost) ([]time.Duration, int) {
	var cls [numClasses]time.Duration
	var busy []time.Duration
	var events, deliveries, peak int
	var apSum ap.Stats
	var med medium.Stats
	for _, s := range all {
		var b time.Duration
		for c := 0; c < numClasses; c++ {
			d := s.corrected(c, cost.in)
			cls[c] += d
			b += d
			events += s.n[c]
		}
		busy = append(busy, b)
		deliveries += s.deliveries
		peak = max(peak, s.peak)
		a := s.ap.Stats()
		apSum.BeaconsSent += a.BeaconsSent
		apSum.PortMsgsReceived += a.PortMsgsReceived
		apSum.BTIMBytesSent += a.BTIMBytesSent
		med.Transmissions += s.med.Stats.Transmissions
		med.Deliveries += s.med.Stats.Deliveries
		med.Losses += s.med.Stats.Losses
		med.AirtimeBusy += s.med.Stats.AirtimeBusy
		for k, n := range s.frames {
			l["medium.frames."+dot11.FrameKind(k).String()] += float64(n)
		}
	}
	var total time.Duration
	for _, d := range cls {
		total += d
	}
	l["sim.events"] = float64(events)
	l["sim.ns_per_event"] = ratio(float64(total), float64(events))
	l["sim.queue_peak"] = float64(peak)
	l["medium.deliver_ms"] = ms(cls[classDeliver])
	l["medium.ns_per_delivery"] = ratio(float64(cls[classDeliver]), float64(deliveries))
	l["medium.deliveries"] = float64(med.Deliveries)
	l["medium.transmissions"] = float64(med.Transmissions)
	l["medium.losses"] = float64(med.Losses)
	l["medium.airtime_busy_ratio"] = ratio(float64(med.AirtimeBusy), float64(span)*float64(len(all)))
	l["ap.beacon_ms"] = ms(cls[classBeacon])
	l["ap.us_per_beacon"] = ratio(float64(cls[classBeacon])/float64(time.Microsecond), float64(apSum.BeaconsSent))
	l["ap.portmsg_ms"] = ms(cls[classPortMsg])
	l["ap.ns_per_portmsg"] = ratio(float64(cls[classPortMsg]), float64(apSum.PortMsgsReceived))
	l["ap.enqueue_ms"] = ms(cls[classEnqueue])
	l["ap.btim_bytes_per_beacon"] = ratio(float64(apSum.BTIMBytesSent), float64(apSum.BeaconsSent))
	l["station.tx_ms"] = ms(cls[classStationTx])
	l["station.timer_ms"] = ms(cls[classTimer])
	return busy, events
}

// weightedStats is one station's counters standing for count clients.
type weightedStats struct {
	s     station.Stats
	count int
}

// stations adds the station-layer counters summed over the population.
// useful_ratio is wanted group frames over group frames received.
func (l layers) stations(all []weightedStats) {
	var wakeups, suspends, retries, useful, received float64
	for _, w := range all {
		c := float64(w.count)
		wakeups += float64(w.s.Wakeups) * c
		suspends += float64(w.s.Suspends) * c
		retries += float64(w.s.PortMsgRetries) * c
		useful += float64(w.s.GroupUseful) * c
		received += float64(w.s.GroupReceived) * c
	}
	l["station.wakeups"] = wakeups
	l["station.suspends"] = suspends
	l["station.port_msg_retries"] = retries
	l["station.useful_ratio"] = ratio(useful, received)
}

// energy adds the energy-model time of calls Section IV evaluations.
func (l layers) energy(d time.Duration, calls int) {
	l["energy.compute_ms"] = ms(d)
	l["energy.us_per_call"] = ratio(float64(d)/float64(time.Microsecond), float64(calls))
}
