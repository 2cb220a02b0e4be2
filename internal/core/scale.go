package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/station"
	"repro/internal/trace"
)

// scaleAssembly is the slice of the assembly API the scaling loops
// need, satisfied by both the serial Network and the windowed-parallel
// WindowedNetwork so one loop body serves both execution modes.
type scaleAssembly interface {
	AddStation(mode station.Mode, openPorts []uint16) (*station.Station, error)
	AddCohort(mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error)
	Replay(tr *trace.Trace) error
}

// newScaleAssembly builds the execution mode opts selects: the legacy
// single-engine Network, or (opts.WindowWorkers ≥ 1) the windowed
// assembly with that concurrency bound. The returned *Network is the
// stats/energy view — the network itself, or the windowed hub.
func newScaleAssembly(cfg NetworkConfig, opts Options) (scaleAssembly, *Network, error) {
	if opts.WindowWorkers > 0 {
		w, err := NewWindowedNetwork(WindowConfig{Network: cfg, Workers: opts.WindowWorkers})
		if err != nil {
			return nil, nil, err
		}
		return w, w.Hub, nil
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		return nil, nil, err
	}
	return n, n, nil
}

// ScalePoint is one population size in the client-scaling experiment —
// a question the paper leaves implicit: how do the BTIM element and
// per-station energy behave as the HIDE population grows? The BTIM's
// partial virtual bitmap covers the AID range in use, so its on-air
// size grows with the population (bounded by the Figure 5 compression)
// while each station's energy stays governed by its own traffic share.
type ScalePoint struct {
	// N is the number of associated HIDE stations.
	N int
	// BTIMBytesPerBeacon is the average BTIM element length on air.
	BTIMBytesPerBeacon float64
	// PortMsgsReceived counts UDP Port Messages the AP processed.
	PortMsgsReceived int
	// MeanStationJ is the mean per-station energy (Section IV model).
	MeanStationJ float64
	// MeanUseful is the mean number of useful frames per station.
	MeanUseful float64
}

// ScaleClientsNetwork replays the trace against populations of HIDE
// stations on a BSS built from cfg, so scaling studies can set
// protocol knobs beyond the default — hardened fail-safes, refresh
// jitter, custom DTIM periods. cfg.HIDE is forced on: the experiment
// measures the HIDE control plane. Station i listens on a port drawn
// round-robin from the trace's port set, so usefulness is spread
// across the population.
//
// When opts.Cohort > 1 each port class is modeled as cohort stations
// of at most opts.Cohort members instead of individual stations, which
// lifts the reachable population from the AID-space ceiling (2007) to
// 10⁵–10⁶ clients. Class sizes match the round-robin assignment (port
// i serves ⌈n/len(ports)⌉ or ⌊n/len(ports)⌋ members); per-station
// energy comes from each cohort's representative scaled by the cohort
// width.
func ScaleClientsNetwork(cfg NetworkConfig, tr *trace.Trace, dev energy.Profile, sizes []int, opts Options) ([]ScalePoint, error) {
	cfg.HIDE = true
	hist := tr.PortHistogram()
	var ports []uint16
	for p := range hist {
		ports = append(ports, p)
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("core: trace has no ports to assign")
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })

	var out []ScalePoint
	for _, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("core: population %d < 1", n)
		}
		asm, net, err := newScaleAssembly(cfg, opts)
		if err != nil {
			return nil, err
		}
		var sts []*station.Station
		var cohorts []*station.CohortStation
		if opts.Cohort > 1 {
			for i := range ports {
				size := n / len(ports)
				if i < n%len(ports) {
					size++
				}
				for off := 0; off < size; off += opts.Cohort {
					c, err := asm.AddCohort(station.HIDE, []uint16{ports[i]}, min(opts.Cohort, size-off), 1)
					if err != nil {
						return nil, err
					}
					cohorts = append(cohorts, c)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				st, err := asm.AddStation(station.HIDE, []uint16{ports[i%len(ports)]})
				if err != nil {
					return nil, err
				}
				sts = append(sts, st)
			}
		}
		if err := asm.Replay(tr); err != nil {
			return nil, err
		}

		pt := ScalePoint{N: n, PortMsgsReceived: net.AP.Stats().PortMsgsReceived}
		if beacons := net.AP.Stats().BeaconsSent; beacons > 0 {
			pt.BTIMBytesPerBeacon = float64(net.AP.Stats().BTIMBytesSent) / float64(beacons)
		}
		var sumJ, sumUseful float64
		for _, st := range sts {
			b, err := net.StationEnergy(st, dev, tr.Duration, true)
			if err != nil {
				return nil, err
			}
			sumJ += b.TotalJ()
			sumUseful += float64(st.Stats().GroupUseful)
		}
		for _, c := range cohorts {
			_, total, err := net.CohortEnergy(c, dev, tr.Duration, true)
			if err != nil {
				return nil, err
			}
			sumJ += total.TotalJ()
			sumUseful += float64(c.MemberStats().GroupUseful) * float64(c.Count())
		}
		pt.MeanStationJ = sumJ / float64(n)
		pt.MeanUseful = sumUseful / float64(n)
		out = append(out, pt)
	}
	return out, nil
}

// defaultScaleTrace builds a short dense trace for scaling runs.
func defaultScaleTrace() (*trace.Trace, error) {
	cfg := trace.ScenarioConfig(trace.WRL)
	cfg.Duration = 2 * time.Minute
	return trace.Generate(cfg)
}

// DefaultScaleClients runs the scaling experiment on a standard short
// trace with populations 1, 5, 15, 40.
func DefaultScaleClients(dev energy.Profile) ([]ScalePoint, error) {
	tr, err := defaultScaleTrace()
	if err != nil {
		return nil, err
	}
	return ScaleClientsNetwork(NetworkConfig{HIDE: true}, tr, dev, []int{1, 5, 15, 40}, Options{})
}

// DefaultScaleCohorts runs the scaling experiment on the same standard
// trace at the 802.11 AID-space ceiling and far past it. The ceiling
// row is 2007 individually modeled stations; past it each port class
// folds into one aggregate CohortStation (DESIGN.md §9), so the
// protocol simulation replays the trace against 10⁵–10⁶ modeled
// clients in milliseconds.
func DefaultScaleCohorts(dev energy.Profile) ([]ScalePoint, error) {
	tr, err := defaultScaleTrace()
	if err != nil {
		return nil, err
	}
	cfg := NetworkConfig{HIDE: true}
	pts, err := ScaleClientsNetwork(cfg, tr, dev, []int{int(dot11.MaxAID)}, Options{})
	if err != nil {
		return nil, err
	}
	agg, err := ScaleClientsNetwork(cfg, tr, dev, []int{100_000, 1_000_000}, Options{Cohort: 1 << 30})
	if err != nil {
		return nil, err
	}
	return append(pts, agg...), nil
}

// RefreshJitterPoint is one cell of the hardened-refresh congestion
// study: the scaling metrics for one jitter setting.
type RefreshJitterPoint struct {
	// Jitter is the NetworkConfig.RefreshJitter fraction.
	Jitter float64
	ScalePoint
}

// DefaultRefreshJitterStudy measures the large-population
// port-message congestion collapse and its mitigation. With hardening
// on, every client re-sends its UDP Port Message on the same fixed
// TTL-refresh cadence; in populations of N≳500 individually-modeled
// stations the refreshes phase-lock into periodic uplink storms whose
// ACK-timeout retries amplify the load further, and past ~700 the
// wasted airtime starts displacing useful downlink deliveries.
// RefreshJitter draws each station a deterministic per-station factor
// stretching its cadence across [interval, interval·(1+jitter)],
// breaking the phase lock. The study sweeps jitter at the onset
// (N=500) and inside the collapse (N=700); jitter well past 1 starts
// trading refresh storms for TTL-expiry filtering gaps, so the sweep
// stops there.
func DefaultRefreshJitterStudy(dev energy.Profile) ([]RefreshJitterPoint, error) {
	tr, err := defaultScaleTrace()
	if err != nil {
		return nil, err
	}
	var out []RefreshJitterPoint
	for _, n := range []int{500, 700} {
		for _, j := range []float64{0, 0.5, 1.0} {
			pts, err := ScaleClientsNetwork(
				NetworkConfig{HIDE: true, Harden: true, RefreshJitter: j},
				tr, dev, []int{n}, Options{})
			if err != nil {
				return nil, err
			}
			out = append(out, RefreshJitterPoint{Jitter: j, ScalePoint: pts[0]})
		}
	}
	return out, nil
}
