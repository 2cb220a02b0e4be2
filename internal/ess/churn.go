// Churn experiment: the energy/miss cost of cold versus replicated
// handoffs across roam rates. One run replays a scenario trace
// through a K-AP ESS populated with HIDE stations under seed-driven
// mobility, and reports the wanted-frame misses (total and
// resync-window), the DS replication volume, and the mean per-station
// broadcast-handling energy.

package ess

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/station"
	"repro/internal/trace"
)

// churnUsefulTarget is the port-derived useful-traffic fraction every
// churn station's open-port set is built from.
const churnUsefulTarget = 0.10

// ChurnConfig tunes one churn-rate cell.
type ChurnConfig struct {
	// APs and Stations size the ESS (defaults 4 and 32).
	APs      int
	Stations int
	// Scenario selects the replayed broadcast trace.
	Scenario trace.Scenario
	// Duration truncates the scenario capture; zero keeps it whole,
	// and a negative value is rejected.
	Duration time.Duration
	// RoamRate is the expected roams per station per minute.
	RoamRate float64
	// Replicate selects warm (replicated) handoffs; false runs cold.
	Replicate bool
	// DSLoss drops replicated records with this probability.
	DSLoss float64
	// Seed perturbs the trace generator and drives the mobility RNG.
	Seed uint64
	// RefreshJitter passes through to core.NetworkConfig: it spreads
	// the hardened port-refresh cadence that both resyncs cold
	// handoffs and, unjittered, phase-locks into the N≳500 congestion
	// collapse.
	RefreshJitter float64
	// Device prices the per-station energy (default Nexus One).
	Device energy.Profile
	// Workers bounds the shard parallelism.
	Workers int
}

// normalized fills defaults.
func (c ChurnConfig) normalized() ChurnConfig {
	if c.APs <= 0 {
		c.APs = 4
	}
	if c.Stations <= 0 {
		c.Stations = 32
	}
	if c.Device.Name == "" {
		c.Device = energy.NexusOne
	}
	return c
}

// ChurnResult is one churn cell's outcome.
type ChurnResult struct {
	// Stats is the ESS's aggregated roam/miss/DS accounting.
	Stats Stats
	// MeanEnergyJ and MeanPowerMW average the Section IV
	// broadcast-handling energy over the stations.
	MeanEnergyJ float64
	MeanPowerMW float64
	// Duration is the priced window (trace duration plus drain).
	Duration time.Duration
}

// config is the ESS a churn cell runs: hardened HIDE shards at DTIM
// period 1. Hardening is forced on — the TTL-refresh piggyback is the
// mechanism that eventually closes a cold handoff's resync window;
// without it a cold-roamed station would never re-register its ports
// and the comparison would be degenerate.
func (c ChurnConfig) config() Config {
	return Config{
		APs: c.APs,
		Network: core.NetworkConfig{
			DTIMPeriod:    1,
			HIDE:          true,
			Harden:        true,
			RefreshJitter: c.RefreshJitter,
			Seed:          c.Seed,
		},
		Replicate: c.Replicate,
		RoamRate:  c.RoamRate,
		RoamSeed:  c.Seed ^ 0xc2b2ae3d27d4eb4f,
		DSLoss:    c.DSLoss,
		Workers:   c.Workers,
	}
}

// Validate reports the first setting RunChurnContext rejects, without
// running anything: a negative Duration, or a setting New or
// core.NewNetwork rejects.
func (c ChurnConfig) Validate() error {
	if c.Duration < 0 {
		return fmt.Errorf("ess: negative churn Duration %v", c.Duration)
	}
	return c.normalized().config().validate()
}

// RunChurnContext runs one churn cell: a hardened K-AP ESS of HIDE
// stations under seed-driven mobility (see config).
func RunChurnContext(ctx context.Context, cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return ChurnResult{}, err
	}
	cfg = cfg.normalized()
	tcfg := trace.ScenarioConfig(cfg.Scenario)
	if cfg.Seed != 0 {
		tcfg.Seed ^= cfg.Seed * 0x9e3779b97f4a7c15
	}
	if cfg.Duration > 0 && cfg.Duration < tcfg.Duration {
		tcfg.Duration = cfg.Duration
	}
	tr, err := engine.Traces.Generate(tcfg)
	if err != nil {
		return ChurnResult{}, err
	}
	openSet := trace.OpenPortsForFraction(tr, churnUsefulTarget)
	open := make([]uint16, 0, len(openSet))
	for p := range openSet {
		open = append(open, p)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })

	e, err := New(cfg.config())
	if err != nil {
		return ChurnResult{}, err
	}
	for i := 0; i < cfg.Stations; i++ {
		if _, err := e.AddStation(station.HIDE, open, 1); err != nil {
			return ChurnResult{}, fmt.Errorf("ess: churn station %d: %w", i, err)
		}
	}
	if err := e.RunContext(ctx, tr); err != nil {
		return ChurnResult{}, err
	}

	window := e.Now()
	res := ChurnResult{Stats: e.Stats(), Duration: window}
	for _, st := range e.Stations() {
		b, err := e.StationEnergy(st, cfg.Device, window, true)
		if err != nil {
			return ChurnResult{}, err
		}
		res.MeanEnergyJ += b.TotalJ()
	}
	res.MeanEnergyJ /= float64(cfg.Stations)
	res.MeanPowerMW = res.MeanEnergyJ / window.Seconds() * 1000
	return res, nil
}
