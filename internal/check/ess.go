// ESS equivalence and roam-fault layer.
//
// Two claims anchor the multi-AP assembly to everything already
// proven about the single-AP path:
//
//  1. A roam-free ESS IS K independent single-AP simulations: shard i
//     must reproduce a plain core.Network seeded Seed+i with the
//     shard's BSSID, attaching the shard's clients under the same
//     ESS-wide station numbers, byte-for-byte — identical frame
//     streams (fingerprint of every transmission's instant, rate, and
//     bytes), identical per-client counters, arrival logs and cohort
//     regimes, and bit-identical energy breakdowns (compared with ==,
//     never a tolerance) — while an Invariants checker on every shard
//     records no violation. K=1 is the single-AP network itself.
//  2. Under churn and a lossy distribution system, the ESS stays
//     deterministic: the same seed produces the same shard
//     fingerprints and stats for any worker count, and the
//     replicated-handoff miss count stays between the lossless-warm
//     floor (zero) and the cold ceiling.
package check

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

// ESSEquivCell identifies one K=1 ESS-vs-Network comparison.
type ESSEquivCell struct {
	Policy   policy.Kind
	Scenario trace.Scenario
	Size     int
}

// String labels the cell for reports.
func (c ESSEquivCell) String() string {
	return fmt.Sprintf("ess/%s/%s/n%d", c.Policy, c.Scenario, c.Size)
}

// ESSEquivResult is one compared cell; Mismatch names the first
// diverging observable ("" = exact).
type ESSEquivResult struct {
	Cell     ESSEquivCell
	Frames   int
	Mismatch string
}

// OK reports whether the cell was exact.
func (r ESSEquivResult) OK() bool { return r.Mismatch == "" }

// runESSSide replays tr against a roam-free ESS of k shards built from
// cfg, attaching pop in order (0 for a station, n > 0 for a cohort of n
// members) with an Invariants checker on every shard. It returns one
// side per shard and the shard BSSIDs.
func runESSSide(ctx context.Context, tr *trace.Trace, cfg core.NetworkConfig, k int, mode station.Mode, open []uint16, pop []int) ([]*equivSide, []dot11.MACAddr, error) {
	e, err := ess.New(ess.Config{APs: k, Network: cfg})
	if err != nil {
		return nil, nil, err
	}
	digests := make([]*airDigest, k)
	for i, sh := range e.Shards() {
		digests[i] = newAirDigest()
		sh.Net.Medium.SetTap(digests[i].tap)
	}
	for _, size := range pop {
		if size == 0 {
			_, err = e.AddStation(mode, open, 1)
		} else {
			_, err = e.AddCohort(mode, open, size, 1)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	invs := make([]*Invariants, k)
	for i, sh := range e.Shards() {
		invs[i] = NewInvariants()
		invs[i].Watch(sh.Net)
	}
	if err := e.RunContext(ctx, tr); err != nil {
		return nil, nil, err
	}
	sides := make([]*equivSide, k)
	bssids := make([]dot11.MACAddr, k)
	for i, sh := range e.Shards() {
		invs[i].Finish(tr.Duration + dot11.DefaultBeaconInterval)
		sides[i] = networkSide(digests[i], sh.Net)
		sides[i].violations = invs[i].Violations()
		bssids[i] = sh.Net.BSSID
	}
	return sides, bssids, nil
}

// runNetworkSide replays tr against the reference of an ESS with the
// given shard BSSIDs: one independent core.Network per shard, network
// i seeded cfg.Seed+i with shard i's BSSID. The clients of pop are
// placed round-robin, as the ESS places them, and attached under the
// same ESS-wide station numbers through AddStationAt and AddCohortAt.
func runNetworkSide(tr *trace.Trace, cfg core.NetworkConfig, bssids []dot11.MACAddr, mode station.Mode, open []uint16, pop []int) ([]*equivSide, error) {
	nets := make([]*core.Network, len(bssids))
	digests := make([]*airDigest, len(bssids))
	for i, bssid := range bssids {
		ncfg := cfg
		ncfg.Seed += uint64(i)
		ncfg.BSSID = bssid
		n, err := core.NewNetwork(ncfg)
		if err != nil {
			return nil, err
		}
		digests[i] = newAirDigest()
		n.Medium.SetTap(digests[i].tap)
		nets[i] = n
	}
	idx := 1
	for j, size := range pop {
		n := nets[j%len(nets)]
		var err error
		if size == 0 {
			_, err = n.AddStationAt(idx, mode, open, 1)
			idx++
		} else {
			_, err = n.AddCohortAt(idx, mode, open, size, 1)
			idx += size
		}
		if err != nil {
			return nil, err
		}
	}
	sides := make([]*equivSide, len(nets))
	for i, n := range nets {
		if err := n.Replay(tr); err != nil {
			return nil, err
		}
		sides[i] = networkSide(digests[i], n)
	}
	return sides, nil
}

// networkSide collects a replayed network's observables: its air, then
// its stations' and its cohorts' in attachment order.
func networkSide(d *airDigest, n *core.Network) *equivSide {
	side := &equivSide{fp: d.h.Sum64(), frames: d.frames}
	for _, st := range n.Stations() {
		side.arrivals = append(side.arrivals, st.Arrivals())
		side.stats = append(side.stats, st.Stats())
	}
	for _, c := range n.Cohorts() {
		side.arrivals = append(side.arrivals, c.Arrivals())
		side.stats = append(side.stats, c.MemberStats())
		side.aggregate = append(side.aggregate, c.Aggregate())
	}
	return side
}

// compareESS replays tr on a roam-free ESS of k shards and on its
// reference (runNetworkSide), and returns the frames the reference put
// on air and the first mismatch ("" = exact).
func compareESS(ctx context.Context, tr *trace.Trace, cfg core.NetworkConfig, k int, mode station.Mode, open []uint16, pop []int, eq EquivConfig) (int, string, error) {
	es, bssids, err := runESSSide(ctx, tr, cfg, k, mode, open, pop)
	if err != nil {
		return 0, "", fmt.Errorf("ess side: %w", err)
	}
	ref, err := runNetworkSide(tr, cfg, bssids, mode, open, pop)
	if err != nil {
		return 0, "", fmt.Errorf("network side: %w", err)
	}
	frames := 0
	for _, s := range ref {
		frames += s.frames
	}
	return frames, diffESS(es, ref, eq, tr.Duration+dot11.DefaultBeaconInterval), nil
}

// diffESS names the first shard whose ESS side broke an invariant or
// diverges from its reference ("" = exact).
func diffESS(es, ref []*equivSide, eq EquivConfig, window time.Duration) string {
	for i := range es {
		if v := es[i].violations; len(v) > 0 {
			return fmt.Sprintf("shard %d: %d invariant violation(s), first %v", i, len(v), v[0])
		}
		if len(es[i].stats) != len(ref[i].stats) {
			return fmt.Sprintf("shard %d: ess %d clients, network %d", i, len(es[i].stats), len(ref[i].stats))
		}
		if !slices.Equal(es[i].aggregate, ref[i].aggregate) {
			return fmt.Sprintf("shard %d cohort regimes (aggregate): ess %v, network %v", i, es[i].aggregate, ref[i].aggregate)
		}
		if d := diffSidesLabeled(es[i], ref[i], "ess", "network", len(ref[i].stats), eq, window); d != "" {
			return fmt.Sprintf("shard %d %s", i, d)
		}
	}
	return ""
}

// ESSEquivConfig tunes the K=1 equivalence sweep.
type ESSEquivConfig struct {
	// Duration truncates the scenario traces (zero keeps them whole).
	Duration time.Duration
	// UsefulTarget is the port-derived useful-traffic fraction
	// (default 0.10).
	UsefulTarget float64
	// Seed perturbs the trace generator and seeds both assemblies.
	Seed uint64
	// Devices price the bit-identity check (default both Table I
	// devices).
	Devices []energy.Profile
	// Workers bounds the matrix parallelism.
	Workers int
}

// normalized fills defaults.
func (c ESSEquivConfig) normalized() ESSEquivConfig {
	if c.UsefulTarget <= 0 {
		c.UsefulTarget = 0.10
	}
	if len(c.Devices) == 0 {
		c.Devices = []energy.Profile{energy.NexusOne, energy.GalaxyS4}
	}
	return c
}

// equiv projects the config onto the shared diffSides parameter type.
func (c ESSEquivConfig) equiv() EquivConfig { return EquivConfig{Devices: c.Devices} }

// RunESSEquivCellContext runs one K=1 comparison.
func RunESSEquivCellContext(ctx context.Context, c ESSEquivCell, cfg ESSEquivConfig) (ESSEquivResult, error) {
	cfg = cfg.normalized()
	if c.Size < 1 {
		return ESSEquivResult{}, fmt.Errorf("check: ess equivalence size %d < 1", c.Size)
	}
	tr, err := oracleTrace(c.Scenario, cfg.Seed, cfg.Duration)
	if err != nil {
		return ESSEquivResult{}, err
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, cfg.UsefulTarget))

	mode, err := modeFor(c.Policy)
	if err != nil {
		return ESSEquivResult{}, err
	}
	ncfg := core.NetworkConfig{DTIMPeriod: 1, HIDE: c.Policy == policy.HIDE, Seed: cfg.Seed}
	frames, mismatch, err := compareESS(ctx, tr, ncfg, 1, mode, open, make([]int, c.Size), cfg.equiv())
	if err != nil {
		return ESSEquivResult{}, fmt.Errorf("check: %v %w", c, err)
	}
	return ESSEquivResult{Cell: c, Frames: frames, Mismatch: mismatch}, nil
}

// ESSEquivMatrix is the K=1 byte-identity sweep.
type ESSEquivMatrix struct {
	Policies  []policy.Kind
	Scenarios []trace.Scenario
	Size      int
	Config    ESSEquivConfig
}

// DefaultESSEquivMatrix covers the acceptance grid: three policies ×
// three scenario traces, a handful of stations each.
func DefaultESSEquivMatrix() ESSEquivMatrix {
	return ESSEquivMatrix{
		Policies:  []policy.Kind{policy.ReceiveAll, policy.ClientSide, policy.HIDE},
		Scenarios: []trace.Scenario{trace.Classroom, trace.Starbucks, trace.WRL},
		Size:      4,
	}
}

// ESSEquivMatrixResult collects every cell of a sweep.
type ESSEquivMatrixResult struct {
	Results []ESSEquivResult
}

// RunContext executes the sweep over the worker pool; cell order is
// policy-major then scenario, identical for any worker count.
func (m ESSEquivMatrix) RunContext(ctx context.Context) (*ESSEquivMatrixResult, error) {
	cfg := m.Config.normalized()
	size := m.Size
	if size < 1 {
		size = 4
	}
	var cells []ESSEquivCell
	for _, kind := range m.Policies {
		for _, sc := range m.Scenarios {
			cells = append(cells, ESSEquivCell{Policy: kind, Scenario: sc, Size: size})
		}
	}
	res, err := engine.Map(ctx, cfg.Workers, len(cells), func(ctx context.Context, i int) (ESSEquivResult, error) {
		if err := ctx.Err(); err != nil {
			return ESSEquivResult{}, err
		}
		return RunESSEquivCellContext(ctx, cells[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	return &ESSEquivMatrixResult{Results: res}, nil
}

// Failures returns the diverging cells.
func (r *ESSEquivMatrixResult) Failures() []ESSEquivResult {
	var out []ESSEquivResult
	for _, c := range r.Results {
		if !c.OK() {
			out = append(out, c)
		}
	}
	return out
}

// Err returns nil when every cell was exact.
func (r *ESSEquivMatrixResult) Err() error {
	fails := r.Failures()
	if len(fails) == 0 {
		return nil
	}
	names := make([]string, len(fails))
	for i, f := range fails {
		names[i] = fmt.Sprintf("%v (%s)", f.Cell, f.Mismatch)
	}
	return fmt.Errorf("check: %d/%d ESS equivalence cells diverged: %v", len(fails), len(r.Results), names)
}

// ESSRoamFaultConfig tunes the roam-under-fault check: a churning ESS
// with a lossy distribution system, run repeatedly to assert
// determinism and the miss-count ordering.
type ESSRoamFaultConfig struct {
	// APs, Stations, RoamRate size the churn (defaults 4, 12, 3/min).
	APs      int
	Stations int
	RoamRate float64
	// DSLoss is the DS-channel drop probability (default 0.5 — an
	// aggressively lossy distribution system).
	DSLoss float64
	// Scenario and Duration select the trace (the zero Scenario is
	// Classroom; Duration defaults to 2 min).
	Scenario trace.Scenario
	Duration time.Duration
	// Seed drives trace generation and mobility.
	Seed uint64
}

// normalized fills defaults.
func (c ESSRoamFaultConfig) normalized() ESSRoamFaultConfig {
	if c.APs <= 0 {
		c.APs = 4
	}
	if c.Stations <= 0 {
		c.Stations = 12
	}
	if c.RoamRate <= 0 {
		c.RoamRate = 3
	}
	if c.DSLoss <= 0 {
		c.DSLoss = 0.5
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	return c
}

// ESSRoamFaultResult reports the roam-under-fault check.
type ESSRoamFaultResult struct {
	// Cold, Lossy, Warm are the three compared regimes' stats: no
	// replication, replication over the faulted DS, and lossless
	// replication.
	Cold  ess.Stats
	Lossy ess.Stats
	Warm  ess.Stats
	// Mismatch names the first violated property ("" = all held).
	Mismatch string
}

// OK reports whether every property held.
func (r ESSRoamFaultResult) OK() bool { return r.Mismatch == "" }

// RunESSRoamFaultContext drives the churn-under-DS-fault check:
//
//   - determinism: the lossy run, repeated with the same seed at
//     worker counts 1 and 4, produces identical shard fingerprints
//     and identical stats;
//   - ordering: lossless replication records zero resync-window
//     misses, and the faulted DS lands between the warm floor and
//     the cold ceiling;
//   - liveness: roams happen in every regime and dropped DS records
//     are actually observed.
func RunESSRoamFaultContext(ctx context.Context, cfg ESSRoamFaultConfig) (ESSRoamFaultResult, error) {
	cfg = cfg.normalized()

	run := func(replicate bool, dsLoss float64, workers int) ([]uint64, ess.Stats, error) {
		tr, err := oracleTrace(cfg.Scenario, cfg.Seed, cfg.Duration)
		if err != nil {
			return nil, ess.Stats{}, err
		}
		open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
		e, err := ess.New(ess.Config{
			APs: cfg.APs,
			Network: core.NetworkConfig{
				DTIMPeriod: 1,
				HIDE:       true,
				Harden:     true,
				Seed:       cfg.Seed,
			},
			Replicate: replicate,
			RoamRate:  cfg.RoamRate,
			RoamSeed:  cfg.Seed ^ 0xa24baed4963ee407,
			DSLoss:    dsLoss,
			Workers:   workers,
		})
		if err != nil {
			return nil, ess.Stats{}, err
		}
		var digests []*airDigest
		for _, sh := range e.Shards() {
			d := newAirDigest()
			sh.Net.Medium.SetTap(d.tap)
			digests = append(digests, d)
		}
		for i := 0; i < cfg.Stations; i++ {
			if _, err := e.AddStation(station.HIDE, open, 1); err != nil {
				return nil, ess.Stats{}, err
			}
		}
		if err := e.RunContext(ctx, tr); err != nil {
			return nil, ess.Stats{}, err
		}
		fps := make([]uint64, len(digests))
		for i, d := range digests {
			fps[i] = d.h.Sum64()
		}
		return fps, e.Stats(), nil
	}

	var res ESSRoamFaultResult
	fail := func(format string, args ...any) (ESSRoamFaultResult, error) {
		res.Mismatch = fmt.Sprintf(format, args...)
		return res, nil
	}

	lossyFP1, lossy1, err := run(true, cfg.DSLoss, 1)
	if err != nil {
		return res, err
	}
	lossyFP4, lossy4, err := run(true, cfg.DSLoss, 4)
	if err != nil {
		return res, err
	}
	res.Lossy = lossy1
	_, cold, err := run(false, 0, 0)
	if err != nil {
		return res, err
	}
	res.Cold = cold
	_, warm, err := run(true, 0, 0)
	if err != nil {
		return res, err
	}
	res.Warm = warm

	if lossy1 != lossy4 {
		return fail("lossy-DS stats diverged across worker counts: %+v vs %+v", lossy1, lossy4)
	}
	for i := range lossyFP1 {
		if lossyFP1[i] != lossyFP4[i] {
			return fail("shard %d fingerprint diverged across worker counts: %016x vs %016x", i, lossyFP1[i], lossyFP4[i])
		}
	}
	if cold.Roams == 0 || warm.Roams == 0 || lossy1.Roams == 0 {
		return fail("churn inert: cold %d, warm %d, lossy %d roams", cold.Roams, warm.Roams, lossy1.Roams)
	}
	if warm.ResyncWindowMisses != 0 {
		return fail("lossless replication recorded %d resync-window misses, want 0", warm.ResyncWindowMisses)
	}
	if cold.ResyncWindowMisses == 0 {
		return fail("cold handoffs recorded no resync-window misses (no window to measure)")
	}
	if lossy1.ResyncWindowMisses > cold.ResyncWindowMisses {
		return fail("faulted DS missed more than cold handoffs: %d > %d", lossy1.ResyncWindowMisses, cold.ResyncWindowMisses)
	}
	if lossy1.DSRecordsDropped == 0 {
		return fail("DS fault inert: no replication records dropped at DSLoss=%v", cfg.DSLoss)
	}
	return res, nil
}
