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
//     bytes), identical counters and arrival logs for every client and
//     cohort member, and bit-identical energy breakdowns (compared
//     with ==, never a tolerance) — while an Invariants checker on
//     every shard records no violation. K=1 is the single-AP network
//     itself.
//  2. Under churn and a lossy distribution system, the ESS stays
//     deterministic: the same seed produces the same shard
//     fingerprints and stats for any worker count, and the
//     replicated-handoff miss count stays between the lossless-warm
//     floor (zero) and the cold ceiling.
package check

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/ess"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

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
		invs[i].Finish(core.ReplayEnd(tr))
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

// compareESS replays tr on a roam-free ESS of k shards and on its
// reference (runNetworkSide), and returns the reference sides and the
// first mismatch ("" = exact).
func compareESS(ctx context.Context, tr *trace.Trace, cfg core.NetworkConfig, k int, mode station.Mode, open []uint16, pop []int, devs []energy.Profile) ([]*equivSide, string, error) {
	es, bssids, err := runESSSide(ctx, tr, cfg, k, mode, open, pop)
	if err != nil {
		return nil, "", fmt.Errorf("ess side: %w", err)
	}
	ref, err := runNetworkSide(tr, cfg, bssids, mode, open, pop)
	if err != nil {
		return nil, "", fmt.Errorf("network side: %w", err)
	}
	return ref, diffESS(es, ref, devs, core.ReplayEnd(tr)), nil
}

// diffESS names the first shard whose ESS side broke an invariant or
// diverges from its reference under diffSides ("" = exact).
func diffESS(es, ref []*equivSide, devs []energy.Profile, window time.Duration) string {
	for i := range es {
		if v := es[i].violations; len(v) > 0 {
			return fmt.Sprintf("shard %d: %d invariant violation(s), first %v", i, len(v), v[0])
		}
		if d := diffSides(es[i], ref[i], "ess", "network", devs, window); d != "" {
			return fmt.Sprintf("shard %d %s", i, d)
		}
	}
	return ""
}

// RunESSEquivCellContext runs one K=1 comparison: a one-shard ESS of
// c.Size stations against the plain core.Network.
func RunESSEquivCellContext(ctx context.Context, c EquivCell, cfg EquivConfig) (EquivResult, error) {
	cfg = cfg.normalized()
	tr, open, err := equivTrace(c.Scenario, c.Size, cfg)
	if err != nil {
		return EquivResult{}, err
	}
	mode, err := modeFor(c.Policy)
	if err != nil {
		return EquivResult{}, err
	}
	ncfg := core.NetworkConfig{DTIMPeriod: 1, HIDE: c.Policy == policy.HIDE, Seed: cfg.Seed}
	ref, mismatch, err := compareESS(ctx, tr, ncfg, 1, mode, open, make([]int, c.Size), cfg.Devices)
	if err != nil {
		return EquivResult{}, fmt.Errorf("check: %v %w", c, err)
	}
	return EquivResult{Cell: c, Frames: ref[0].frames, Mismatch: mismatch}, nil
}

// DefaultESSEquivMatrix covers the K=1 acceptance grid: the three
// compared policies × three scenario traces spanning the load range
// (Starbucks lightest, Classroom heaviest), four stations each.
func DefaultESSEquivMatrix() EquivMatrix {
	return EquivMatrix{
		Policies:  []policy.Kind{policy.ReceiveAll, policy.ClientSide, policy.HIDE},
		Scenarios: []trace.Scenario{trace.Classroom, trace.Starbucks, trace.WRL},
		Sizes:     []int{4},
	}
}

// The roam-under-fault check's fixed churn: a 2-minute Classroom
// trace through 4 APs whose 12 stations roam 3 times a minute over an
// aggressively lossy distribution system.
const (
	roamFaultAPs      = 4
	roamFaultStations = 12
	roamFaultRate     = 3   // roams per station per minute
	roamFaultDSLoss   = 0.5 // DS-channel drop probability
	roamFaultDuration = 2 * time.Minute
)

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

// RunESSRoamFaultContext drives the churn-under-DS-fault check, with
// seed driving trace generation and mobility:
//
//   - invariants: a runtime checker watches every shard of every run,
//     and no run may violate a rule;
//   - determinism: the lossy run, repeated with the same seed at
//     worker counts 1 and 4, produces identical shard fingerprints
//     and identical stats;
//   - ordering: lossless replication records zero resync-window
//     misses, and the faulted DS lands between the warm floor and
//     the cold ceiling;
//   - liveness: roams happen in every regime and dropped DS records
//     are actually observed.
func RunESSRoamFaultContext(ctx context.Context, seed uint64) (ESSRoamFaultResult, error) {
	var violation string // the first invariant violation of any run
	run := func(replicate bool, dsLoss float64, workers int) ([]uint64, ess.Stats, error) {
		tr, err := oracleTrace(trace.Classroom, seed, roamFaultDuration)
		if err != nil {
			return nil, ess.Stats{}, err
		}
		open := sortedPorts(trace.OpenPortsForFraction(tr, defaultUsefulTarget))
		e, err := ess.New(ess.Config{
			APs: roamFaultAPs,
			Network: core.NetworkConfig{
				DTIMPeriod: 1,
				HIDE:       true,
				Harden:     true,
				Seed:       seed,
			},
			Replicate: replicate,
			RoamRate:  roamFaultRate,
			RoamSeed:  seed ^ 0xa24baed4963ee407,
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
		for i := 0; i < roamFaultStations; i++ {
			if _, err := e.AddStation(station.HIDE, open, 1); err != nil {
				return nil, ess.Stats{}, err
			}
		}
		// Each station has one observer slot, so a roamed station keeps
		// reporting to the checker of the shard it started on. That is
		// correct: the station rules are per station.
		invs := make([]*Invariants, len(e.Shards()))
		for i, sh := range e.Shards() {
			invs[i] = NewInvariants()
			invs[i].Watch(sh.Net)
		}
		if err := e.RunContext(ctx, tr); err != nil {
			return nil, ess.Stats{}, err
		}
		for i, inv := range invs {
			inv.Finish(core.ReplayEnd(tr))
			if err := inv.Err(); err != nil && violation == "" {
				violation = fmt.Sprintf("shard %d (replicate %v, DS loss %v, %d workers): %v", i, replicate, dsLoss, workers, err)
			}
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

	lossyFP1, lossy1, err := run(true, roamFaultDSLoss, 1)
	if err != nil {
		return res, err
	}
	lossyFP4, lossy4, err := run(true, roamFaultDSLoss, 4)
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

	if violation != "" {
		return fail("%s", violation)
	}
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
		return fail("DS fault inert: no replication records dropped at DSLoss=%v", roamFaultDSLoss)
	}
	return res, nil
}
