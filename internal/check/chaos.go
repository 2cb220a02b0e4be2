package check

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/station"
	"repro/internal/trace"
)

// ChaosBudget carries the fault accounting a scenario's MissBudget
// closure may price wanted-frame loss against: the "no wanted
// broadcast lost beyond the faulted frame itself" invariant compares
// the measured station's miss count to a bound derived from the
// faults actually injected.
type ChaosBudget struct {
	// DataFaults counts data-frame deliveries to the measured station
	// that the channel plan dropped or corrupted.
	DataFaults int
	// GroupFramesLost counts buffered group frames the AP wiped on
	// Restart.
	GroupFramesLost int
	// BlindWanted counts wanted frames enqueued between an AP restart
	// and the first post-restart beacon: they flush against a
	// still-empty Client UDP Port Table before the station has had any
	// chance to re-register, so their loss is inherent to the restart,
	// not a protocol defect.
	BlindWanted int
}

// ChaosScenario is one named fault regime the chaos grid drives the
// hardened protocol through. Channel faults come from Plan; entity
// faults (client crash, AP restart) are scheduled as simulation
// events halfway through the trace. All channel faults are windowed
// to end with the trace so post-recovery convergence is asserted on a
// clean channel.
type ChaosScenario struct {
	// Name labels the scenario in reports and -fault flags.
	Name string
	// Note is a one-line description.
	Note string
	// Plan builds a fresh channel fault plan for one run (stateful
	// channels like Gilbert–Elliott must not be shared between runs).
	// Nil means the channel is pristine (entity-fault scenarios).
	Plan func() fault.Plan
	// CrashVictim crashes the second station (no deregistration)
	// halfway through the trace.
	CrashVictim bool
	// RestartAP power-cycles the AP (wiping the Client UDP Port Table)
	// halfway through the trace.
	RestartAP bool
	// MissBudget bounds how many wanted broadcasts the measured
	// station may miss. Nil leaves the miss count unasserted (regimes
	// where secondary loss is legitimate, e.g. lost end-of-burst
	// markers truncating a listen window).
	MissBudget func(b ChaosBudget) int
	// WantGiveUps asserts the retry budget was actually exhausted at
	// least once (the scenario exists to exercise that path).
	WantGiveUps bool
	// WantRetries asserts at least one port-message retransmission
	// happened.
	WantRetries bool
}

// mustGE builds a Gilbert–Elliott channel from literal probabilities.
func mustGE(pGoodBad, pBadGood, lossGood, lossBad float64) fault.Plan {
	g, err := fault.NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad)
	if err != nil {
		panic(fmt.Sprintf("check: chaos scenario: %v", err))
	}
	return g
}

// DefaultChaosScenarios returns the standard fault grid: each channel
// scenario isolates one protocol mechanism, the entity scenarios
// exercise the TTL and restart-detection hardening, and kitchen-sink
// layers everything at once.
func DefaultChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			Name: "bursty-loss",
			Note: "Gilbert-Elliott channel: light loss with heavy-loss bursts",
			Plan: func() fault.Plan { return mustGE(0.05, 0.25, 0.01, 0.6) },
		},
		{
			Name: "beacon-drops",
			Note: "60% of beacons lost; fail-safe must cover every announced burst",
			Plan: func() fault.Plan {
				return fault.Only(fault.Loss{P: 0.6}, dot11.KindBeacon)
			},
			MissBudget: func(ChaosBudget) int { return 0 },
		},
		{
			Name: "portmsg-drops",
			Note: "60% of UDP Port Messages lost; retry/backoff must converge",
			Plan: func() fault.Plan {
				return fault.Only(fault.Loss{P: 0.6}, dot11.KindUDPPortMessage)
			},
			WantRetries: true,
		},
		{
			Name: "ack-drops",
			Note: "90% of ACKs lost; stations exhaust retries and give up cleanly",
			Plan: func() fault.Plan {
				return fault.Only(fault.Loss{P: 0.9}, dot11.KindACK)
			},
			MissBudget:  func(ChaosBudget) int { return 0 },
			WantGiveUps: true,
		},
		{
			Name: "corrupt-dup",
			Note: "15% corruption + 15% duplication; parsers eat garbage, state machines survive replays",
			Plan: func() fault.Plan {
				return fault.Compose(fault.Corrupt{P: 0.15}, fault.Duplicate{P: 0.15})
			},
			MissBudget: func(b ChaosBudget) int { return b.DataFaults },
		},
		{
			Name:        "client-crash",
			Note:        "client dies without deregistering; TTL must clear its stale entries",
			CrashVictim: true,
			MissBudget:  func(ChaosBudget) int { return 0 },
		},
		{
			Name:      "ap-restart",
			Note:      "AP power-cycle wipes the port table; timestamp regression triggers re-registration",
			RestartAP: true,
			MissBudget: func(b ChaosBudget) int {
				return b.GroupFramesLost + b.BlindWanted
			},
		},
		{
			Name: "kitchen-sink",
			Note: "bursty loss + corruption + duplication + client crash + AP restart",
			Plan: func() fault.Plan {
				return fault.Compose(
					mustGE(0.05, 0.25, 0.01, 0.5),
					fault.Corrupt{P: 0.05},
					fault.Duplicate{P: 0.05},
				)
			},
			CrashVictim: true,
			RestartAP:   true,
		},
	}
}

// ScenariosByName resolves a comma-separated list of scenario names
// against DefaultChaosScenarios; "all" (or "") selects every scenario.
func ScenariosByName(names string) ([]ChaosScenario, error) {
	all := DefaultChaosScenarios()
	if names == "" || names == "all" {
		return all, nil
	}
	var picked []ChaosScenario
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, sc := range all {
			if sc.Name == name {
				picked = append(picked, sc)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("check: unknown fault scenario %q", name)
		}
	}
	return picked, nil
}

// ChaosConfig parameterizes the chaos grid.
type ChaosConfig struct {
	// Scenarios defaults to DefaultChaosScenarios.
	Scenarios []ChaosScenario
	// Traces defaults to {Starbucks, CSDept} — a light and a medium
	// trace keep the grid fast while covering both burst densities.
	Traces []trace.Scenario
	// Duration truncates the generated traces (default 60 s).
	Duration time.Duration
	// Seeds defaults to {1, 2}; every cell runs per seed, twice, and
	// the two same-seed runs must produce identical statistics.
	Seeds []uint64
	// Workers bounds grid parallelism (0 = GOMAXPROCS).
	Workers int
}

// normalized fills defaults.
func (c ChaosConfig) normalized() ChaosConfig {
	if len(c.Scenarios) == 0 {
		c.Scenarios = DefaultChaosScenarios()
	}
	if len(c.Traces) == 0 {
		c.Traces = []trace.Scenario{trace.Starbucks, trace.CSDept}
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2}
	}
	return c
}

// ChaosResult is one grid cell's outcome.
type ChaosResult struct {
	Scenario string
	Trace    trace.Scenario
	Seed     uint64

	// WantedSent and WantedGot count broadcasts on the measured
	// station's open ports: sent into the network vs received useful.
	WantedSent int
	WantedGot  int
	// Budget is the asserted miss bound, -1 when the scenario leaves
	// the miss count unasserted.
	Budget int
	// FaultsInjected counts faulted deliveries (0 for entity-only
	// scenarios).
	FaultsInjected int
	// FailSafeBursts, GiveUps, Retries, RestartsSeen aggregate the
	// hardening counters across live stations.
	FailSafeBursts int
	GiveUps        int
	Retries        int
	RestartsSeen   int

	// Violations are runtime invariant breaches; Failures are
	// chaos-specific assertion breaches (convergence, budgets,
	// determinism).
	Violations []Violation
	Failures   []string
}

// OK reports whether the cell passed every assertion.
func (r ChaosResult) OK() bool {
	return len(r.Violations) == 0 && len(r.Failures) == 0
}

// String summarizes the cell.
func (r ChaosResult) String() string {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations, %d failures)",
			len(r.Violations), len(r.Failures))
	}
	return fmt.Sprintf("%s/%s/seed%d: %s", r.Scenario, r.Trace, r.Seed, status)
}

// chaosProbeCount is how many post-recovery probe broadcasts each run
// injects on the probe port; every live subscribed station must
// receive all of them.
const chaosProbeCount = 4

// chaosRun drives one hardened network through one fault scenario and
// returns the cell result plus a fingerprint of every statistic, used
// by the caller to assert same-seed determinism.
func chaosRun(sc ChaosScenario, ts trace.Scenario, seed uint64, duration time.Duration) (ChaosResult, string, error) {
	res := ChaosResult{Scenario: sc.Name, Trace: ts, Seed: seed, Budget: -1}
	tr, err := oracleTrace(ts, seed, duration)
	if err != nil {
		return res, "", err
	}

	// Port layout: ~10% of trace traffic is wanted, plus one probe
	// port carrying only the post-recovery probes.
	open := trace.OpenPortsForFraction(tr, defaultUsefulTarget)
	probePort := uint16(40000)
	hist := tr.PortHistogram()
	for hist[probePort] > 0 || open[probePort] {
		probePort++
	}
	wantedPorts := make([]uint16, 0, len(open)+1)
	wantedPorts = append(wantedPorts, sortedPorts(open)...)
	subsetPorts := make([]uint16, 0, len(open)/2+1)
	for i, p := range sortedPorts(open) {
		if i%2 == 0 {
			subsetPorts = append(subsetPorts, p)
		}
	}
	wantedPorts = append(wantedPorts, probePort)
	subsetPorts = append(subsetPorts, probePort)

	var rec *fault.Recorder
	var plan fault.Plan
	if sc.Plan != nil {
		// Window every channel fault to the trace so the probe phase
		// runs on a clean channel.
		rec = fault.NewRecorder(fault.Window{To: tr.Duration, Inner: sc.Plan()})
		plan = rec
	}
	n, err := core.NewNetwork(core.NetworkConfig{
		HIDE:   true,
		Harden: true,
		Seed:   seed,
		Fault:  plan,
	})
	if err != nil {
		return res, "", err
	}
	st0, err := n.AddStation(station.HIDE, wantedPorts) // measured
	if err != nil {
		return res, "", err
	}
	st1, err := n.AddStation(station.HIDE, wantedPorts) // crash victim
	if err != nil {
		return res, "", err
	}
	st2, err := n.AddStation(station.HIDE, subsetPorts) // partial overlap
	if err != nil {
		return res, "", err
	}

	inv := NewInvariants()
	inv.Watch(n)

	// Entity faults fire halfway through the trace.
	half := tr.Duration / 2
	if sc.CrashVictim {
		n.Engine.MustScheduleAt(half, func(time.Duration) { st1.Crash() })
	}
	if sc.RestartAP {
		n.Engine.MustScheduleAt(half, func(time.Duration) { n.AP.Restart() })
	}

	// Post-recovery probes: broadcasts on the probe port, injected
	// after the trace (and every fault) ends. Convergence means every
	// live subscribed station receives all of them, each flushed
	// within one DTIM span of injection. The settle window before the
	// first probe must outlast the worst-case retransmission drain — a
	// station caught mid-backoff at fault end waits up to
	// 16 x AckTimeout x 1.25 (= 1.2 s) before it can re-register — so
	// four DTIM spans, not two.
	interval := dot11.DefaultBeaconInterval
	dtimSpan := ap.DefaultDTIMPeriod * interval
	probeStart := tr.Duration + interval + 4*dtimSpan
	for i := 0; i < chaosProbeCount; i++ {
		at := probeStart + time.Duration(i)*dtimSpan
		n.Engine.MustScheduleAt(at, func(time.Duration) {
			n.AP.EnqueueGroup(dot11.UDPDatagram{
				DstIP:   [4]byte{255, 255, 255, 255},
				DstPort: probePort,
				Payload: make([]byte, 180),
			}, dot11.Rate2Mbps)
		})
	}
	end := probeStart + time.Duration(chaosProbeCount+2)*dtimSpan

	if err := n.Replay(tr); err != nil {
		return res, "", err
	}
	n.Engine.RunUntil(end)
	inv.Finish(end)
	res.Violations = inv.Violations()

	s0, s1, s2 := st0.Stats(), st1.Stats(), st2.Stats()
	apStats := n.AP.Stats()
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// Wanted-broadcast accounting for the measured station.
	for _, f := range tr.Frames {
		if open[f.DstPort] {
			res.WantedSent++
		}
	}
	res.WantedSent += chaosProbeCount
	res.WantedGot = s0.GroupUseful
	if rec != nil {
		res.FaultsInjected = rec.Total()
	}
	res.FailSafeBursts = s0.FailSafeBursts + s2.FailSafeBursts
	res.GiveUps = s0.PortMsgGivenUp + s2.PortMsgGivenUp
	res.Retries = s0.PortMsgRetries + s2.PortMsgRetries
	res.RestartsSeen = s0.APRestartsSeen + s2.APRestartsSeen

	if sc.MissBudget != nil {
		b := ChaosBudget{GroupFramesLost: apStats.GroupFramesLost}
		if rec != nil {
			b.DataFaults = rec.DataFaults(st0.Addr())
		}
		if sc.RestartAP {
			// Frames enqueued between the restart and the first
			// post-restart beacon flush against an empty port table
			// before any client can have re-registered.
			firstBeacon := (half/interval + 1) * interval
			blindEnd := firstBeacon + interval/2
			for _, f := range tr.Frames {
				if f.At > half && f.At <= blindEnd && open[f.DstPort] {
					b.BlindWanted++
				}
			}
		}
		res.Budget = sc.MissBudget(b)
		if missed := res.WantedSent - res.WantedGot; missed > res.Budget {
			fail("wanted-loss: station 0 missed %d wanted broadcasts, budget %d (sent %d, got %d)",
				missed, res.Budget, res.WantedSent, res.WantedGot)
		}
	}

	// Post-recovery convergence: every live subscribed station hears
	// every probe within the probe cadence (one probe per DTIM span).
	probeChecks := []struct {
		name    string
		st      *station.Station
		crashed bool
	}{
		{"station0", st0, false},
		{"station1", st1, sc.CrashVictim},
		{"station2", st2, false},
	}
	for _, pc := range probeChecks {
		if pc.crashed {
			continue
		}
		if got := usefulArrivalsSince(pc.st, probeStart); got != chaosProbeCount {
			fail("post-recovery convergence: %s received %d/%d probes", pc.name, got, chaosProbeCount)
		}
	}

	// Bounded useless wakeups: every wakeup traces back to a useful
	// frame, a fail-safe burst, or an injected fault (plus slack for
	// association-time transitions).
	if bound := s0.GroupUseful + s0.FailSafeBursts + res.FaultsInjected + 4; s0.Wakeups > bound {
		fail("bounded-wakeups: station 0 woke %d times, bound %d", s0.Wakeups, bound)
	}

	if sc.WantGiveUps && res.GiveUps == 0 {
		fail("scenario expected at least one exhausted retry budget, got none")
	}
	if sc.WantRetries && res.Retries == 0 {
		fail("scenario expected at least one port-message retry, got none")
	}
	if sc.CrashVictim {
		if ports := n.AP.Table().Ports(st1.AID()); len(ports) > 0 {
			fail("stale-entry expiry: crashed client still holds %d port entries at end", len(ports))
		}
		// When the AP also restarts, the wipe may clear the victim's
		// entry before the TTL sweep ever sees it go stale.
		if apStats.PortEntriesExpired == 0 && !sc.RestartAP {
			fail("stale-entry expiry: TTL sweep never expired the crashed client")
		}
	}
	if sc.RestartAP {
		if apStats.Restarts != 1 {
			fail("ap-restart: expected 1 restart, stats report %d", apStats.Restarts)
		}
		if s0.APRestartsSeen == 0 {
			fail("ap-restart: measured station never detected the timestamp regression")
		}
	}

	fp := fmt.Sprintf("%+v|%+v|%+v|%+v|%+v|%d|%d",
		s0, s1, s2, apStats, n.Medium.Stats, len(res.Violations), res.WantedGot)
	return res, fp, nil
}

// usefulArrivalsSince counts full-wakelock arrivals at or after from.
func usefulArrivalsSince(st *station.Station, from time.Duration) int {
	n := 0
	for _, a := range st.Arrivals() {
		if a.At >= from && a.Wakelock >= energy.Tau {
			n++
		}
	}
	return n
}

// RunChaosGrid runs every (scenario × trace × seed) cell — twice each,
// asserting same-seed determinism — across the parallel engine and
// returns one result per cell. The error reports infrastructure
// problems only; assertion outcomes live in the results.
func RunChaosGrid(ctx context.Context, cfg ChaosConfig) ([]ChaosResult, error) {
	cfg = cfg.normalized()
	type cell struct {
		sc   ChaosScenario
		ts   trace.Scenario
		seed uint64
	}
	var cells []cell
	for _, sc := range cfg.Scenarios {
		for _, ts := range cfg.Traces {
			for _, seed := range cfg.Seeds {
				cells = append(cells, cell{sc: sc, ts: ts, seed: seed})
			}
		}
	}
	return engine.Map(ctx, cfg.Workers, len(cells), func(_ context.Context, i int) (ChaosResult, error) {
		c := cells[i]
		res, fp1, err := chaosRun(c.sc, c.ts, c.seed, cfg.Duration)
		if err != nil {
			return ChaosResult{}, fmt.Errorf("chaos %s/%s/seed%d: %w", c.sc.Name, c.ts, c.seed, err)
		}
		res2, fp2, err := chaosRun(c.sc, c.ts, c.seed, cfg.Duration)
		if err != nil {
			return ChaosResult{}, fmt.Errorf("chaos %s/%s/seed%d (rerun): %w", c.sc.Name, c.ts, c.seed, err)
		}
		if fp1 != fp2 || len(res2.Failures) != len(res.Failures) {
			res.Failures = append(res.Failures,
				"determinism: two same-seed runs diverged (fault plans must draw only from the medium RNG)")
		}
		return res, nil
	})
}

// ChaosErr folds the grid outcome into a single error naming the
// failing cells, nil when every cell passed.
func ChaosErr(results []ChaosResult) error {
	return failErr("chaos cells failed", results, ChaosResult.OK, ChaosResult.String)
}

// ChaosReport renders the grid outcome as a fixed-width table with
// one line per cell, followed by details for any failing cell.
func ChaosReport(results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-10s %5s %7s %13s %7s %9s %8s %7s %s\n",
		"scenario", "trace", "seed", "faults", "wanted", "budget", "failsafe", "giveups", "retries", "status")
	for _, r := range results {
		budget := "-"
		if r.Budget >= 0 {
			budget = fmt.Sprintf("%d", r.Budget)
		}
		status := "ok"
		if !r.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-13s %-10s %5d %7d %6d/%-6d %7s %9d %8d %7d %s\n",
			r.Scenario, r.Trace, r.Seed, r.FaultsInjected,
			r.WantedGot, r.WantedSent, budget,
			r.FailSafeBursts, r.GiveUps, r.Retries, status)
	}
	for _, r := range results {
		if r.OK() {
			continue
		}
		fmt.Fprintf(&b, "\n%s/%s/seed%d:\n", r.Scenario, r.Trace, r.Seed)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  invariant: %s\n", v)
		}
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	return b.String()
}
