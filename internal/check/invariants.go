package check

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/station"
)

// Rule names the protocol invariants the harness asserts.
const (
	// RuleBTIMSound: a BTIM bit is set only for an associated client
	// whose registered ports include some buffered frame's destination
	// port (Algorithm 1 soundness).
	RuleBTIMSound = "btim-soundness"
	// RuleBTIMComplete: every associated client registered on a
	// buffered frame's destination port has its BTIM bit set
	// (Algorithm 1 completeness).
	RuleBTIMComplete = "btim-completeness"
	// RuleTIMBroadcast: the TIM broadcast bit is set only on DTIM
	// beacons with group frames actually buffered.
	RuleTIMBroadcast = "tim-broadcast"
	// RuleGroupConservation: group frames are conserved at the AP
	// (enqueued = transmitted + still buffered + lost on restart),
	// checked on every event.
	RuleGroupConservation = "group-conservation"
	// RuleUnicastConservation: unicast frames are conserved at the AP
	// (enqueued = served + filtered + pending + lost on restart),
	// checked on every event.
	RuleUnicastConservation = "unicast-conservation"
	// RuleTimeline: station suspend/awake transitions alternate with
	// monotone timestamps, so the intervals are disjoint and cover the
	// run.
	RuleTimeline = "suspend-timeline"
	// RuleArrivalOrder: the station's arrival log is monotone in time
	// with physically sensible fields.
	RuleArrivalOrder = "arrival-order"
	// RuleEnergyNonNegative: every energy component computed over any
	// checked arrival prefix is non-negative.
	RuleEnergyNonNegative = "energy-non-negative"
)

// Violation is one observed invariant breach.
type Violation struct {
	At     time.Duration
	Rule   string
	Detail string
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v %s: %s", v.At, v.Rule, v.Detail)
}

// Invariants is the pluggable runtime checker: attach it to a protocol
// simulation with Watch (or the finer-grained WatchAP/WatchStation)
// before running, then inspect Violations or Err afterwards. It is
// enabled by default in the differential-oracle tests and behind the
// -invariants flag in cmd/crosscheck.
type Invariants struct {
	// FailFast makes the first violation panic, pinpointing the exact
	// simulation event that broke the invariant (useful under tests).
	FailFast bool

	// mu guards violations and seenRule: in an ESS, a station that
	// roamed records from another shard's goroutine.
	mu         sync.Mutex
	violations []Violation
	seenRule   map[string]int
	ap         *ap.AP
	stations   []*stationWatch
}

// maxViolationsPerRule bounds recording so a per-event breach cannot
// accumulate millions of duplicates.
const maxViolationsPerRule = 8

// NewInvariants returns an empty checker.
func NewInvariants() *Invariants {
	return &Invariants{seenRule: make(map[string]int)}
}

// Watch attaches the checker to a core.Network: AP observer, a
// per-event engine hook for the conservation equations, and a
// lifecycle observer on every attached station. Call it after the
// stations have been added and before the replay runs.
func (inv *Invariants) Watch(n *core.Network) {
	inv.WatchAP(n.Engine, n.AP)
	for _, st := range n.Stations() {
		inv.WatchStation(st)
	}
	for _, c := range n.Cohorts() {
		inv.WatchStation(c.Template())
	}
}

// WatchAP installs the AP beacon observer and the per-event
// conservation hook.
func (inv *Invariants) WatchAP(eng *sim.Engine, a *ap.AP) {
	inv.ap = a
	a.AddObserver(inv)
	eng.AddHook(inv.eventHook)
}

// WatchStation installs the suspend-timeline and arrival-log observer.
func (inv *Invariants) WatchStation(st *station.Station) {
	w := &stationWatch{inv: inv, st: st, idx: len(inv.stations)}
	inv.stations = append(inv.stations, w)
	st.SetObserver(w)
}

// Violations returns everything recorded so far.
func (inv *Invariants) Violations() []Violation {
	return append([]Violation(nil), inv.violations...)
}

// Err returns nil if no invariant was violated, otherwise an error
// summarizing the breaches.
func (inv *Invariants) Err() error {
	if len(inv.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", len(inv.violations))
	for _, v := range inv.violations {
		b.WriteString("\n  " + v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// record stores (or panics on) a violation, capped per rule.
func (inv *Invariants) record(at time.Duration, rule, detail string) {
	v := Violation{At: at, Rule: rule, Detail: detail}
	if inv.FailFast {
		panic("check: invariant violated: " + v.String())
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.seenRule == nil {
		inv.seenRule = make(map[string]int)
	}
	if inv.seenRule[rule] >= maxViolationsPerRule {
		return
	}
	inv.seenRule[rule]++
	inv.violations = append(inv.violations, v)
}

// eventHook runs the AP conservation equations after every simulation
// event.
func (inv *Invariants) eventHook(now time.Duration) {
	st := inv.ap.Stats()
	if pending := inv.ap.BufferedGroupFrames(); st.GroupFramesEnqueued != st.GroupFramesSent+pending+st.GroupFramesLost {
		inv.record(now, RuleGroupConservation,
			fmt.Sprintf("enqueued %d != sent %d + buffered %d + lost %d",
				st.GroupFramesEnqueued, st.GroupFramesSent, pending, st.GroupFramesLost))
	}
	if pending := inv.ap.PendingUnicast(); st.UnicastEnqueued != st.PSPollsServed+st.UnicastFiltered+pending+st.UnicastFramesLost {
		inv.record(now, RuleUnicastConservation,
			fmt.Sprintf("enqueued %d != served %d + filtered %d + pending %d + lost %d",
				st.UnicastEnqueued, st.PSPollsServed, st.UnicastFiltered, pending, st.UnicastFramesLost))
	}
}

var _ ap.Observer = (*Invariants)(nil)

// BeaconBuilt implements ap.Observer: it re-runs Algorithm 1 from the
// buffered frames' ports and each associated client's registered ports
// (not the listener bitmaps the AP ORs, which must agree with them),
// asserts the emitted BTIM equals it in both directions, plus the TIM
// broadcast-bit rule.
func (inv *Invariants) BeaconBuilt(now time.Duration, v ap.BeaconView) {
	buffered := len(v.BufferedPorts)
	if tim := v.Beacon.TIM; tim != nil {
		if tim.Broadcast && (!v.IsDTIM || buffered == 0) {
			inv.record(now, RuleTIMBroadcast,
				fmt.Sprintf("broadcast bit set with dtim=%v buffered=%d", v.IsDTIM, buffered))
		}
		if (tim.DTIMCount == 0) != v.IsDTIM {
			inv.record(now, RuleTIMBroadcast,
				fmt.Sprintf("DTIM count %d inconsistent with dtim=%v", tim.DTIMCount, v.IsDTIM))
		}
	}
	if v.Beacon.BTIM == nil {
		return
	}
	got, err := dot11.Decompress(v.Beacon.BTIM.Offset, v.Beacon.BTIM.PartialBitmap)
	if err != nil {
		inv.record(now, RuleBTIMSound, fmt.Sprintf("BTIM does not decompress: %v", err))
		return
	}
	var want dot11.VirtualBitmap
	for _, c := range inv.ap.ClientList() {
		for _, port := range inv.ap.Table().Ports(c.AID) {
			if slices.Contains(v.BufferedPorts, port) {
				want.Set(c.AID)
				break
			}
		}
	}
	for aid := dot11.AID(1); aid <= dot11.MaxAID; aid++ {
		g, w := got.Get(aid), want.Get(aid)
		switch {
		case g && !w:
			inv.record(now, RuleBTIMSound,
				fmt.Sprintf("BTIM bit set for AID %d but it registered no buffered frame's port (ports %v)",
					aid, v.BufferedPorts))
		case !g && w:
			inv.record(now, RuleBTIMComplete,
				fmt.Sprintf("AID %d registered a buffered frame's port (ports %v) but its BTIM bit is clear",
					aid, v.BufferedPorts))
		}
	}
}

// Finish closes the per-station timelines at the run's end time and
// runs the final energy-sign checks. Call it once after the simulation
// completes; end is the total observation window.
func (inv *Invariants) Finish(end time.Duration) {
	for _, w := range inv.stations {
		w.finish(end)
	}
}

// stationWatch tracks one station's suspend timeline and arrival log.
type stationWatch struct {
	inv *Invariants
	st  *station.Station
	idx int

	transitions   int
	suspended     bool // tracked state (stations start awake)
	lastChange    time.Duration
	suspendedTime time.Duration
	lastArrival   time.Duration
	arrivals      int
}

var _ station.Observer = (*stationWatch)(nil)

// StateChanged implements station.Observer.
func (w *stationWatch) StateChanged(now time.Duration, suspended bool) {
	if now < w.lastChange {
		w.inv.record(now, RuleTimeline,
			fmt.Sprintf("station %d: transition at %v before previous at %v", w.idx, now, w.lastChange))
	}
	if suspended == w.suspended {
		w.inv.record(now, RuleTimeline,
			fmt.Sprintf("station %d: repeated transition to suspended=%v", w.idx, suspended))
		return
	}
	if w.suspended {
		w.suspendedTime += now - w.lastChange
	}
	w.suspended = suspended
	w.lastChange = now
	w.transitions++
}

// ArrivalRecorded implements station.Observer.
func (w *stationWatch) ArrivalRecorded(now time.Duration, a energy.Arrival) {
	if a.At < w.lastArrival {
		w.inv.record(now, RuleArrivalOrder,
			fmt.Sprintf("station %d: arrival at %v after one at %v", w.idx, a.At, w.lastArrival))
	}
	if a.Length <= 0 || a.Wakelock < 0 || a.Rate <= 0 {
		w.inv.record(now, RuleArrivalOrder,
			fmt.Sprintf("station %d: unphysical arrival %+v", w.idx, a))
	}
	w.lastArrival = a.At
	w.arrivals++
}

// energyPrefixChecks bounds how many arrival prefixes the final
// non-negativity sweep evaluates.
const energyPrefixChecks = 4

// finish closes the timeline and checks energy non-negativity over a
// few arrival prefixes.
func (w *stationWatch) finish(end time.Duration) {
	if w.suspended {
		w.suspendedTime += end - w.lastChange
	}
	if w.suspendedTime < 0 || w.suspendedTime > end {
		w.inv.record(end, RuleTimeline,
			fmt.Sprintf("station %d: suspended time %v outside [0, %v]", w.idx, w.suspendedTime, end))
	}
	if w.st.Suspended() != w.suspended {
		w.inv.record(end, RuleTimeline,
			fmt.Sprintf("station %d: tracked state %v disagrees with Suspended()=%v",
				w.idx, w.suspended, w.st.Suspended()))
	}
	arrivals := w.st.Arrivals()
	if len(arrivals) != w.arrivals {
		w.inv.record(end, RuleArrivalOrder,
			fmt.Sprintf("station %d: %d observed arrivals but log holds %d", w.idx, w.arrivals, len(arrivals)))
	}
	if end <= 0 {
		return
	}
	cfg := energy.Config{Device: energy.NexusOne, Duration: end}
	for i := 1; i <= energyPrefixChecks; i++ {
		n := len(arrivals) * i / energyPrefixChecks
		b, err := energy.Compute(arrivals[:n], cfg)
		if err != nil {
			w.inv.record(end, RuleEnergyNonNegative,
				fmt.Sprintf("station %d: energy model rejected prefix %d: %v", w.idx, n, err))
			continue
		}
		if b.EbJ < 0 || b.EfJ < 0 || b.EwlJ < 0 || b.EstJ < 0 || b.EoJ < 0 ||
			b.SuspendFraction < 0 || b.SuspendFraction > 1 {
			w.inv.record(end, RuleEnergyNonNegative,
				fmt.Sprintf("station %d: negative component over prefix %d: %+v", w.idx, n, b))
		}
	}
}
