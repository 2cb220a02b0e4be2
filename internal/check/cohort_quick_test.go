package check

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

// Property tests for cohort divergence: a fault plan hitting a member
// subset must split the cohort into exactly the population the
// expanded stations form on their own, and splitting is insensitive to
// the order the cuts are applied in. Both properties reuse the
// equivalence machinery's observables, so "the same" means
// byte-identical frames and bit-identical counters — not "close".

// quickCohortSize keeps the property runs cheap: big enough for
// interesting subsets (interior windows, prefix, suffix, full), small
// enough that one iteration is two sub-second replays.
const quickCohortSize = 6

// quickMemberAddrs returns the member MAC addresses a cohort of size
// members gets on a fresh network — the address plan is deterministic,
// so a throwaway network answers for every run.
func quickMemberAddrs(t *testing.T, size int) []dot11.MACAddr {
	t.Helper()
	n, err := core.NewNetwork(core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.AddCohort(station.HIDE, []uint16{5353}, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]dot11.MACAddr, size)
	for i := range addrs {
		addrs[i] = c.MemberAddr(i)
	}
	return addrs
}

// faultSpec is a randomized channel fault against a member subset:
// members [Lo, Hi) suffer Effect on the listed group-frame kinds with
// probability P from From onward. Group frames only — per-member
// unicast (the handshake ACKs) is serialized by receiver, so a
// targeted unicast fault never needs a cohort split to express.
type faultSpec struct {
	Lo, Hi   int
	Effect   int // 0 drop, 1 corrupt, 2 duplicate
	Beacons  bool
	Data     bool
	P        float64
	From     time.Duration
	Scenario int
}

// Generate implements quick.Generator.
func (faultSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	lo := r.Intn(quickCohortSize)
	s := faultSpec{
		Lo:       lo,
		Hi:       lo + 1 + r.Intn(quickCohortSize-lo),
		Effect:   r.Intn(3),
		Beacons:  r.Intn(2) == 0,
		Data:     r.Intn(2) == 0,
		P:        0.2 + 0.6*r.Float64(),
		From:     time.Duration(r.Intn(10)) * time.Second,
		Scenario: r.Intn(2),
	}
	if !s.Beacons && !s.Data {
		s.Data = true
	}
	return reflect.ValueOf(s)
}

// plan materializes the spec against concrete member addresses. Built
// fresh per network: the combinators are stateless, but the contract
// is one plan instance per medium.
func (s faultSpec) plan(addrs []dot11.MACAddr) fault.Plan {
	var inner fault.Plan
	switch s.Effect {
	case 0:
		inner = fault.Loss{P: s.P}
	case 1:
		inner = fault.Corrupt{P: s.P}
	default:
		inner = fault.Duplicate{P: s.P}
	}
	var kinds []dot11.FrameKind
	if s.Beacons {
		kinds = append(kinds, dot11.KindBeacon)
	}
	if s.Data {
		kinds = append(kinds, dot11.KindData)
	}
	inner = fault.Only(inner, kinds...)
	var per []fault.Plan
	for _, a := range addrs[s.Lo:s.Hi] {
		per = append(per, fault.To(a, fault.Window{From: s.From, Inner: inner}))
	}
	return fault.Compose(per...)
}

func (s faultSpec) scenario() trace.Scenario {
	if s.Scenario == 0 {
		return trace.Classroom
	}
	return trace.WRL
}

// TestQuickCohortFaultSubsetEquivalence: for random subset faults, the
// cohort run (which must split lazily wherever the verdicts diverge)
// stays observation-identical to the expanded run, where each station
// weathers its own faults.
func TestQuickCohortFaultSubsetEquivalence(t *testing.T) {
	addrs := quickMemberAddrs(t, quickCohortSize)
	iter := 0
	maxCount := 25
	if testing.Short() {
		maxCount = 8
	}
	prop := func(s faultSpec) bool {
		iter++
		res, err := RunEquivCell(context.Background(),
			EquivCell{Policy: policy.HIDE, Scenario: s.scenario(), Size: quickCohortSize},
			EquivConfig{
				Duration: 30 * time.Second,
				Seed:     uint64(iter),
				Devices:  []energy.Profile{energy.NexusOne},
				Fault:    func() fault.Plan { return s.plan(addrs) },
			})
		if err != nil {
			t.Logf("%+v: %v", s, err)
			return false
		}
		if !res.OK() {
			t.Logf("%+v: %s", s, res.Mismatch)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// cutPlan is a randomized set of split points, kept in the generated
// (arbitrary) order.
type cutPlan struct {
	Cuts []int
}

// Generate implements quick.Generator: up to three distinct interior
// cut points of a quickCohortSize-member cohort, shuffled.
func (cutPlan) Generate(r *rand.Rand, _ int) reflect.Value {
	perm := r.Perm(quickCohortSize - 1)
	n := 1 + r.Intn(3)
	if n > len(perm) {
		n = len(perm)
	}
	cuts := make([]int, n)
	for i := 0; i < n; i++ {
		cuts[i] = perm[i] + 1 // interior: 1..size-1
	}
	return reflect.ValueOf(cutPlan{Cuts: cuts})
}

// splitAtAbsolute splits the cohort family at an absolute member index
// of the original cohort, locating the segment the cut falls in.
func splitAtAbsolute(c *station.CohortStation, abs int) error {
	off := 0
	for _, s := range c.Segments() {
		if abs < off+s.Count() {
			if abs == off {
				return nil // already a segment boundary
			}
			_, err := s.Split(abs - off)
			return err
		}
		off += s.Count()
	}
	return nil
}

// splitRun builds a cohort, applies the cuts in the given order before
// the replay, and returns the observables plus the final segment
// widths.
func splitRun(t *testing.T, cuts []int, seed uint64) (*equivSide, []int) {
	t.Helper()
	tr, err := oracleTrace(trace.Classroom, seed, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	open := sortedPorts(trace.OpenPortsForFraction(tr, 0.10))
	n, err := core.NewNetwork(core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d := newAirDigest()
	n.Medium.SetTap(d.tap)
	c, err := n.AddCohort(station.HIDE, open, quickCohortSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		if err := splitAtAbsolute(c, cut); err != nil {
			t.Fatalf("split at %d (cuts %v): %v", cut, cuts, err)
		}
	}
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}
	var widths []int
	for _, s := range c.Segments() {
		widths = append(widths, s.Count())
	}
	return networkSide(d, n), widths
}

// TestQuickCohortSplitOrderInsensitive: applying the same cuts in any
// order yields the same segment partition and an observation-identical
// run — a split cohort is indistinguishable from cohorts built that
// way at setup, however it got split.
func TestQuickCohortSplitOrderInsensitive(t *testing.T) {
	iter := 0
	maxCount := 20
	if testing.Short() {
		maxCount = 6
	}
	prop := func(p cutPlan) bool {
		iter++
		seed := uint64(iter)
		rev := make([]int, len(p.Cuts))
		for i, c := range p.Cuts {
			rev[len(p.Cuts)-1-i] = c
		}
		a, aw := splitRun(t, p.Cuts, seed)
		b, bw := splitRun(t, rev, seed)
		if !reflect.DeepEqual(aw, bw) {
			t.Logf("cuts %v: segment widths %v vs reversed %v", p.Cuts, aw, bw)
			return false
		}
		window := 30*time.Second + dot11.DefaultBeaconInterval
		if d := diffSides(a, b, "cuts", "reversed", []energy.Profile{energy.NexusOne}, window); d != "" {
			t.Logf("cuts %v vs reversed: %s", p.Cuts, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}
