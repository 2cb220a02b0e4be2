package control

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestPlanSpecRoundTrip marshals specs to JSON and back and checks
// the decoded spec still builds an equivalent plan.
func TestPlanSpecRoundTrip(t *testing.T) {
	specs := []PlanSpec{
		{Kind: "loss", P: 0.25},
		{Kind: "corrupt", P: 1},
		{Kind: "duplicate", P: 0},
		{Kind: "gilbert-elliott", PGoodBad: 0.1, PBadGood: 0.4, LossGood: 0.01, LossBad: 0.9},
		{Kind: "only", Frames: []string{"beacon", "data"}, Inner: &PlanSpec{Kind: "loss", P: 0.5}},
		{Kind: "to", To: "02:1d:e0:aa:00:10", Inner: &PlanSpec{Kind: "duplicate", P: 0.3}},
		{Kind: "window", FromMS: 100, UntilMS: 400, Inner: &PlanSpec{Kind: "loss", P: 1}},
		{Kind: "silence", To: "02:1d:e0:aa:00:10", FromMS: 250},
		{Kind: "compose", Plans: []PlanSpec{
			{Kind: "loss", P: 0.1},
			{Kind: "only", Frames: []string{"ack"}, Inner: &PlanSpec{Kind: "corrupt", P: 0.2}},
		}},
	}
	for _, spec := range specs {
		t.Run(spec.Kind, func(t *testing.T) {
			data, err := json.Marshal(&spec)
			if err != nil {
				t.Fatal(err)
			}
			var back PlanSpec
			if err := DecodeJSON(data, &back); err != nil {
				t.Fatalf("decode of own marshal failed: %v\n%s", err, data)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", spec, back)
			}
			p1, err := spec.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			p2, err := back.Build()
			if err != nil {
				t.Fatalf("Build after round trip: %v", err)
			}
			// Equivalence check: same verdicts for the same deliveries
			// from identically seeded RNGs.
			r1, r2 := sim.NewRNG(99), sim.NewRNG(99)
			d := fault.Delivery{Kind: dot11.KindData, At: 200 * time.Millisecond,
				Rcv: dot11.MACAddr{0x02, 0x1d, 0xe0, 0xaa, 0x00, 0x10}}
			for i := 0; i < 64; i++ {
				v1, v2 := p1.Deliver(d, r1), p2.Deliver(d, r2)
				if v1 != v2 {
					t.Fatalf("delivery %d: verdicts diverged: %+v vs %+v", i, v1, v2)
				}
			}
		})
	}
}

// TestPlanSpecRejectsMalformed enumerates the validation paths.
func TestPlanSpecRejectsMalformed(t *testing.T) {
	bad := []PlanSpec{
		{},
		{Kind: "loess"},
		{Kind: "loss", P: -0.1},
		{Kind: "loss", P: 1.5},
		{Kind: "gilbert-elliott", PGoodBad: 2},
		{Kind: "only", Inner: &PlanSpec{Kind: "loss", P: 0.5}},                    // no frames
		{Kind: "only", Frames: []string{"beacon"}},                                // no inner
		{Kind: "only", Frames: []string{"beacn"}, Inner: &PlanSpec{Kind: "loss"}}, // bad kind name
		{Kind: "to", To: "nonsense", Inner: &PlanSpec{Kind: "loss"}},
		{Kind: "to", To: "02:1d:e0:aa:00", Inner: &PlanSpec{Kind: "loss"}}, // 5 octets
		{Kind: "window", FromMS: 400, UntilMS: 100, Inner: &PlanSpec{Kind: "loss"}},
		{Kind: "window", FromMS: -1, UntilMS: 100, Inner: &PlanSpec{Kind: "loss"}},
		{Kind: "window"}, // no inner
		{Kind: "silence", To: "zz:zz:zz:zz:zz:zz"},
		{Kind: "silence", To: "02:1d:e0:aa:00:10", FromMS: -5},
		{Kind: "compose"},
		{Kind: "compose", Plans: []PlanSpec{{Kind: "junk"}}},
	}
	for i, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Errorf("bad spec %d (%q) accepted", i, spec.Kind)
		}
	}
}

// TestPlanSpecDepthLimit nests past maxPlanDepth and expects a clean
// error, not a stack overflow.
func TestPlanSpecDepthLimit(t *testing.T) {
	spec := &PlanSpec{Kind: "loss", P: 0.5}
	for i := 0; i < maxPlanDepth+4; i++ {
		spec = &PlanSpec{Kind: "window", FromMS: 0, UntilMS: 1000, Inner: spec}
	}
	if _, err := spec.Build(); err == nil {
		t.Fatal("over-deep plan accepted")
	}
}

// TestFaultRequestValidate covers the clear/plan request shapes.
func TestFaultRequestValidate(t *testing.T) {
	if p, err := (&FaultRequest{Clear: true}).Validate(); err != nil || p != nil {
		t.Fatalf("clear request: plan=%v err=%v", p, err)
	}
	if _, err := (&FaultRequest{}).Validate(); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := (&FaultRequest{Clear: true, Plan: &PlanSpec{Kind: "loss"}}).Validate(); err == nil {
		t.Fatal("clear request with plan accepted")
	}
	p, err := (&FaultRequest{Seed: 7, Plan: &PlanSpec{Kind: "loss", P: 0.5}}).Validate()
	if err != nil || p == nil {
		t.Fatalf("valid request rejected: plan=%v err=%v", p, err)
	}
}

// TestFrameKindNamesRoundTrip keeps the JSON names aligned with
// dot11.FrameKind.String across future frame additions.
func TestFrameKindNamesRoundTrip(t *testing.T) {
	for k := dot11.KindBeacon; k <= dot11.KindReassocResponse; k++ {
		got, err := frameKind(k.String())
		if err != nil || got != k {
			t.Errorf("frameKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := frameKind("unknown"); err == nil {
		t.Error("frameKind accepted \"unknown\"")
	}
}
