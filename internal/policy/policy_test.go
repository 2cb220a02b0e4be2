package policy

import (
	"math"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/trace"
)

func genTagged(t *testing.T, s trace.Scenario, p float64) (*trace.Trace, []bool) {
	t.Helper()
	tr, err := trace.GenerateScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr, trace.TagUniform(tr, p, 1234)
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		ReceiveAll: "receive-all",
		ClientSide: "client-side",
		HIDE:       "HIDE",
		Combined:   "HIDE+client-side",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New(Kind(99)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestHasOverhead(t *testing.T) {
	if ReceiveAll.HasOverhead() || ClientSide.HasOverhead() {
		t.Error("non-HIDE policies report overhead")
	}
	if !HIDE.HasOverhead() || !Combined.HasOverhead() {
		t.Error("HIDE policies must report overhead")
	}
}

func TestApplyLengthMismatch(t *testing.T) {
	tr, _ := genTagged(t, trace.Starbucks, 0.1)
	for _, k := range Kinds {
		p, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AppendArrivals(nil, p, tr, make([]bool, 3)); err == nil {
			t.Errorf("%v: mismatched usefulness vector accepted", k)
		}
	}
}

func TestReceiveAllPassesEverythingWithTau(t *testing.T) {
	tr, u := genTagged(t, trace.Starbucks, 0.1)
	p, _ := New(ReceiveAll)
	arr, err := AppendArrivals(nil, p, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != len(tr.Frames) {
		t.Fatalf("receive-all dropped frames: %d of %d", len(arr), len(tr.Frames))
	}
	for i, a := range arr {
		if a.Wakelock != time.Second {
			t.Fatalf("frame %d wakelock = %v, want 1s", i, a.Wakelock)
		}
		if a.At != tr.Frames[i].At || a.Length != tr.Frames[i].Length {
			t.Fatalf("frame %d fields corrupted", i)
		}
	}
}

func TestClientSideDriverWakelockForUseless(t *testing.T) {
	tr, u := genTagged(t, trace.CSDept, 0.1)
	p, _ := New(ClientSide)
	arr, err := AppendArrivals(nil, p, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != len(tr.Frames) {
		t.Fatal("client-side must still receive every frame")
	}
	for i, a := range arr {
		want := energy.DriverWakelock
		if u[i] {
			want = time.Second
		}
		if a.Wakelock != want {
			t.Fatalf("frame %d (useful=%v) wakelock = %v", i, u[i], a.Wakelock)
		}
	}
}

func TestClientSideWithTauEqualsReceiveAll(t *testing.T) {
	// The lower-bound sweep relies on δ=τ degenerating to receive-all:
	// the client-side arrivals priced at driver wakelock τ must equal
	// the receive-all arrivals priced as they are.
	tr, u := genTagged(t, trace.WRL, 0.1)
	ra, _ := New(ReceiveAll)
	raArr, err := AppendArrivals(nil, ra, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := New(ClientSide)
	csArr, err := AppendArrivals(nil, cs, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range energy.Profiles {
		cfg := energy.Config{Device: dev, Duration: tr.Duration}
		want, err := energy.Compute(raArr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [1]energy.Breakdown
		if err := energy.ComputeSweep(csArr, u, []time.Duration{energy.Tau}, cfg, got[:]); err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Errorf("%s: client-side at δ=τ %+v, receive-all %+v", dev.Name, got[0], want)
		}
	}
}

func TestHIDEPassesOnlyUseful(t *testing.T) {
	tr, u := genTagged(t, trace.WML, 0.1)
	p, _ := New(HIDE)
	arr, err := AppendArrivals(nil, p, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	nUseful := 0
	for _, b := range u {
		if b {
			nUseful++
		}
	}
	if len(arr) != nUseful {
		t.Fatalf("HIDE passed %d frames, want %d useful", len(arr), nUseful)
	}
	for _, a := range arr {
		if a.Wakelock != time.Second {
			t.Fatal("HIDE useful frame without full wakelock")
		}
	}
}

func TestCombinedZeroStalenessEqualsHIDE(t *testing.T) {
	tr, u := genTagged(t, trace.WRL, 0.1)
	h, _ := New(HIDE)
	hArr, err := AppendArrivals(nil, h, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	cArr, err := AppendArrivals(nil, CombinedPolicy{}, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(hArr) != len(cArr) {
		t.Fatalf("combined(0) length %d != HIDE %d", len(cArr), len(hArr))
	}
	for i := range hArr {
		if hArr[i] != cArr[i] {
			t.Fatalf("combined(0) diverges from HIDE at %d", i)
		}
	}
}

func TestCombinedStalenessDropsWakelocks(t *testing.T) {
	tr, u := genTagged(t, trace.WRL, 0.2)
	arr, err := AppendArrivals(nil, CombinedPolicy{Staleness: 0.5, Seed: 9}, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, a := range arr {
		if a.Wakelock == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(len(arr))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("stale fraction = %v, want ~0.5", frac)
	}
}

func TestCombinedRejectsBadStaleness(t *testing.T) {
	tr, u := genTagged(t, trace.Starbucks, 0.1)
	if _, err := AppendArrivals(nil, CombinedPolicy{Staleness: 1.5}, tr, u); err == nil {
		t.Fatal("staleness > 1 accepted")
	}
	if _, err := AppendArrivals(nil, CombinedPolicy{Staleness: -0.1}, tr, u); err == nil {
		t.Fatal("negative staleness accepted")
	}
	if _, err := AppendArrivals(nil, CombinedPolicy{Staleness: math.NaN()}, tr, u); err == nil {
		t.Fatal("NaN staleness accepted")
	}
}

// evaluate runs the energy model for a policy over a tagged trace.
func evaluate(t *testing.T, k Kind, tr *trace.Trace, u []bool, dev energy.Profile) energy.Breakdown {
	t.Helper()
	p, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := AppendArrivals(nil, p, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	cfg := energy.Config{Device: dev, Duration: tr.Duration}
	if k.HasOverhead() {
		cfg.Overhead = energy.DefaultOverhead()
	}
	b, err := energy.Compute(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHIDEBeatsReceiveAllEverywhere(t *testing.T) {
	// HIDE must beat receive-all on every trace and device at 10%
	// useful. (Client-side ordering is a property of the lower-bound
	// sweep and is asserted in internal/core.)
	for _, s := range trace.Scenarios {
		tr, u := genTagged(t, s, 0.1)
		for _, dev := range energy.Profiles {
			ra := evaluate(t, ReceiveAll, tr, u, dev)
			hd := evaluate(t, HIDE, tr, u, dev)
			if hd.TotalJ() >= ra.TotalJ() {
				t.Errorf("%s/%s: HIDE %.1f J >= receive-all %.1f J", s, dev.Name, hd.TotalJ(), ra.TotalJ())
			}
			if hd.SuspendFraction < ra.SuspendFraction {
				t.Errorf("%s/%s: HIDE suspends less (%.3f) than receive-all (%.3f)", s, dev.Name, hd.SuspendFraction, ra.SuspendFraction)
			}
		}
	}
}

func TestHIDEEnergyMonotoneInUsefulFraction(t *testing.T) {
	// Nested usefulness sets: shrinking the useful set can only reduce
	// HIDE's energy.
	tr, err := trace.GenerateScenario(trace.Classroom)
	if err != nil {
		t.Fatal(err)
	}
	u10 := trace.TagUniform(tr, 0.10, 42)
	u2 := make([]bool, len(u10)) // strict subset: every 5th useful frame
	n := 0
	for i, b := range u10 {
		if b {
			if n%5 == 0 {
				u2[i] = true
			}
			n++
		}
	}
	for _, dev := range energy.Profiles {
		e10 := evaluate(t, HIDE, tr, u10, dev)
		e2 := evaluate(t, HIDE, tr, u2, dev)
		if e2.TotalJ() >= e10.TotalJ() {
			t.Errorf("%s: HIDE energy not monotone: subset %.1f J >= superset %.1f J", dev.Name, e2.TotalJ(), e10.TotalJ())
		}
		if e2.SuspendFraction <= e10.SuspendFraction {
			t.Errorf("%s: suspend fraction not monotone", dev.Name)
		}
	}
}

func TestZeroDriverWakelockChurnsOnDenseTraffic(t *testing.T) {
	// On a dense trace, dropping with a zero wakelock suspend-churns:
	// the S4's suspend-operation power (Esp/Tsp ≈ 520 mW) exceeds its
	// active-idle power, so the zero-wakelock filter must cost MORE
	// than the driver wakelock there. This is the pathology the
	// energy.DriverWakelock doc comment describes.
	tr, u := genTagged(t, trace.WML, 0.1)
	cs, _ := New(ClientSide)
	arr, err := AppendArrivals(nil, cs, tr, u)
	if err != nil {
		t.Fatal(err)
	}
	cfg := energy.Config{Device: energy.GalaxyS4, Duration: tr.Duration}
	var b [2]energy.Breakdown
	if err := energy.ComputeSweep(arr, u, []time.Duration{0, energy.DriverWakelock}, cfg, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0].TotalJ() <= b[1].TotalJ() {
		t.Errorf("zero-wakelock %.1f J <= %v-wakelock %.1f J; churn pathology not reproduced", b[0].TotalJ(), energy.DriverWakelock, b[1].TotalJ())
	}
}
