package check

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/porttable"
	"repro/internal/trace"
)

// testOracleDuration shortens the traces so the full matrix stays well
// under a second; the tolerance bands were calibrated at the paper's
// full durations and hold at this length too (the divergences are
// rate-like, not cumulative).
const testOracleDuration = 5 * time.Minute

// TestOracleMatrix is the acceptance grid: every paper policy × all
// five scenario traces × both Table I devices × three seeds must agree
// within the declared tolerance bands, with the runtime invariants
// attached to every protocol run.
func TestOracleMatrix(t *testing.T) {
	m := DefaultMatrix()
	m.Config.Duration = testOracleDuration
	res, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatalf("matrix run: %v", err)
	}
	want := len(m.Policies) * len(m.Scenarios) * len(m.Devices) * len(m.Seeds)
	if len(res.Results) != want {
		t.Fatalf("got %d cells, want %d", len(res.Results), want)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("oracle disagreement:\n%s", res.Report())
	}
	t.Logf("\n%s", res.Report())
}

// TestOracleExactComponents: Eb and Eo are computed by the same
// closed-form expressions on both sides, so they must agree to
// floating-point precision, not just within bands.
func TestOracleExactComponents(t *testing.T) {
	for _, kind := range []policy.Kind{policy.ReceiveAll, policy.HIDE} {
		res, err := RunCell(Cell{
			Policy:   kind,
			Scenario: trace.CSDept,
			Device:   energy.NexusOne,
		}, OracleConfig{Duration: 2 * time.Minute, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Analytic.EbJ != res.Protocol.EbJ {
			t.Errorf("%v: Eb differs: analytic %v protocol %v", kind, res.Analytic.EbJ, res.Protocol.EbJ)
		}
		if res.Analytic.EoJ != res.Protocol.EoJ {
			t.Errorf("%v: Eo differs: analytic %v protocol %v", kind, res.Analytic.EoJ, res.Protocol.EoJ)
		}
		if kind == policy.HIDE && res.Protocol.EoJ == 0 {
			t.Errorf("HIDE protocol side has zero overhead energy")
		}
	}
}

// TestOracleSeedsDiffer guards the seed plumbing: different seeds must
// generate different traces, otherwise the ≥3-seed acceptance grid
// would silently test one trace three times.
func TestOracleSeedsDiffer(t *testing.T) {
	t0, err := oracleTrace(trace.Starbucks, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := oracleTrace(trace.Starbucks, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0.Frames) == len(t1.Frames) {
		same := true
		for i := range t0.Frames {
			if t0.Frames[i] != t1.Frames[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seed 0 and seed 1 generated identical traces")
		}
	}
}

// TestAlignDTIMSchedule pins the alignment transform's semantics:
// frames land after their flush beacon in order, within one beacon
// interval plus the burst's airtime, and the MoreData chain terminates
// at each burst's end.
func TestAlignDTIMSchedule(t *testing.T) {
	tr, err := oracleTrace(trace.WML, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	useful := make([]bool, len(tr.Frames))
	aligned := alignDTIM(tr, useful, false)
	if len(aligned.Frames) != len(tr.Frames) {
		t.Fatalf("alignment changed frame count: %d -> %d", len(tr.Frames), len(aligned.Frames))
	}
	interval := dot11.DefaultBeaconInterval
	for i, f := range aligned.Frames {
		orig := tr.Frames[i]
		flush := (orig.At/interval + 1) * interval
		if f.At <= flush {
			t.Fatalf("frame %d delivered at %v, not after its flush beacon %v", i, f.At, flush)
		}
		if f.At > flush+interval {
			t.Fatalf("frame %d delivered at %v, more than an interval after flush %v", i, f.At, flush)
		}
		if i > 0 && f.At <= aligned.Frames[i-1].At {
			t.Fatalf("frame %d not strictly after frame %d (%v <= %v)", i, i-1, f.At, aligned.Frames[i-1].At)
		}
		last := i == len(aligned.Frames)-1 ||
			tr.Frames[i+1].At/interval != orig.At/interval
		if f.MoreData == last {
			t.Fatalf("frame %d: MoreData=%v but last-in-burst=%v", i, f.MoreData, last)
		}
	}
}

// TestBrokenAlgorithm1 injects the canonical fault — a flag computer
// that skips Algorithm 1's port lookup and reports nothing buffered —
// and requires BOTH detection layers to catch it: the BTIM completeness
// invariant (clients listening on a buffered frame's port lost their
// bit) and the differential oracle (the station sleeps through traffic
// the model prices).
func TestBrokenAlgorithm1(t *testing.T) {
	res, err := RunCell(Cell{
		Policy:   policy.HIDE,
		Scenario: trace.Classroom,
		Device:   energy.NexusOne,
	}, OracleConfig{
		Duration:        2 * time.Minute,
		CheckInvariants: true,
		Mutate: func(n *core.Network) {
			n.AP.SetFlagComputer(func([]uint16, *porttable.Table) *dot11.VirtualBitmap {
				return &dot11.VirtualBitmap{} // every BTIM bit cleared
			})
		},
	})
	if err != nil {
		t.Fatalf("mutated cell: %v", err)
	}
	if res.OK() {
		t.Fatalf("broken Algorithm 1 passed the oracle:\n%+v", res.Diffs)
	}
	var oracleCaught bool
	for _, d := range res.Diffs {
		if !d.OK {
			oracleCaught = true
		}
	}
	if !oracleCaught {
		t.Errorf("no energy component diverged under the broken flag computer")
	}
	var invariantCaught bool
	for _, v := range res.Violations {
		if v.Rule == RuleBTIMComplete {
			invariantCaught = true
		}
	}
	if !invariantCaught {
		t.Errorf("BTIM completeness invariant did not fire; violations: %v", res.Violations)
	}
}

// TestOverbroadAlgorithm1 injects the opposite fault — a flag computer
// that sets the client's bit unconditionally, degrading HIDE to
// receive-all — and requires the soundness invariant plus the oracle to
// catch it.
func TestOverbroadAlgorithm1(t *testing.T) {
	res, err := RunCell(Cell{
		Policy:   policy.HIDE,
		Scenario: trace.Classroom,
		Device:   energy.NexusOne,
	}, OracleConfig{
		Duration:        2 * time.Minute,
		CheckInvariants: true,
		Mutate: func(n *core.Network) {
			n.AP.SetFlagComputer(func([]uint16, *porttable.Table) *dot11.VirtualBitmap {
				var all dot11.VirtualBitmap
				all.Set(1) // the only station's AID, set regardless of ports
				return &all
			})
		},
	})
	if err != nil {
		t.Fatalf("mutated cell: %v", err)
	}
	if res.OK() {
		t.Fatal("over-broad flag computer passed the oracle")
	}
	var invariantCaught bool
	for _, v := range res.Violations {
		if v.Rule == RuleBTIMSound {
			invariantCaught = true
		}
	}
	if !invariantCaught {
		t.Errorf("BTIM soundness invariant did not fire; violations: %v", res.Violations)
	}
}

// TestCompareBands exercises the band logic directly: exact bands,
// relative bands, and the absolute floors.
func TestCompareBands(t *testing.T) {
	tol := DefaultTolerance()
	a := energy.Breakdown{EbJ: 10, EfJ: 5, EwlJ: 100, EstJ: 20, EoJ: 1, SuspendFraction: 0.5}
	p := a
	for _, d := range Compare(a, p, tol) {
		if !d.OK || d.Rel != 0 {
			t.Errorf("identical breakdowns: %s", d)
		}
	}
	// Ewl off by 10% breaks its 2% band (values far above the floor).
	p = a
	p.EwlJ *= 1.10
	var ewlFailed bool
	for _, d := range Compare(a, p, tol) {
		if d.Name == "Ewl" && !d.OK {
			ewlFailed = true
		}
	}
	if !ewlFailed {
		t.Error("10% Ewl divergence passed the 2% band")
	}
	// A large relative gap on a tiny component stays under the joule
	// floor.
	p = a
	p.EfJ = 0.01
	a2 := a
	a2.EfJ = 0.4
	for _, d := range Compare(a2, p, tol) {
		if d.Name == "Ef" && !d.OK {
			t.Errorf("sub-floor Ef divergence failed: %s", d)
		}
	}
}

// TestToleranceNormalized: the zero value selects the defaults, a
// non-zero value is kept as-is.
func TestToleranceNormalized(t *testing.T) {
	if (Tolerance{}).normalized() != DefaultTolerance() {
		t.Error("zero tolerance did not normalize to defaults")
	}
	custom := Tolerance{RelEb: 1, RelEf: 1, RelEwl: 1, RelEst: 1, RelEo: 1, RelTotal: 1, AbsJ: 1, AbsSuspend: 1}
	if custom.normalized() != custom {
		t.Error("custom tolerance was rewritten")
	}
}
