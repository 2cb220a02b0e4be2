// Package check is the cross-validation harness that keeps the two
// independent implementations of HIDE's energy story honest against
// each other:
//
//   - a differential oracle (oracle.go) runs every (policy × trace ×
//     device × seed) cell through both the analytic Section IV energy
//     model (internal/energy over a policy-filtered trace) and the
//     frame-level protocol simulation (internal/core's Network of a
//     real AP and station exchanging marshalled frames), and asserts
//     per-component energy agreement within declared tolerance bands;
//   - runtime invariant hooks (invariants.go) observe every simulation
//     event and assert protocol soundness: BTIM bits only for clients
//     the Client UDP Port Table says are listening on a buffered
//     frame's destination port (Algorithm 1), frame conservation at
//     the AP, disjoint suspend/awake intervals covering the timeline,
//     and non-negative energy components;
//   - a golden-file harness (golden.go + golden_test.go) pins every
//     figure and table regeneration target against testdata snapshots
//     with tolerance-aware comparison and an -update flag;
//   - equivalence layers prove each execution mode exact against a
//     reference: the ESS layer (ess.go, a roam-free ESS against one
//     plain Network per shard) and the window layer (window.go, the
//     windowed assembly at several worker counts against its
//     sequential run). Every side is collected by one collector
//     (networkSide in equiv.go: the air fingerprint, then one entry per
//     station and per cohort member) and compared by one comparator
//     (diffSides: frames, fingerprint, member count, then each member's
//     stats, arrivals and bit-identical energy); the K=1 ESS sweep runs
//     on one grid (EquivMatrix), and the oracle, equivalence and chaos
//     grids fold their failing cells through one helper (failErr).
//
// The oracle is exposed to operators as cmd/crosscheck.
package check

import (
	"fmt"
	"math"
)

// Tolerance declares the per-component agreement bands of the
// differential oracle. A component passes when its relative divergence
// is within the band or its absolute divergence is under the floor —
// the floor keeps near-zero components (e.g. Est on an always-awake
// trace) from failing on meaningless ratios.
//
// The two sides are not expected to agree exactly: the analytic model
// prices frames at their trace arrival times, while the protocol
// simulation delivers them at DTIM flush times (shifted by up to one
// beacon interval) and a HIDE station additionally receives the
// useless frames riding in a useful burst, which the paper's model
// idealizes away. The default bands bound that modelling gap; see
// EXPERIMENTS.md for the worst divergence observed across the paper's
// full evaluation matrix.
type Tolerance struct {
	// RelEb..RelTotal are relative bands per energy component.
	RelEb, RelEf, RelEwl, RelEst, RelEo, RelTotal float64
	// AbsJ is the absolute floor in joules for the energy components.
	AbsJ float64
	// AbsSuspend is the absolute band for the suspend-time fraction
	// (a value in [0, 1], so it is compared absolutely).
	AbsSuspend float64
}

// DefaultTolerance returns the declared cross-validation bands,
// calibrated against the full evaluation matrix (3 policies × 5
// scenarios × 2 devices × 3 seeds at the paper's capture durations;
// worst observed divergences are recorded in EXPERIMENTS.md):
//
//   - Eb and Eo are computed by the same closed-form expressions on
//     both sides and must agree exactly.
//   - Ewl, Est, and the suspend fraction are driven by the wakelock
//     state machine, which the DTIM alignment reproduces to within a
//     fraction of a percent; their bands are tight.
//   - Ef carries the one irreducible modelling gap: a protocol HIDE
//     station's radio also receives the useless frames riding in a
//     useful burst (the driver drops them without a wakelock), which
//     the paper's model prices as idle time instead of receive time.
//     Worst observed ≈ 42% relative on the heavy traces — but under
//     1.4% of the total, which is what the total band certifies.
func DefaultTolerance() Tolerance {
	return Tolerance{
		RelEb:      1e-9,
		RelEf:      0.50,
		RelEwl:     0.02,
		RelEst:     0.05,
		RelEo:      1e-9,
		RelTotal:   0.05,
		AbsJ:       0.5,
		AbsSuspend: 0.02,
	}
}

// normalized substitutes the defaults for a zero tolerance.
func (t Tolerance) normalized() Tolerance {
	if t == (Tolerance{}) {
		return DefaultTolerance()
	}
	return t
}

// relDiff returns the symmetric relative difference |a-b|/max(|a|,|b|)
// (zero when both are zero).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// ComponentDiff is one compared quantity of a differential-oracle cell.
type ComponentDiff struct {
	// Name identifies the component (Eb, Ef, Ewl, Est, Eo, total,
	// suspend).
	Name string
	// Analytic and Protocol are the two sides' values (joules, except
	// the suspend fraction).
	Analytic, Protocol float64
	// Rel is the symmetric relative difference.
	Rel float64
	// OK reports whether the divergence is inside the tolerance band.
	OK bool
}

// String formats the diff for the divergence table.
func (d ComponentDiff) String() string {
	status := "ok"
	if !d.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%-7s analytic=%11.4f protocol=%11.4f rel=%6.2f%% %s",
		d.Name, d.Analytic, d.Protocol, d.Rel*100, status)
}
