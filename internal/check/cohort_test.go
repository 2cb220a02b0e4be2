package check

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// testEquivDuration shortens the traces for the equivalence grid. The
// exactness claim is per-event, not statistical, so any window that
// exercises the interesting machinery (suspend/resume cycles, BTIM
// handshakes, handshake-timeout splits, mid-round beacons) proves as
// much as the full capture; 90 seconds covers several DTIM rounds of
// every scenario including Classroom's dense bursts.
const testEquivDuration = 90 * time.Second

// runEquivMatrix executes the acceptance grid at the given worker
// count and fails the test on any setup error or diverging cell.
func runEquivMatrix(t *testing.T, workers int) *EquivMatrixResult {
	t.Helper()
	m := DefaultEquivMatrix()
	m.Config.Duration = testEquivDuration
	m.Config.Workers = workers
	if testing.Short() {
		m.Scenarios = []trace.Scenario{trace.Classroom, trace.Starbucks}
		m.Sizes = []int{1, 64}
		m.Config.Duration = 45 * time.Second
	}
	res, err := m.RunContext(context.Background(), RunEquivCell)
	if err != nil {
		t.Fatalf("equivalence matrix (workers=%d): %v", workers, err)
	}
	want := len(m.Policies) * len(m.Scenarios) * len(m.Sizes)
	if len(res.Results) != want {
		t.Fatalf("got %d cells, want %d", len(res.Results), want)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestCohortEquivMatrix is the acceptance grid: three policies × three
// scenario traces × cohort sizes {1, 7, 64}, each cell comparing one
// exact cohort against the same population modeled station-by-station.
// Every observable must match exactly — frame stream, per-member
// counters and arrival logs, and bit-identical energy breakdowns.
func TestCohortEquivMatrix(t *testing.T) {
	res := runEquivMatrix(t, 4)
	for _, r := range res.Results {
		if r.Frames == 0 {
			t.Errorf("%v: zero frames on air — the cell proved nothing", r.Cell)
		}
	}
}

// TestCohortEquivMatrixSequential re-runs the grid with the worker
// pool forced to one and requires cell-for-cell identical results:
// the fold must be exact regardless of how the sweep is scheduled.
func TestCohortEquivMatrixSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel run already covers the short grid")
	}
	seq := runEquivMatrix(t, 1)
	par := runEquivMatrix(t, 4)
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("cell counts differ: sequential %d, parallel %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if seq.Results[i] != par.Results[i] {
			t.Errorf("cell %d differs across worker counts: sequential %+v, parallel %+v",
				i, seq.Results[i], par.Results[i])
		}
	}
}

// TestEquivCellValidation: degenerate sizes are rejected up front, not
// silently compared.
func TestEquivCellValidation(t *testing.T) {
	_, err := RunEquivCell(context.Background(), EquivCell{Policy: policy.HIDE, Scenario: trace.WRL, Size: 0},
		EquivConfig{Duration: time.Second})
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("size 0 accepted: %v", err)
	}
}

// TestEquivCellLabel pins the report label format.
func TestEquivCellLabel(t *testing.T) {
	c := EquivCell{Policy: policy.HIDE, Scenario: trace.Classroom, Size: 64}
	if got := c.String(); got != "HIDE/Classroom/n64" {
		t.Fatalf("label %q", got)
	}
}
