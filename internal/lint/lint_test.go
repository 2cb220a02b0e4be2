package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests so the standard library
// type-checks once per test binary, not once per analyzer.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		testLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoader
}

// loadFixture type-checks testdata/src/<dir> under the import path of
// the code it imitates and runs one analyzer over it.
func loadFixture(t *testing.T, a *Analyzer, dir, asPath string) []Diagnostic {
	t.Helper()
	pkg, err := fixtureLoader(t).LoadDirAs(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return diags
}

// wantRe matches one // want `regexp` expectation trailing fixture
// code: the analyzer must report a diagnostic on that line whose
// message matches the regexp.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// checkFixture runs the analyzer over the fixture and compares its
// diagnostics line-by-line against the fixture's // want comments,
// in the style of go/analysis's analysistest.
func checkFixture(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	pkg, err := fixtureLoader(t).LoadDirAs(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, expectation{pos.Filename, pos.Line, re})
			}
		}
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, Determinism, "determinism", "repro/internal/core")
}

// TestDeterminismAllowlist pins the allowlist: the same wall-clock
// read that the fixture flags is excused in internal/sim/realtime.go.
func TestDeterminismAllowlist(t *testing.T) {
	diags := loadFixture(t, Determinism, "determinism_allow", "repro/internal/sim")
	if len(diags) != 0 {
		t.Errorf("allowlisted file reported: %v", diags)
	}
}

func TestDeterminismSeededRNGOnly(t *testing.T) {
	checkFixture(t, Determinism, "faultrng", "repro/internal/fault")
}

// TestDeterminismSeededRNGOnlyScoped re-analyzes the fault fixture
// under an ordinary deterministic path, where the private-source
// constructors are allowed and only the global draw is reported.
func TestDeterminismSeededRNGOnlyScoped(t *testing.T) {
	diags := loadFixture(t, Determinism, "faultrng", "repro/internal/medium")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "shared global source") {
		t.Errorf("out-of-scope run got %v, want only the global-source draw", diags)
	}
}

func TestCtxFirstFixture(t *testing.T) {
	checkFixture(t, CtxFirst, "ctxfirst", "repro/internal/core")
}

// TestCtxFirstOutOfScope re-analyzes the same fixture outside the
// convention's packages, where nothing may be reported.
func TestCtxFirstOutOfScope(t *testing.T) {
	diags := loadFixture(t, CtxFirst, "ctxfirst", "repro/internal/trace")
	if len(diags) != 0 {
		t.Errorf("out-of-scope package reported: %v", diags)
	}
}

func TestExitPathFixture(t *testing.T) {
	checkFixture(t, ExitPath, "exitpath", "repro/cmd/fixture")
}

func TestElemConstFixture(t *testing.T) {
	checkFixture(t, ElemConst, "elemconst", "repro/internal/station")
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, ErrDrop, "errdrop", "repro/internal/fixture")
}

// TestIgnoreNeedsReason pins the directive contract: a reasonless
// //lint:ignore is itself reported and suppresses nothing.
func TestIgnoreNeedsReason(t *testing.T) {
	diags := loadFixture(t, ErrDrop, "ignore", "repro/internal/fixture")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (bad directive + unsuppressed finding): %v", len(diags), diags)
	}
	var checks []string
	for _, d := range diags {
		checks = append(checks, d.Check)
	}
	got := strings.Join(checks, ",")
	if got != "ignore,errdrop" && got != "errdrop,ignore" {
		t.Errorf("got checks %q, want an ignore finding and an errdrop finding", got)
	}
}

func TestFrameMutFixture(t *testing.T) {
	for _, path := range []string{"repro/internal/medium", "repro/internal/station"} {
		t.Run(path, func(t *testing.T) { checkFixture(t, FrameMut, "framemut", path) })
	}
}

// TestFrameMutOutOfScope re-analyzes the frame fixture where only
// Receive/ReceiveAs parameters are delivered frames: the eight writes
// in those two methods are all that may be reported.
func TestFrameMutOutOfScope(t *testing.T) {
	diags := loadFixture(t, FrameMut, "framemut", "repro/internal/ap")
	if len(diags) != 8 {
		t.Errorf("out-of-scope run got %d findings, want the 8 in Receive/ReceiveAs: %v", len(diags), diags)
	}
}

func TestRNGDrawFixture(t *testing.T) {
	checkFixture(t, RNGDraw, "rngdraw", "repro/internal/fault")
}

// TestRNGDrawOutOfScope re-analyzes the draw fixture outside the
// seeded-stream packages, where nothing may be reported.
func TestRNGDrawOutOfScope(t *testing.T) {
	diags := loadFixture(t, RNGDraw, "rngdraw", "repro/internal/trace")
	if len(diags) != 0 {
		t.Errorf("out-of-scope package reported: %v", diags)
	}
}

func TestGoJoinFixture(t *testing.T) {
	checkFixture(t, GoJoin, "gojoin", "repro/internal/engine")
}

// TestGoJoinOutOfScope re-analyzes the goroutine fixture outside the
// barrier-window packages, where nothing may be reported.
func TestGoJoinOutOfScope(t *testing.T) {
	diags := loadFixture(t, GoJoin, "gojoin", "repro/internal/trace")
	if len(diags) != 0 {
		t.Errorf("out-of-scope package reported: %v", diags)
	}
}

func TestPoolBalanceFixture(t *testing.T) {
	checkFixture(t, PoolBalance, "poolbalance", "repro/internal/sim")
}

// TestPoolBalanceFreeListScoped re-analyzes the pool fixture outside
// the free-list packages: sync.Pool findings survive (that rule is
// global) but the alloc/release convention no longer applies.
func TestPoolBalanceFreeListScoped(t *testing.T) {
	diags := loadFixture(t, PoolBalance, "poolbalance", "repro/internal/trace")
	if len(diags) != 1 || diags[0].Pos.Line != 18 {
		t.Errorf("out-of-scope run got %v, want only the sync.Pool leak at line 18", diags)
	}
}

// checkCanary asserts the acceptance contract for the deliberately
// broken fixtures: exactly one diagnostic, on the line marked CANARY.
func checkCanary(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	pkg, err := fixtureLoader(t).LoadDirAs(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("loading canary %s: %v", dir, err)
	}
	wantLine := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "CANARY:") {
					wantLine = pkg.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	if wantLine == 0 {
		t.Fatalf("canary %s has no CANARY marker", dir)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	if len(diags) != 1 {
		t.Fatalf("canary %s: got %d diagnostics, want exactly 1: %v", dir, len(diags), diags)
	}
	if diags[0].Pos.Line != wantLine {
		t.Errorf("canary %s: diagnostic at line %d, want the CANARY line %d", dir, diags[0].Pos.Line, wantLine)
	}
}

// The canaries prove each flow-aware analyzer has teeth on realistic
// breakage: a mutated delivered frame, an unbalanced RNG branch, and
// a leaked shard goroutine each yield one precisely placed finding.
func TestCanaryFrameMutation(t *testing.T) {
	checkCanary(t, FrameMut, "canary_frame", "repro/internal/station")
}

func TestCanaryRNGUnbalance(t *testing.T) {
	checkCanary(t, RNGDraw, "canary_rng", "repro/internal/ess")
}

func TestCanaryShardGoroutineLeak(t *testing.T) {
	checkCanary(t, GoJoin, "canary_gojoin", "repro/internal/ess")
}

func TestCanaryWindowWorkerLeak(t *testing.T) {
	checkCanary(t, GoJoin, "canary_window", "repro/internal/core")
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %v, %v", all, err)
	}
	two, err := ByName("determinism, errdrop")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "errdrop" {
		t.Fatalf("ByName(two) = %v, %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(\"nope\") succeeded, want error")
	}
}
