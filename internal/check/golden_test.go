package check

import (
	"context"
	"flag"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bianchi"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/porttable"
	"repro/internal/trace"
)

// update regenerates the golden snapshots in place:
//
//	go test ./internal/check -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenCheck compares v against testdata/golden/<name>, or rewrites
// the snapshot under -update.
func goldenCheck(t *testing.T, name string, v any) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := WriteGolden(path, v); err != nil {
			t.Fatalf("update %s: %v", name, err)
		}
		return
	}
	if err := CompareGolden(path, v, GoldenRelTol); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// scenarioSummary is one Figure 6 golden row.
type scenarioSummary struct {
	Scenario string
	Summary  trace.Summary
}

// figure6Summaries regenerates the Figure 6 trace statistics for every
// scenario.
func figure6Summaries(t *testing.T) []scenarioSummary {
	t.Helper()
	var rows []scenarioSummary
	for _, sc := range trace.Scenarios {
		tr, err := trace.GenerateScenario(sc)
		if err != nil {
			t.Fatalf("generating %v: %v", sc, err)
		}
		rows = append(rows, scenarioSummary{Scenario: sc.String(), Summary: trace.Summarize(tr)})
	}
	return rows
}

// suiteCache memoizes the per-device core.RunSuiteContext results so the
// figure 7, 8, and 9 subtests share one evaluation per device.
var suiteCache = struct {
	sync.Mutex
	m map[string]*core.Suite
}{m: map[string]*core.Suite{}}

func deviceSuite(t *testing.T, dev energy.Profile) *core.Suite {
	t.Helper()
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if s, ok := suiteCache.m[dev.Name]; ok {
		return s
	}
	s, err := core.RunSuiteContext(context.Background(), dev, core.Options{})
	if err != nil {
		t.Fatalf("RunSuiteContext(%s): %v", dev.Name, err)
	}
	suiteCache.m[dev.Name] = s
	return s
}

// TestGolden pins every figure and table regeneration target against
// its testdata/golden snapshot.
func TestGolden(t *testing.T) {
	t.Run("table1", func(t *testing.T) {
		goldenCheck(t, "table1.json", energy.Profiles)
	})
	t.Run("table2", func(t *testing.T) {
		goldenCheck(t, "table2.json", bianchi.TableII())
	})
	t.Run("figure6", func(t *testing.T) {
		goldenCheck(t, "figure6.json", figure6Summaries(t))
	})
	t.Run("figure7_nexusone", func(t *testing.T) {
		goldenCheck(t, "figure7_nexusone.json", deviceSuite(t, energy.NexusOne).Comparisons)
	})
	t.Run("figure8_galaxys4", func(t *testing.T) {
		goldenCheck(t, "figure8_galaxys4.json", deviceSuite(t, energy.GalaxyS4).Comparisons)
	})
	t.Run("figure9", func(t *testing.T) {
		rows := append([]core.SuspendRow{}, deviceSuite(t, energy.NexusOne).Suspend...)
		rows = append(rows, deviceSuite(t, energy.GalaxyS4).Suspend...)
		goldenCheck(t, "figure9.json", rows)
	})
	t.Run("figure10", func(t *testing.T) {
		pts, err := bianchi.Figure10(bianchi.TableII())
		if err != nil {
			t.Fatal(err)
		}
		goldenCheck(t, "figure10.json", pts)
	})
	t.Run("figure11", func(t *testing.T) {
		pts, err := porttable.Figure11(porttable.CalibratedARM())
		if err != nil {
			t.Fatal(err)
		}
		goldenCheck(t, "figure11.json", pts)
	})
	t.Run("figure12", func(t *testing.T) {
		pts, err := porttable.Figure12(porttable.CalibratedARM())
		if err != nil {
			t.Fatal(err)
		}
		goldenCheck(t, "figure12.json", pts)
	})
}

// TestGoldenDeterminism regenerates a figure target twice and requires
// byte-identical canonical JSON: the golden harness is only sound if
// the regeneration pipeline is deterministic.
func TestGoldenDeterminism(t *testing.T) {
	render := func() []byte {
		s, err := core.RunSuiteContext(context.Background(), energy.NexusOne, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalCanonical(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := render(), render()
	if string(a) != string(b) {
		t.Fatal("two core.RunSuiteContext renderings differ byte-for-byte")
	}
	first := figure6Summaries(t)
	second := figure6Summaries(t)
	ba, err := MarshalCanonical(first)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := MarshalCanonical(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatal("two Figure 6 renderings differ byte-for-byte")
	}
}
