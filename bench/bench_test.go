package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for the benchmark binary when
// hided-churn re-executes itself as the hided child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(hidedChildMain())
	}
	os.Exit(m.Run())
}

// TestWorkloads runs every workload through the command's entry point,
// briefly, with tracing off and on: every declared metric must be
// reported with its unit, no op may fail, and the outputs must match the
// recorded and golden ones.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seconds: 1, trace: traced, root: "..", maxOps: 2, setupReps: 1}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, traced, err)
				continue
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestRecordedOutputCheck shows the recorded-output check is bit for
// bit: the recorded pop-1m output passes and a one-ulp change fails.
func TestRecordedOutputCheck(t *testing.T) {
	exp, err := loadExpected("..")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupPopulation(0, "..")
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.op()
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.check(0, "pop-1m", out); err != nil {
		t.Fatalf("recorded output: %v", err)
	}
	pt := out.(core.ScalePoint)
	pt.MeanStationJ = math.Nextafter(pt.MeanStationJ, 0)
	if err := exp.check(0, "pop-1m", pt); err == nil {
		t.Fatal("a one-ulp change in MeanStationJ passed the check")
	}
}

// TestRefKernelAlloc checks that every reference-kernel call allocates
// the same bytes, which hided-churn relies on to take the sampler's
// allocation out of the client side's. Goroutines that earlier tests
// left winding down may allocate a few bytes during a call, so it
// allows 1 KiB.
func TestRefKernelAlloc(t *testing.T) {
	want := refKernelAlloc()
	for i := 0; i < 20; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refSink += refKernel()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < want || got > want+1024 {
			t.Fatalf("call %d allocated %d bytes, the first %d", i, got, want)
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json declares
// exactly the workloads and metrics the command reports, with the same
// units, and the command's default window.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the command's default window %d s", spec.RunSeconds, runSeconds)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, names[i])
		}
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
