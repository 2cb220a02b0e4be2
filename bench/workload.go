package main

import (
	"fmt"
	"os"
	"reflect"
	"time"
)

// runConfig is one single-workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measurement window
	trace    bool    // report the traced pass's per-layer metrics
	root     string  // repository root

	// maxOps, when > 0, also ends a measurement window after that many
	// ops, and setupReps, when > 0, replaces the default number of set-up
	// repetitions. Tests use both to keep runs short.
	maxOps    int
	setupReps int
}

// window returns the measurement window as a duration.
func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setUps repeats a set-up on one side of the measurement window: at
// least minSetUps times and for at least setUpBudget, so cheap set-ups
// get many samples and one burst of host noise cannot move their median.
// The host's speed is sampled between set-ups. After the window it does
// nothing in a traced run, which reports no setup_s. A test's setupReps
// replaces this with that many repetitions before the window.
func (c runConfig) setUps(afterWindow bool, sp *speedSampler, fn func() error) error {
	n, budget := minSetUps, setUpBudget
	switch {
	case afterWindow && (c.trace || c.setupReps > 0):
		return nil
	case c.setupReps > 0:
		n, budget = c.setupReps, 0
	}
	start := wallNow()
	for i := 0; i < n || since(start) < budget; i++ {
		if err := fn(); err != nil {
			return err
		}
		sp.maybe()
	}
	return nil
}

// minSetUps and setUpBudget bound the set-up repetitions on each side of
// the window.
const (
	minSetUps   = 4
	setUpBudget = 500 * time.Millisecond
)

// more reports whether a closed loop that has attempted ops ops since
// start should run another one.
func (c runConfig) more(start time.Time, d time.Duration, ops int) bool {
	if ops == 0 {
		return true
	}
	if c.maxOps > 0 && ops >= c.maxOps {
		return false
	}
	return since(start) < d
}

// workload is one benchmark workload: a simulation workload given by its
// set-up, or the daemon workload given by its own runner.
type workload struct {
	name  string
	why   string
	setup func(seed uint64, root string) (*instance, error)
	run   func(cfg runConfig) (result, error)
}

// workloads lists every workload in run order.
var workloads = []workload{
	{name: "figures", setup: setupFigures,
		why: "the analytic Figure 7-9 suite users run most; loads trace/policy/energy/engine and leaves the simulator idle"},
	{name: "bss-200", setup: setupBSS,
		why: "200 individually modelled stations in a hardened lossy BSS: per-receiver fan-out, port messages, fault draws"},
	{name: "pop-1m", setup: setupPopulation,
		why: "a million clients folded into cohorts: few events and block delivery instead of per-receiver fan-out"},
	{name: "ess-8", setup: setupESS,
		why: "an 8-AP ESS with 64 roaming stations: the only workload with shard parallelism, barrier merges and roams"},
	{name: "hided-churn", run: runChurn,
		why: "association churn against a real hided over loopback UDP: the only wall-clock and socket workload"},
}

// workloadNames lists the workload names in run order.
func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// workloadByName finds a workload, or nil.
func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if w.setup != nil {
		return runSim(cfg, w.setup)
	}
	return w.run(cfg)
}

// instance is a simulation workload set up for one seed.
type instance struct {
	// op runs one operation. Its output must equal the first op's
	// (reflect.DeepEqual, so floats compare bit for bit).
	op func() (any, error)
	// check, when set, validates the first op's output beyond the
	// recorded outputs every workload is compared with.
	check func(out any) error
	// traced runs one op with per-layer stamps, checks that its output
	// equals want, and returns per-op layer metrics.
	traced func(want any) (map[string]float64, error)
	// curves takes the once-per-run worker-scaling measurements, given
	// the untraced op's median in ms. Nil when the workload has none.
	curves func(p50 float64) (map[string]float64, error)
	// genMS is the host time the set-up spent generating traces.
	genMS float64
}

// runSim runs a simulation workload: set up several times (setup_s is
// the median; each set-up loads the recorded outputs, builds the inputs
// and runs one checked warm-up op), run closed-loop ops for the window
// checking each output against the first op's, and, when tracing, run
// the traced pass in the second half of the window.
func runSim(cfg runConfig, setup func(seed uint64, root string) (*instance, error)) (result, error) {
	var setups, gens []float64
	var inst *instance
	var first any
	var sp speedSampler
	correct := true
	setUp := func() error {
		t := wallNow()
		exp, err := loadExpected(cfg.root)
		if err != nil {
			return err
		}
		if inst, err = setup(cfg.seed, cfg.root); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if first, err = inst.op(); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		err = exp.check(cfg.seed, cfg.workload, first)
		if err == nil && inst.check != nil {
			err = inst.check(first)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
			correct = false
		}
		setups = append(setups, since(t).Seconds())
		gens = append(gens, inst.genMS)
		return nil
	}
	if err := cfg.setUps(false, &sp, setUp); err != nil {
		return result{}, err
	}

	d := cfg.window()
	if cfg.trace {
		d /= 2
	}
	w, err := measureOps(cfg, d, &sp, func() error {
		out, err := inst.op()
		if err != nil {
			return err
		}
		if !correct || !reflect.DeepEqual(out, first) {
			return fmt.Errorf("output differs from the first op's")
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	if !cfg.trace {
		if err := cfg.setUps(true, &sp, setUp); err != nil {
			return result{}, err
		}
		m := w.endToEnd(sp.slowdown())
		m["setup_s"] = ratio(quantile(setups, 0.5), sp.slowdown())
		return newResult(endToEndMetrics, m, w.attempted, w.failed, correct)
	}

	p50 := quantile(w.lat, 0.5)
	layers, tracedOps, err := tracedPass(cfg, d, inst, first, p50)
	if err != nil {
		return result{}, err
	}
	layers["trace.gen_ms"] = quantile(gens, 0.5)
	layers["bench.host_slowdown"] = sp.slowdown()
	return newResult(perLayerMetrics, layers, w.attempted+tracedOps, w.failed, correct)
}

// measureOps runs op in a closed loop for d (or cfg.maxOps ops),
// sampling the host's speed between ops. It records each op's latency,
// CPU time and heap allocation, and the resident memory after it. An op
// returning an error counts as failed. The window's allocation per op
// is the median op's: collections empty the runtime's pools at times
// that vary from run to run, and the ops just after one allocate more.
func measureOps(cfg runConfig, d time.Duration, sp *speedSampler, op func() error) (window, error) {
	var w window
	var allocs []float64
	spent := sp.spent
	start := wallNow()
	for cfg.more(start, d, w.attempted) {
		sp.maybe()
		before, err := sampleProc()
		if err != nil {
			return window{}, err
		}
		t := wallNow()
		opErr := op()
		w.lat = append(w.lat, ms(since(t)))
		after, err := sampleProc()
		if err != nil {
			return window{}, err
		}
		w.cpu += after.cpu - before.cpu
		allocs = append(allocs, float64(after.alloc-before.alloc)/1e6)
		w.attempted++
		if opErr != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "bench: %s op %d: %v\n", cfg.workload, w.attempted, opErr)
		}
		rss, err := rssMB("self")
		if err != nil {
			return window{}, err
		}
		w.rss = append(w.rss, rss)
	}
	w.elapsed = since(start) - (sp.spent - spent)
	w.allocPerOp = quantile(allocs, 0.5)
	return w, nil
}

// tracedPass runs traced ops for d (at least one), averages their
// per-layer metrics, adds the workload's worker curves and the tracing
// overhead against the untraced median p50, and returns the metrics
// with the number of traced ops.
func tracedPass(cfg runConfig, d time.Duration, inst *instance, first any, p50 float64) (map[string]float64, int, error) {
	sum := map[string]float64{}
	var wall float64
	ops := 0
	start := wallNow()
	for cfg.more(start, d, ops) {
		t := wallNow()
		m, err := inst.traced(first)
		if err != nil {
			return nil, 0, fmt.Errorf("traced op: %w", err)
		}
		wall += ms(since(t))
		ops++
		for k, v := range m {
			sum[k] += v
		}
	}
	for k := range sum {
		sum[k] /= float64(ops)
	}
	sum["bench.trace_overhead"] = ratio(wall/float64(ops), p50)
	if inst.curves != nil {
		c, err := inst.curves(p50)
		if err != nil {
			return nil, 0, fmt.Errorf("worker curves: %w", err)
		}
		for k, v := range c {
			sum[k] = v
		}
	}
	return sum, ops, nil
}

// medianOf times fn reps times and returns the median in ms.
func medianOf(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t := wallNow()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(since(t)))
	}
	return quantile(xs, 0.5), nil
}
