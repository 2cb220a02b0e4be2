package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// setConfig is a full-set run: every selected workload, runs times,
// then one traced pass each.
type setConfig struct {
	names   []string
	seed    uint64
	seconds float64
	runs    int
	root    string
	out     string
}

// runRecord is one child run's result.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// runSet runs each workload in a fresh child process, one after
// another: cfg.runs untraced runs per workload (run r uses seed
// cfg.seed+r), then one traced pass per workload at cfg.seed. It prints
// the end-to-end and per-layer tables and reports whether every run was
// correct with no failed op.
func runSet(cfg setConfig) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	var recs []runRecord
	ok := true
	add := func(name string, seed uint64, trace bool) error {
		rec, err := runChild(exe, cfg, name, seed, trace)
		if err != nil {
			return err
		}
		r := rec.Result
		fmt.Fprintf(os.Stderr, "bench: %-12s seed %-3d trace=%-5v correct=%v ops=%d failed=%d\n",
			name, seed, trace, r.Correct, r.Attempted, r.Failed)
		ok = ok && r.Correct && r.Failed == 0
		recs = append(recs, rec)
		return nil
	}
	for r := 0; r < cfg.runs; r++ {
		for _, name := range cfg.names {
			if err := add(name, cfg.seed+uint64(r), false); err != nil {
				return false, err
			}
		}
	}
	for _, name := range cfg.names {
		if err := add(name, cfg.seed, true); err != nil {
			return false, err
		}
	}
	printEndToEnd(os.Stdout, cfg, recs)
	printLayers(os.Stdout, cfg.names, recs)
	if cfg.out != "" {
		b, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild runs one workload in a child process and parses the result
// line. A child that exits non-zero after printing its result (an op
// failed) still yields the result.
func runChild(exe string, cfg setConfig, name string, seed uint64, trace bool) (runRecord, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", tr, "-root", cfg.root)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runRecord{}, fmt.Errorf("%s: no result line: %w", name, errors.Join(runErr, err))
	}
	return runRecord{Workload: name, Seed: seed, Trace: trace, Result: res}, nil
}

// values collects one metric's values over a workload's runs.
func values(recs []runRecord, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r.Result.Metrics[metric].Value)
		}
	}
	return out
}

// num formats a metric value compactly.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// printEndToEnd prints one row per end-to-end metric and workload: the
// value for a single run, or the median, quartiles, max-min spread and
// interquartile spread as a share of the median over several runs.
func printEndToEnd(w io.Writer, cfg setConfig, recs []runRecord) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\nEnd-to-end metrics (%d run(s) per workload, %gs each, tracing off)\n", cfg.runs, cfg.seconds)
	if cfg.runs == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tmax-min\tiqr/median\tunit")
	}
	for _, name := range cfg.names {
		attempted, failed := 0, 0
		for _, r := range recs {
			if r.Workload == name && !r.Trace {
				attempted += r.Result.Attempted
				failed += r.Result.Failed
			}
		}
		for _, m := range endToEndMetrics {
			xs := values(recs, name, false, m.name)
			if cfg.runs == 1 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", name, m.name, num(xs[0]), m.unit)
				continue
			}
			med, q1, q3 := quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75)
			lo, hi := quantile(xs, 0), quantile(xs, 1)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.1f%%\t%s\n",
				name, m.name, num(med), num(q1), num(q3), num(hi-lo), 100*ratio(q3-q1, med), m.unit)
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%s\t\t\t\t\tfailed/attempted (%d/%d)\n", name, num(ratio(float64(failed), float64(attempted))), failed, attempted)
	}
	//lint:ignore errdrop writing the report to stdout; there is nothing to do if the terminal is gone
	tw.Flush()
}

// printLayers prints the traced pass: one row per per-layer metric, one
// column per workload.
func printLayers(w io.Writer, names []string, recs []runRecord) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "\nPer-layer metrics (traced pass)\t\n")
	fmt.Fprintf(tw, "metric\t%s\tunit\t\n", strings.Join(names, "\t"))
	for _, m := range perLayerMetrics {
		row := m.name
		for _, name := range names {
			xs := values(recs, name, true, m.name)
			v := 0.0
			if len(xs) > 0 {
				v = xs[0]
			}
			row += "\t" + num(v)
		}
		fmt.Fprintf(tw, "%s\t%s\t\n", row, m.unit)
	}
	//lint:ignore errdrop writing the report to stdout; there is nothing to do if the terminal is gone
	tw.Flush()
}
