// Command tracegen generates the five calibrated synthetic broadcast
// traces and characterizes them: per-second volume CDFs (Figure 6),
// means, durations, and destination-port composition. With -out it
// also writes each trace as CSV for use with external tools or as a
// template for substituting real captures.
//
// Usage:
//
//	tracegen [-scenario all|Classroom|CS_Dept|WML|Starbucks|WRL] [-out dir] [-cdf]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/trace"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario to generate, or all")
	outDir := flag.String("out", "", "directory to write CSV traces into")
	cdf := flag.Bool("cdf", false, "print full CDF series (Figure 6 curves)")
	flag.Parse()

	scenarios := hide.Scenarios
	if *scenario != "all" {
		s, err := trace.ScenarioByName(*scenario)
		if err != nil {
			cli.Usagef("tracegen", "%v", err)
		}
		scenarios = []hide.Scenario{s}
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	fmt.Println("== Figure 6: broadcast traffic volumes in traces ==")
	fmt.Printf("%-10s %9s %8s %8s %8s %8s %8s\n",
		"trace", "duration", "frames", "mean", "p50", "p90", "p99")
	for _, s := range scenarios {
		cli.Abort(ctx, "tracegen")
		tr, err := hide.GenerateTrace(s)
		if err != nil {
			cli.Exit("tracegen", err)
		}
		counts := tr.FramesPerSecond()
		c := hide.NewCDFInts(counts)
		fmt.Printf("%-10s %9s %8d %8.2f %8.0f %8.0f %8.0f\n",
			tr.Name, tr.Duration, len(tr.Frames), c.Mean(),
			c.Quantile(0.5), c.Quantile(0.9), c.Quantile(0.99))

		if *cdf {
			xs, ps := c.Points()
			fmt.Printf("  cdf(%s): ", tr.Name)
			for i := range xs {
				fmt.Printf("(%.0f, %.3f) ", xs[i], ps[i])
			}
			fmt.Println()
		}

		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				cli.Exit("tracegen", err)
			}
			path := filepath.Join(*outDir, strings.ToLower(tr.Name)+".csv")
			f, err := os.Create(path)
			if err != nil {
				cli.Exit("tracegen", err)
			}
			if err := hide.WriteTraceCSV(f, tr); err != nil {
				//lint:ignore errdrop close error is moot once the write has failed
				f.Close()
				cli.Exit("tracegen", fmt.Errorf("writing %s: %v", path, err))
			}
			if err := f.Close(); err != nil {
				cli.Exit("tracegen", fmt.Errorf("closing %s: %v", path, err))
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}

	fmt.Println("\n== destination-port composition (frames per port) ==")
	for _, s := range scenarios {
		cli.Abort(ctx, "tracegen")
		tr, err := hide.GenerateTrace(s)
		if err != nil {
			cli.Exit("tracegen", err)
		}
		hist := tr.PortHistogram()
		type pc struct {
			port  uint16
			count int
		}
		ports := make([]pc, 0, len(hist))
		for p, n := range hist {
			ports = append(ports, pc{p, n})
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i].count > ports[j].count })
		fmt.Printf("%-10s", tr.Name)
		for _, p := range ports {
			fmt.Printf(" %d:%d", p.port, p.count)
		}
		fmt.Println()
	}
}
