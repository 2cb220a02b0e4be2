// Command hidesim reproduces the paper's trace-driven energy study:
// Figures 7 and 8 (average power of handling broadcast traffic under
// receive-all, the client-side lower bound, and HIDE at 10/8/6/4/2%
// useful frames, for the Nexus One and Galaxy S4) and Figure 9 (the
// fraction of time in suspend mode).
//
// The evaluation grid fans out over a worker pool (-parallel/-j,
// default GOMAXPROCS) with byte-identical output for any worker
// count, and Ctrl-C cancels a run in flight.
//
// Usage:
//
//	hidesim [-device nexusone|galaxys4|all] [-metric power|suspend|all] [-components] [-parallel N]
//	hidesim -ess [-ess-aps K] [-ess-stations N] [-ess-roam r1,r2,...] [-ess-dsloss p] [-parallel N]
//
// The chaos fault grid has its own command, crosscheck -fault.
//
// With -ess, hidesim runs the multi-AP roaming churn experiment: each
// requested roam rate is run twice — cold handoffs (the roamed-to AP
// learns the client's ports only at the next UDP Port Message) and
// replicated handoffs (port state is pushed over the distribution
// system ahead of the roam) — and the table compares wanted-frame
// misses, resync-window misses, and mean per-station power.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
)

func main() {
	device := flag.String("device", "all", "device profile: nexusone, galaxys4, or all")
	metric := flag.String("metric", "all", "metric: power (Fig. 7/8), suspend (Fig. 9), or all")
	components := flag.Bool("components", false, "print the five energy components per bar")
	format := flag.String("format", "table", "output format: table or csv (machine-readable, for plotting)")
	essMode := flag.Bool("ess", false, "run the multi-AP roaming churn experiment instead")
	essAPs := flag.Int("ess-aps", 4, "ESS: number of access points")
	essStations := flag.Int("ess-stations", 32, "ESS: number of HIDE stations")
	essScenario := flag.String("ess-scenario", "Classroom", "ESS: broadcast trace scenario")
	essDuration := flag.Duration("ess-duration", 5*time.Minute, "ESS: trace truncation (0 = full capture)")
	essRoam := flag.String("ess-roam", "0.5,2,8", "ESS: comma-separated roam rates (roams per station per minute)")
	essDSLoss := flag.Float64("ess-dsloss", 0, "ESS: distribution-system record loss probability")
	essJitter := flag.Float64("ess-jitter", 0, "ESS: port-refresh jitter fraction")
	essSeed := flag.Uint64("ess-seed", 1, "ESS: trace and mobility seed")
	workers := cli.WorkersFlag()
	flag.Parse()

	devices := hide.Profiles
	if !strings.EqualFold(*device, "all") {
		dev, err := hide.ProfileByName(*device)
		if err != nil {
			cli.Usagef("hidesim", "%v", err)
		}
		devices = []hide.Profile{dev}
	}
	if *format != "table" && *format != "csv" {
		cli.Usagef("hidesim", "unknown format %q", *format)
	}
	if *essMode {
		runChurnGrid(churnFlags{
			aps:      *essAPs,
			stations: *essStations,
			scenario: *essScenario,
			duration: *essDuration,
			roam:     *essRoam,
			dsLoss:   *essDSLoss,
			jitter:   *essJitter,
			seed:     *essSeed,
			format:   *format,
			dev:      devices[0], // churn prices one device; -device all keeps the Nexus One
			workers:  *workers,
		})
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	opts := hide.Options{Workers: *workers}

	if *metric != "power" && *metric != "suspend" && *metric != "all" {
		cli.Usagef("hidesim", "unknown metric %q", *metric)
	}

	if *format == "csv" {
		w := csv.NewWriter(os.Stdout)
		if err := w.Write([]string{
			"device", "trace", "solution", "useful_fraction",
			"avg_power_mw", "eb_mw", "ef_mw", "est_mw", "ewl_mw", "eo_mw", "suspend_fraction",
		}); err != nil {
			cli.Exit("hidesim", err)
		}
		for _, dev := range devices {
			suite, err := hide.RunSuiteContext(ctx, dev, opts)
			if err != nil {
				cli.Exit("hidesim", err)
			}
			writeCSV(w, suite)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			cli.Exit("hidesim", err)
		}
		return
	}

	for _, dev := range devices {
		suite, err := hide.RunSuiteContext(ctx, dev, opts)
		if err != nil {
			cli.Exit("hidesim", err)
		}
		if *metric == "power" || *metric == "all" {
			printPower(suite, *components)
		}
		if *metric == "suspend" || *metric == "all" {
			printSuspend(suite)
		}
	}
}

// writeCSV emits one row per evaluated bar.
func writeCSV(w *csv.Writer, s *hide.Suite) {
	row := func(trace, solution string, useful float64, r hide.Result) {
		eb, ef, est, ewl, eo := r.Breakdown.ComponentPowersW()
		rec := []string{
			s.Device.Name, trace, solution,
			strconv.FormatFloat(useful, 'f', 2, 64),
			strconv.FormatFloat(r.AvgPowerMW(), 'f', 3, 64),
			strconv.FormatFloat(eb*1000, 'f', 3, 64),
			strconv.FormatFloat(ef*1000, 'f', 3, 64),
			strconv.FormatFloat(est*1000, 'f', 3, 64),
			strconv.FormatFloat(ewl*1000, 'f', 3, 64),
			strconv.FormatFloat(eo*1000, 'f', 3, 64),
			strconv.FormatFloat(r.Breakdown.SuspendFraction, 'f', 4, 64),
		}
		//lint:ignore errdrop csv.Writer defers write errors to Error(), checked after Flush
		_ = w.Write(rec)
	}
	for _, c := range s.Comparisons {
		row(c.Trace, "receive-all", 0.10, c.ReceiveAll)
		row(c.Trace, "client-side", 0.10, c.ClientSide)
		for i, h := range c.HIDE {
			row(c.Trace, "HIDE", hide.UsefulFractions[i], h)
		}
	}
}

// printPower renders the Figure 7/8 table for one device.
func printPower(s *hide.Suite, components bool) {
	fig := "Figure 7"
	if s.Device.Name == hide.GalaxyS4.Name {
		fig = "Figure 8"
	}
	fmt.Printf("== %s: avg power of broadcast handling (mW), %s ==\n", fig, s.Device.Name)
	fmt.Printf("%-10s %12s %12s", "trace", "receive-all", "client-side")
	for _, f := range hide.UsefulFractions {
		fmt.Printf(" %11s", fmt.Sprintf("HIDE:%g%%", f*100))
	}
	fmt.Println()
	for _, c := range s.Comparisons {
		fmt.Printf("%-10s %12.1f %12.1f", c.Trace, c.ReceiveAll.AvgPowerMW(), c.ClientSide.AvgPowerMW())
		for _, h := range c.HIDE {
			fmt.Printf(" %11.1f", h.AvgPowerMW())
		}
		fmt.Println()
		if components {
			printComponents("  receive-all", c.ReceiveAll)
			printComponents("  client-side", c.ClientSide)
			for i, h := range c.HIDE {
				printComponents(fmt.Sprintf("  HIDE:%g%%", hide.UsefulFractions[i]*100), h)
			}
		}
	}
	lo10, hi10 := s.SavingsRange(0)
	lo2, hi2 := s.SavingsRange(len(hide.UsefulFractions) - 1)
	fmt.Printf("HIDE:10%% saves %.0f%%-%.0f%% vs receive-all; HIDE:2%% saves %.0f%%-%.0f%%\n\n",
		lo10*100, hi10*100, lo2*100, hi2*100)
}

// printComponents renders one bar's stacked components.
func printComponents(label string, r hide.Result) {
	eb, ef, est, ewl, eo := r.Breakdown.ComponentPowersW()
	fmt.Printf("%-22s Eb=%6.1f Ef=%6.1f Est=%6.1f Ewl=%6.1f Eo=%5.2f (mW)\n",
		label, eb*1000, ef*1000, est*1000, ewl*1000, eo*1000)
}

// printSuspend renders the Figure 9 table for one device.
func printSuspend(s *hide.Suite) {
	fmt.Printf("== Figure 9: fraction of time in suspend mode, %s ==\n", s.Device.Name)
	fmt.Printf("%-10s %12s %12s %9s %9s\n", "trace", "receive-all", "client-side", "HIDE:10%", "HIDE:2%")
	for _, row := range s.Suspend {
		fmt.Printf("%-10s %12.2f %12.2f %9.2f %9.2f\n",
			row.Trace, row.ReceiveAll, row.ClientSide, row.HIDE10, row.HIDE2)
	}
	fmt.Println()
}
