// Command sweep explores HIDE's savings landscape beyond the paper's
// five fixed traces: it time-scales one base trace across a range of
// densities and sweeps the useful fraction, printing the HIDE-vs-
// receive-all saving for every cell — the full picture the paper's
// Figures 7/8 sample five columns of. Output is a table or CSV for
// plotting.
//
// The (density × useful fraction) grid fans out over a worker pool
// (-parallel/-j, default GOMAXPROCS) with a deterministic reduction,
// and Ctrl-C cancels the sweep.
//
// Usage:
//
//	sweep [-device nexusone] [-base WRL] [-densities 0.25,0.5,1,2,4] [-useful 0.02,0.05,0.1,0.2] [-format table|csv] [-parallel N]
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/trace"
)

func main() {
	device := flag.String("device", "nexusone", "device profile: nexusone or galaxys4")
	base := flag.String("base", "WRL", "base scenario to time-scale")
	densities := flag.String("densities", "0.25,0.5,1,2,4", "density multipliers relative to the base trace")
	useful := flag.String("useful", "0.02,0.05,0.10,0.20,0.50", "useful fractions")
	format := flag.String("format", "table", "output: table or csv")
	workers := cli.WorkersFlag()
	flag.Parse()

	dev, err := hide.ProfileByName(*device)
	if err != nil {
		cli.Usagef("sweep", "%v", err)
	}
	sc, err := trace.ScenarioByName(*base)
	if err != nil {
		cli.Usagef("sweep", "%v", err)
	}
	dens, err := parseFloats(*densities)
	if err != nil {
		cli.Usagef("sweep", "%v", err)
	}
	fracs, err := parseFloats(*useful)
	if err != nil {
		cli.Usagef("sweep", "%v", err)
	}
	for _, d := range dens {
		if !(d > 0) {
			cli.Usagef("sweep", "-densities %v must be positive", d)
		}
	}
	for _, f := range fracs {
		if !(f >= 0 && f <= 1) {
			cli.Usagef("sweep", "-useful %v outside [0, 1]", f)
		}
	}
	if *format != "table" && *format != "csv" {
		cli.Usagef("sweep", "-format %q must be table or csv", *format)
	}

	baseTr, err := hide.GenerateTrace(sc)
	if err != nil {
		cli.Exit("sweep", err)
	}

	type cell struct {
		density, frac, fps, saving, raMW, hideMW float64
	}
	type job struct {
		tr   *hide.Trace
		d, f float64
	}
	var jobs []job
	for _, d := range dens {
		// Density k = time-scale 1/k.
		tr, err := hide.TimeScaleTrace(baseTr, 1/d)
		if err != nil {
			cli.Exit("sweep", err)
		}
		for _, f := range fracs {
			jobs = append(jobs, job{tr: tr, d: d, f: f})
		}
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	cells, err := engine.Map(ctx, *workers, len(jobs), func(ctx context.Context, i int) (cell, error) {
		j := jobs[i]
		ra, err := hide.EvaluateFractionContext(ctx, j.tr, j.f, dev, hide.ReceiveAll, hide.Options{})
		if err != nil {
			return cell{}, err
		}
		hd, err := hide.EvaluateFractionContext(ctx, j.tr, j.f, dev, hide.HIDE, hide.Options{})
		if err != nil {
			return cell{}, err
		}
		return cell{
			density: j.d, frac: j.f, fps: j.tr.MeanFPS(),
			saving: 1 - hd.Breakdown.TotalJ()/ra.Breakdown.TotalJ(),
			raMW:   ra.AvgPowerMW(), hideMW: hd.AvgPowerMW(),
		}, nil
	})
	if err != nil {
		cli.Exit("sweep", err)
	}

	if *format == "csv" {
		w := csv.NewWriter(os.Stdout)
		//lint:ignore errdrop csv.Writer defers write errors to Error(), checked after Flush
		_ = w.Write([]string{"density", "mean_fps", "useful_fraction", "receive_all_mw", "hide_mw", "saving"})
		for _, c := range cells {
			//lint:ignore errdrop csv.Writer defers write errors to Error(), checked after Flush
			_ = w.Write([]string{
				strconv.FormatFloat(c.density, 'f', 2, 64),
				strconv.FormatFloat(c.fps, 'f', 2, 64),
				strconv.FormatFloat(c.frac, 'f', 2, 64),
				strconv.FormatFloat(c.raMW, 'f', 2, 64),
				strconv.FormatFloat(c.hideMW, 'f', 2, 64),
				strconv.FormatFloat(c.saving, 'f', 4, 64),
			})
		}
		w.Flush()
		if err := w.Error(); err != nil {
			cli.Exit("sweep", err)
		}
		return
	}

	fmt.Printf("HIDE saving vs receive-all, %s, base %s (rows: density, cols: useful fraction)\n\n", dev.Name, baseTr.Name)
	fmt.Printf("%18s", "density (fps)")
	for _, f := range fracs {
		fmt.Printf(" %8s", fmt.Sprintf("%g%%", f*100))
	}
	fmt.Println()
	i := 0
	for _, d := range dens {
		fmt.Printf("%18s", fmt.Sprintf("%gx (%.1f)", d, cells[i].fps))
		for range fracs {
			fmt.Printf(" %7.1f%%", cells[i].saving*100)
			i++
		}
		fmt.Println()
	}
	fmt.Println("\nsavings shrink with density (HIDE's residual wake-ups crowd together)")
	fmt.Println("and with the useful fraction (more frames must be delivered anyway).")
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}
