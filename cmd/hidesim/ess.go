package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/trace"
)

// churnFlags collects the -ess experiment's knobs.
type churnFlags struct {
	aps      int
	stations int
	scenario string
	duration time.Duration
	roam     string
	dsLoss   float64
	jitter   float64
	seed     uint64
	format   string
	dev      hide.Profile
	workers  int
}

// runChurnGrid runs the cold-vs-replicated roaming experiment: every
// requested roam rate twice (cold port-table resync, then proactive DS
// replication) and prints the miss/energy comparison. Every cell's
// configuration is checked before the first one runs.
func runChurnGrid(f churnFlags) {
	scenario, err := trace.ScenarioByName(f.scenario)
	if err != nil {
		cli.Usagef("hidesim", "%v", err)
	}
	if f.aps < 1 {
		cli.Usagef("hidesim", "-ess-aps %d: an ESS needs at least one AP", f.aps)
	}
	if f.stations < 1 {
		cli.Usagef("hidesim", "-ess-stations %d: the experiment needs at least one station", f.stations)
	}
	type row struct {
		cell hide.ChurnConfig
		res  hide.ChurnResult
	}
	var rows []row
	for _, part := range strings.Split(f.roam, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			cli.Usagef("hidesim", "-ess-roam: bad roam rate %q", part)
		}
		for _, replicated := range []bool{false, true} {
			cell := hide.ChurnConfig{
				APs:           f.aps,
				Stations:      f.stations,
				Scenario:      scenario,
				Duration:      f.duration,
				RoamRate:      rate,
				Replicate:     replicated,
				DSLoss:        f.dsLoss,
				Seed:          f.seed,
				RefreshJitter: f.jitter,
				Device:        f.dev,
				Workers:       f.workers,
			}
			if err := cell.Validate(); err != nil {
				cli.Usagef("hidesim", "%v", err)
			}
			rows = append(rows, row{cell: cell})
		}
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	for i := range rows {
		res, err := hide.RunChurnContext(ctx, rows[i].cell)
		if err != nil {
			cli.Exit("hidesim", err)
		}
		rows[i].res = res
	}

	mode := func(replicated bool) string {
		if replicated {
			return "replicated"
		}
		return "cold"
	}
	if f.format == "csv" {
		w := csv.NewWriter(os.Stdout)
		if err := w.Write([]string{
			"scenario", "aps", "stations", "roams_per_min", "handoff",
			"roams", "wanted_misses", "resync_window_misses",
			"ds_replicated", "ds_dropped", "ports_seeded", "mean_power_mw",
		}); err != nil {
			cli.Exit("hidesim", err)
		}
		for _, r := range rows {
			s := r.res.Stats
			rec := []string{
				scenario.String(), strconv.Itoa(f.aps), strconv.Itoa(f.stations),
				strconv.FormatFloat(r.cell.RoamRate, 'f', -1, 64), mode(r.cell.Replicate),
				strconv.Itoa(s.Roams), strconv.Itoa(s.WantedMisses), strconv.Itoa(s.ResyncWindowMisses),
				strconv.Itoa(s.DSRecordsReplicated), strconv.Itoa(s.DSRecordsDropped),
				strconv.Itoa(s.PortsSeededOnRoam),
				strconv.FormatFloat(r.res.MeanPowerMW, 'f', 3, 64),
			}
			//lint:ignore errdrop csv.Writer defers write errors to Error(), checked after Flush
			_ = w.Write(rec)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			cli.Exit("hidesim", err)
		}
		return
	}

	fmt.Printf("== ESS roaming churn: %s, %d APs, %d HIDE stations, %v, %s ==\n",
		scenario, f.aps, f.stations, rows[0].res.Duration.Round(time.Second), f.dev.Name)
	fmt.Printf("%-14s %-11s %7s %8s %13s %8s %8s %12s\n",
		"roams/sta/min", "handoff", "roams", "misses", "resync-misses", "ds-repl", "ds-drop", "power (mW)")
	for _, r := range rows {
		s := r.res.Stats
		fmt.Printf("%-14g %-11s %7d %8d %13d %8d %8d %12.3f\n",
			r.cell.RoamRate, mode(r.cell.Replicate), s.Roams, s.WantedMisses, s.ResyncWindowMisses,
			s.DSRecordsReplicated, s.DSRecordsDropped, r.res.MeanPowerMW)
	}
}
