// Command delayanalysis reproduces Figures 11 and 12: the bounded
// increase in packet round-trip time caused by Client UDP Port Table
// maintenance and Algorithm 1 lookups at the AP, swept over the
// port-message sending interval (Fig. 11) and the number of open UDP
// ports per client (Fig. 12).
//
// By default the per-operation hash-table costs are the constants
// calibrated to the paper's router-class measurement device; -measure
// substitutes timings measured live on this machine's table
// implementation using the paper's procedure.
//
// Usage:
//
//	delayanalysis [-sweep interval|ports|both] [-measure]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro"
	"repro/internal/cli"
)

func main() {
	sweep := flag.String("sweep", "both", "which sweep to print: interval, ports, or both")
	measure := flag.Bool("measure", false, "measure table timings on this machine instead of calibrated constants")
	flag.Parse()
	if *sweep != "interval" && *sweep != "ports" && *sweep != "both" {
		cli.Usagef("delayanalysis", "-sweep %q: want interval, ports or both", *sweep)
	}

	timings := hide.CalibratedARMTimings()
	source := "calibrated (1 GHz ARM class)"
	if *measure {
		timings = hide.MeasureTableTimings(50, 50, 1)
		source = "measured on this machine"
	}
	fmt.Printf("table op timings (%s): delete=%v insert=%v lookup=%v\n\n",
		source, timings.Delete, timings.Insert, timings.Lookup)

	ns := []int{5, 10, 20, 30, 40, 50}

	ctx, stop := cli.SignalContext()
	defer stop()

	if *sweep == "interval" || *sweep == "both" {
		cli.Abort(ctx, "delayanalysis")
		fmt.Println("== Figure 11: delay overhead vs port-message interval (n_o=50, p=50%) ==")
		pts, err := hide.Figure11(timings)
		if err != nil {
			cli.Exit("delayanalysis", err)
		}
		fmt.Printf("%10s", "1/f")
		for _, n := range ns {
			fmt.Printf(" %9s", fmt.Sprintf("N=%d", n))
		}
		fmt.Println()
		byInterval := map[time.Duration][]float64{}
		var order []time.Duration
		for _, pt := range pts {
			if _, ok := byInterval[pt.PortMsgInterval]; !ok {
				order = append(order, pt.PortMsgInterval)
			}
			byInterval[pt.PortMsgInterval] = append(byInterval[pt.PortMsgInterval], pt.Overhead)
		}
		for _, iv := range order {
			fmt.Printf("%10s", iv)
			for _, o := range byInterval[iv] {
				fmt.Printf(" %8.3f%%", o*100)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if *sweep == "ports" || *sweep == "both" {
		cli.Abort(ctx, "delayanalysis")
		fmt.Println("== Figure 12: delay overhead vs open UDP ports (1/f=30s, p=50%) ==")
		pts, err := hide.Figure12(timings)
		if err != nil {
			cli.Exit("delayanalysis", err)
		}
		fmt.Printf("%10s", "n_o")
		for _, n := range ns {
			fmt.Printf(" %9s", fmt.Sprintf("N=%d", n))
		}
		fmt.Println()
		byPorts := map[int][]float64{}
		var order []int
		for _, pt := range pts {
			if _, ok := byPorts[pt.OpenPorts]; !ok {
				order = append(order, pt.OpenPorts)
			}
			byPorts[pt.OpenPorts] = append(byPorts[pt.OpenPorts], pt.Overhead)
		}
		for _, no := range order {
			fmt.Printf("%10d", no)
			for _, o := range byPorts[no] {
				fmt.Printf(" %8.3f%%", o*100)
			}
			fmt.Println()
		}
	}
}
