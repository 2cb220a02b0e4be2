// Command capacity reproduces Figure 10: the decrease in network
// capacity caused by UDP Port Message traffic, computed from Bianchi's
// DCF saturation-throughput model under the paper's Table II 802.11b
// configuration, across network sizes and HIDE deployment fractions.
//
// Usage:
//
//	capacity [-interval 10s] [-ports 50] [-rate 11e6]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/dcfsim"
)

func main() {
	interval := flag.Duration("interval", 10*time.Second, "UDP Port Message sending interval (1/f)")
	ports := flag.Int("ports", 50, "UDP ports per message")
	rate := flag.Float64("rate", 11e6, "channel data rate in bits/s")
	validate := flag.Bool("validate", false, "cross-check the Bianchi model against the slotted DCF Monte-Carlo simulator")
	flag.Parse()
	if *interval <= 0 {
		cli.Usagef("capacity", "-interval %v must be positive", *interval)
	}
	if *ports < 0 {
		cli.Usagef("capacity", "-ports %d must not be negative", *ports)
	}
	if !(*rate > 0) {
		cli.Usagef("capacity", "-rate %v must be positive", *rate)
	}

	cfg := hide.TableII()
	cfg.DataRate = *rate

	ctx, stop := cli.SignalContext()
	defer stop()

	fmt.Println("== baseline capacity (Bianchi, Table II) ==")
	fmt.Printf("%6s %10s %10s %12s\n", "N", "tau", "p", "S1 (Mb/s)")
	for _, n := range []int{5, 10, 20, 30, 40, 50} {
		r, err := hide.NetworkCapacity(cfg, n)
		if err != nil {
			cli.Exit("capacity", err)
		}
		fmt.Printf("%6d %10.4f %10.4f %12.3f\n", n, r.Tau, r.P, r.CapacityBps/1e6)
	}

	if *validate {
		fmt.Println("\n== Bianchi vs slotted DCF Monte-Carlo (60 s virtual) ==")
		fmt.Printf("%6s %12s %12s %9s\n", "N", "phi-model", "phi-sim", "error")
		for _, n := range []int{5, 10, 20, 30, 40, 50} {
			cli.Abort(ctx, "capacity")
			simRes, ana, relErr, err := dcfsim.ValidateAgainstBianchi(cfg, n, 60*time.Second, 42)
			if err != nil {
				cli.Exit("capacity", err)
			}
			fmt.Printf("%6d %12.4f %12.4f %8.2f%%\n", n, ana.Phi, simRes.Phi, relErr*100)
		}
	}

	fmt.Println("\n== Figure 10: decrease in network capacity ==")
	fmt.Printf("%6s", "N")
	fractions := []float64{0.05, 0.25, 0.50, 0.75}
	for _, p := range fractions {
		fmt.Printf(" %10s", fmt.Sprintf("p=%g%%", p*100))
	}
	fmt.Println()
	for _, n := range []int{5, 10, 20, 30, 40, 50} {
		cli.Abort(ctx, "capacity")
		fmt.Printf("%6d", n)
		for _, p := range fractions {
			params := hide.CapacityParams{
				HIDEFraction:    p,
				PortMsgInterval: *interval,
				PortsPerMsg:     *ports,
			}
			c, err := hide.CapacityOverhead(cfg, params, n)
			if err != nil {
				cli.Exit("capacity", err)
			}
			fmt.Printf(" %9.4f%%", c*100)
		}
		fmt.Println()
	}
}
