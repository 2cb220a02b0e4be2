// Enterprise: capacity and delay planning for a HIDE rollout in a
// 50-client office network. Before enabling HIDE fleet-wide, a network
// operator wants to know what the port-sync chatter costs: how much
// peak throughput is displaced by UDP Port Messages (Section V-A) and
// how much packet round-trip time grows from AP-side table work
// (Section V-B), across rollout fractions and sync intervals.
//
// Run with:
//
//	go run ./examples/enterprise
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const clients = 50
	cfg := hide.TableII()

	base, err := hide.NetworkCapacity(cfg, clients)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("office network: %d clients, 802.11b @ %.0f Mb/s\n", clients, cfg.DataRate/1e6)
	fmt.Printf("baseline saturation capacity: %.2f Mb/s (Bianchi phi=%.3f)\n\n",
		base.CapacityBps/1e6, base.Phi)

	// Sweep the rollout fraction at the default 10 s sync interval.
	fmt.Println("capacity cost of rolling HIDE out (10 s sync, 50 ports/msg):")
	for _, frac := range []float64{0.05, 0.25, 0.50, 0.75, 1.00} {
		params := hide.CapacityParams{
			HIDEFraction:    frac,
			PortMsgInterval: 10 * time.Second,
			PortsPerMsg:     50,
		}
		c, err := hide.CapacityOverhead(cfg, params, clients)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3.0f%% of clients  ->  capacity -%.4f%%  (%.1f kb/s)\n",
			frac*100, c*100, c*base.CapacityBps/1e3)
	}

	// Sweep the sync interval for delay at full rollout.
	fmt.Println("\nRTT cost at full rollout (50 open ports per client):")
	for _, iv := range []time.Duration{10 * time.Second, 30 * time.Second, time.Minute, 10 * time.Minute} {
		p := hide.DelayDefaults()
		p.N = clients
		p.HIDEFraction = 1.0
		p.PortMsgInterval = iv
		d, err := hide.DelayOverhead(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sync every %-6v ->  RTT +%.3f%%  (%.2f ms on a %.1f ms baseline)\n",
			iv, d*100, d*p.BaselineRTT.Seconds()*1000, p.BaselineRTT.Seconds()*1000)
	}

	// What do the client batteries get back? Evaluate HIDE:10% on the
	// heavy office trace for both device profiles.
	fmt.Println("\nwhat the phones gain (WML office trace, 10% useful broadcast):")
	tr, err := hide.GenerateTrace(hide.WML)
	if err != nil {
		log.Fatal(err)
	}
	for _, dev := range hide.Profiles {
		cmp, err := hide.CompareEnergyContext(context.Background(), tr, dev, hide.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s receive-all %6.1f mW -> HIDE:10%% %6.1f mW (saves %.0f%%)\n",
			dev.Name, cmp.ReceiveAll.AvgPowerMW(), cmp.HIDE[0].AvgPowerMW(), 100*cmp.Savings(0))
	}
	fmt.Println("\nverdict: sub-0.2% capacity cost and ~2% RTT cost buy 35-50% broadcast-energy savings.")
}
