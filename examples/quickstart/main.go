// Quickstart: evaluate how much energy HIDE saves a phone sitting in a
// cafe, using the public API end to end — generate a calibrated trace,
// compare the three traffic-management solutions, and print the
// result. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// 1. Generate the Starbucks broadcast trace (30 min of UDP-padded
	//    broadcast frames calibrated to the paper's Figure 6).
	tr, err := hide.GenerateTrace(hide.Starbucks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace %q: %d broadcast frames over %v (%.2f frames/s)\n",
		tr.Name, len(tr.Frames), tr.Duration, tr.MeanFPS())

	// 2. Compare receive-all, the client-side filter's lower bound, and
	//    HIDE at 10%..2% useful frames on a Nexus One.
	cmp, err := hide.CompareEnergyContext(ctx, tr, hide.NexusOne, hide.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naverage power of broadcast handling (%s):\n", hide.NexusOne.Name)
	fmt.Printf("  receive-all : %6.1f mW\n", cmp.ReceiveAll.AvgPowerMW())
	fmt.Printf("  client-side : %6.1f mW (driver wakelock %v)\n",
		cmp.ClientSide.AvgPowerMW(), cmp.ClientSide.DriverWakelock)
	for i, h := range cmp.HIDE {
		fmt.Printf("  HIDE:%-3g%%   : %6.1f mW (saves %.0f%% vs receive-all)\n",
			hide.UsefulFractions[i]*100, h.AvgPowerMW(), 100*cmp.Savings(i))
	}

	// 3. How much longer does the phone sleep?
	row, err := hide.SuspendFractionsContext(ctx, tr, hide.NexusOne, hide.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfraction of time in suspend mode:\n")
	fmt.Printf("  receive-all %.0f%%  client-side %.0f%%  HIDE:10%% %.0f%%  HIDE:2%% %.0f%%\n",
		row.ReceiveAll*100, row.ClientSide*100, row.HIDE10*100, row.HIDE2*100)
}
