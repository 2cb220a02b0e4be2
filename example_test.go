package hide_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

// ExampleCompareEnergyContext reproduces one cell of the paper's energy study:
// the Starbucks trace on a Nexus One.
func ExampleCompareEnergyContext() {
	tr, err := hide.GenerateTrace(hide.Starbucks)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := hide.CompareEnergyContext(context.Background(), tr, hide.NexusOne, hide.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("receive-all %.1f mW\n", cmp.ReceiveAll.AvgPowerMW())
	fmt.Printf("HIDE:10%%    %.1f mW (saves %.0f%%)\n", cmp.HIDE[0].AvgPowerMW(), 100*cmp.Savings(0))
	// Output:
	// receive-all 57.4 mW
	// HIDE:10%    18.0 mW (saves 69%)
}

// ExampleCapacityOverhead checks the paper's worst-case capacity cost.
func ExampleCapacityOverhead() {
	params := hide.CapacityParams{
		HIDEFraction:    0.75,
		PortMsgInterval: 10 * time.Second,
		PortsPerMsg:     50,
	}
	c, err := hide.CapacityOverhead(hide.TableII(), params, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capacity decrease: %.3f%%\n", c*100)
	// Output:
	// capacity decrease: 0.125%
}

// ExampleDelayOverhead checks the paper's worst-case RTT cost.
func ExampleDelayOverhead() {
	d, err := hide.DelayOverhead(hide.DelayDefaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RTT increase: %.2f%%\n", d*100)
	// Output:
	// RTT increase: 2.33%
}

// ExampleNewNetwork runs the live protocol simulation: a HIDE phone
// under a HIDE AP sleeps through traffic for ports it never opened.
func ExampleNewNetwork() {
	net, err := hide.NewNetwork(hide.NetworkConfig{SSID: "demo", HIDE: true})
	if err != nil {
		log.Fatal(err)
	}
	phone, err := net.AddStation(hide.StationHIDE, []uint16{5353})
	if err != nil {
		log.Fatal(err)
	}

	cfg := hide.ScenarioConfig(hide.Starbucks)
	cfg.Duration = 2 * time.Minute
	tr, err := hide.GenerateTraceConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Replay(tr); err != nil {
		log.Fatal(err)
	}
	s := phone.Stats()
	fmt.Printf("trace frames: %d, received: %d, useful: %d\n",
		len(tr.Frames), s.GroupReceived, s.GroupUseful)
	// Output:
	// trace frames: 49, received: 5, useful: 4
}

// ExampleSummarizeTrace characterizes a generated trace.
func ExampleSummarizeTrace() {
	tr, err := hide.GenerateTrace(hide.Starbucks)
	if err != nil {
		log.Fatal(err)
	}
	s := hide.SummarizeTrace(tr)
	fmt.Printf("frames: %d, mean %.2f fps, peak %d fps\n", s.Frames, s.MeanFPS, s.PeakFPS)
	// Output:
	// frames: 582, mean 0.32 fps, peak 4 fps
}

// ExampleOpenPortsForFraction picks ports covering a traffic share.
func ExampleOpenPortsForFraction() {
	tr, err := hide.GenerateTrace(hide.CSDept)
	if err != nil {
		log.Fatal(err)
	}
	open := hide.OpenPortsForFraction(tr, 0.10)
	useful := hide.TagByOpenPorts(tr, open)
	n := 0
	for _, u := range useful {
		if u {
			n++
		}
	}
	fmt.Printf("%d ports cover %.1f%% of frames\n", len(open), 100*float64(n)/float64(len(tr.Frames)))
	// Output:
	// 3 ports cover 7.5% of frames
}
