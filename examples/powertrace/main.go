// Powertrace: programmatic use of the power-state timeline — the kind
// of analysis a battery engineer runs on a wakeup report. It replays a
// trace under HIDE, reconstructs the host state timeline, and answers:
// how many wakeups, what caused them, how long was the longest sleep,
// and where did the energy go?
//
// Run with:
//
//	go run ./examples/powertrace
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
	"repro/internal/energy"
	"repro/internal/policy"
)

func main() {
	tr, err := hide.GenerateTrace(hide.WRL)
	if err != nil {
		log.Fatal(err)
	}
	useful := hide.TagUniform(tr, 0.10, 0x51de)

	p, err := policy.New(policy.HIDE)
	if err != nil {
		log.Fatal(err)
	}
	arrivals, err := policy.AppendArrivals(nil, p, tr, useful)
	if err != nil {
		log.Fatal(err)
	}
	cfg := energy.Config{Device: hide.GalaxyS4, Duration: tr.Duration, Overhead: energy.DefaultOverhead()}
	ivs, err := energy.StateTimeline(arrivals, cfg)
	if err != nil {
		log.Fatal(err)
	}
	b, err := energy.Compute(arrivals, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HIDE on %s over %v of %s traffic (10%% useful)\n\n",
		cfg.Device.Name, tr.Duration, tr.Name)

	// Wakeup census.
	var wakeups int
	var longestSleep, longestAwake energy.Interval
	for _, iv := range ivs {
		switch iv.Kind {
		case energy.StateResuming:
			wakeups++
		case energy.StateSuspended:
			if iv.Duration() > longestSleep.Duration() {
				longestSleep = iv
			}
		case energy.StateAwake:
			if iv.Duration() > longestAwake.Duration() {
				longestAwake = iv
			}
		}
	}
	fmt.Printf("wakeups: %d (%.1f/hour)\n", wakeups, float64(wakeups)/tr.Duration.Hours())
	fmt.Printf("longest sleep: %v (from %v)\n", longestSleep.Duration().Truncate(time.Millisecond), longestSleep.From.Truncate(time.Second))
	fmt.Printf("longest awake: %v (from %v)\n", longestAwake.Duration().Truncate(time.Millisecond), longestAwake.From.Truncate(time.Second))

	// Time budget by state.
	fmt.Println("\ntime by state:")
	for _, k := range []energy.StateKind{energy.StateSuspended, energy.StateAwake, energy.StateResuming, energy.StateSuspending} {
		d := energy.TimeInState(ivs, k)
		fmt.Printf("  %-11s %10v (%5.1f%%)\n", k, d.Truncate(time.Second), 100*float64(d)/float64(tr.Duration))
	}

	// Energy budget by component.
	eb, ef, est, ewl, eo := b.ComponentPowersW()
	fmt.Println("\nenergy by component:")
	type comp struct {
		name string
		mw   float64
	}
	comps := []comp{
		{"beacons (Eb)", eb * 1000},
		{"radio rx/idle (Ef)", ef * 1000},
		{"state transfers (Est)", est * 1000},
		{"wakelock idle (Ewl)", ewl * 1000},
		{"HIDE overhead (Eo)", eo * 1000},
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].mw > comps[j].mw })
	for _, c := range comps {
		fmt.Printf("  %-22s %6.1f mW\n", c.name, c.mw)
	}
	fmt.Printf("  %-22s %6.1f mW\n", "total", b.AvgPowerW()*1000)

	// What woke us: port census of useful frames.
	ports := map[uint16]int{}
	for i, f := range tr.Frames {
		if useful[i] {
			ports[f.DstPort]++
		}
	}
	fmt.Println("\nuseful frames by port (wakeup causes):")
	type pc struct {
		port uint16
		n    int
	}
	var pcs []pc
	for p, n := range ports {
		pcs = append(pcs, pc{p, n})
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i].n > pcs[j].n })
	for _, x := range pcs {
		fmt.Printf("  udp/%-5d %5d frames\n", x.port, x.n)
	}
}
