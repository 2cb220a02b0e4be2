// Command timeline renders a station's reconstructed power-state
// timeline as ASCII art: what the phone was doing, second by second,
// under each traffic-management solution. It makes the paper's Figure
// 9 story visible — receive-all keeps the host awake through broadcast
// chatter while HIDE sleeps through all of it except its own traffic.
//
//	█ awake   ▒ resuming/suspending   · suspended
//
// Usage:
//
//	timeline [-scenario Starbucks] [-device nexusone] [-useful 0.1] [-window 5m] [-width 100]
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/energy"
	"repro/internal/policy"
	"repro/internal/trace"
)

func main() {
	scenario := flag.String("scenario", "Starbucks", "trace scenario")
	device := flag.String("device", "nexusone", "device profile: nexusone or galaxys4")
	useful := flag.Float64("useful", 0.10, "useful broadcast fraction")
	window := flag.Duration("window", 5*time.Minute, "portion of the trace to render")
	width := flag.Int("width", 100, "characters per row")
	flag.Parse()

	dev, err := hide.ProfileByName(*device)
	if err != nil {
		cli.Usagef("timeline", "%v", err)
	}
	sc, err := trace.ScenarioByName(*scenario)
	if err != nil {
		cli.Usagef("timeline", "%v", err)
	}
	if *width < 10 || *width > 500 {
		cli.Usagef("timeline", "width %d outside [10, 500]", *width)
	}
	if !(*useful >= 0 && *useful <= 1) {
		cli.Usagef("timeline", "-useful %v outside [0, 1]", *useful)
	}
	if *window <= 0 {
		cli.Usagef("timeline", "-window %v must be positive", *window)
	}

	full, err := hide.GenerateTrace(sc)
	if err != nil {
		cli.Exit("timeline", err)
	}
	tr := hide.TruncateTrace(full, *window)
	tagged := hide.TagUniform(tr, *useful, hide.DefaultSeed)

	fmt.Printf("%s on %s, first %v, %.0f%% useful (%d broadcast frames)\n",
		tr.Name, dev.Name, tr.Duration, *useful*100, len(tr.Frames))
	fmt.Printf("legend: %s\n\n", "█ awake   ▒ resuming/suspending   · suspended")

	ctx, stop := cli.SignalContext()
	defer stop()
	for _, k := range []policy.Kind{policy.ReceiveAll, policy.ClientSide, policy.HIDE} {
		cli.Abort(ctx, "timeline")
		p, err := policy.New(k)
		if err != nil {
			cli.Exit("timeline", err)
		}
		arr, err := policy.AppendArrivals(nil, p, tr, tagged)
		if err != nil {
			cli.Exit("timeline", err)
		}
		cfg := energy.Config{Device: dev, Duration: tr.Duration}
		ivs, err := energy.StateTimeline(arr, cfg)
		if err != nil {
			cli.Exit("timeline", err)
		}
		b, err := energy.Compute(arr, cfg)
		if err != nil {
			cli.Exit("timeline", err)
		}
		label := k.String()
		if k == policy.ClientSide {
			// The timeline shows one concrete filter (δ = 100 ms), not
			// the evaluation pipeline's lower-bound sweep.
			label = "client-side*"
		}
		fmt.Printf("%-12s %s  %5.1f mW, %4.1f%% suspended\n",
			label, render(ivs, tr.Duration, *width), b.AvgPowerW()*1000, b.SuspendFraction*100)
	}
	fmt.Println("\n(* client-side rendered with a fixed 100 ms driver wakelock, not the lower-bound sweep)")

	fmt.Printf("\nframe arrivals: %s\n", renderArrivals(tr, *width))
}

// render maps the timeline onto width buckets, picking each bucket's
// dominant state.
func render(ivs []energy.Interval, d time.Duration, width int) string {
	glyph := map[energy.StateKind]rune{
		energy.StateSuspended:  '·',
		energy.StateSuspending: '▒',
		energy.StateResuming:   '▒',
		energy.StateAwake:      '█',
	}
	var sb strings.Builder
	bucket := d / time.Duration(width)
	for i := 0; i < width; i++ {
		from := time.Duration(i) * bucket
		to := from + bucket
		// Dominant state within [from, to).
		var best energy.StateKind
		var bestDur time.Duration
		for _, iv := range ivs {
			lo, hi := iv.From, iv.To
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo && hi-lo > bestDur {
				bestDur = hi - lo
				best = iv.Kind
			}
		}
		sb.WriteRune(glyph[best])
	}
	return sb.String()
}

// renderArrivals marks buckets containing at least one broadcast frame.
func renderArrivals(tr *trace.Trace, width int) string {
	marks := make([]rune, width)
	for i := range marks {
		marks[i] = ' '
	}
	bucket := tr.Duration / time.Duration(width)
	for _, f := range tr.Frames {
		i := int(f.At / bucket)
		if i >= width {
			i = width - 1
		}
		marks[i] = '|'
	}
	return string(marks)
}
