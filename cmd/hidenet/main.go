// Command hidenet runs the protocol-level simulation: one AP and a set
// of stations (HIDE, legacy receive-all, and client-side) exchange real
// marshalled 802.11 frames over an emulated channel while a scenario's
// broadcast trace replays through the AP. It reports per-station
// protocol counters and energy under the Section IV model.
//
// Usage:
//
//	hidenet [-scenario Starbucks] [-device nexusone] [-useful 0.1] [-loss 0] [-minutes 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	stdnet "net"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/station"
	"repro/internal/trace"
)

func main() {
	scenario := flag.String("scenario", "Starbucks", "trace scenario to replay")
	device := flag.String("device", "nexusone", "device profile: nexusone or galaxys4")
	useful := flag.Float64("useful", 0.10, "target fraction of useful broadcast frames")
	loss := flag.Float64("loss", 0, "medium loss probability")
	minutes := flag.Int("minutes", 0, "truncate the trace to this many minutes (0 = full)")
	serve := flag.String("serve", "", "serve a live monitor/inject service on this UDP address (e.g. 127.0.0.1:5599)")
	speed := flag.Float64("speed", 50, "realtime pacing speedup when serving")
	pingEvery := flag.Duration("ping-every", time.Second, "tap liveness sweep cadence in virtual time (with -serve)")
	maxMissed := flag.Int("max-missed-pings", 3, "unanswered liveness sweeps before a tap is evicted (with -serve)")
	pcapOut := flag.String("pcap", "", "write a monitor-mode pcap capture of the run to this file")
	flag.Parse()

	if !(*loss >= 0 && *loss < 1) {
		cli.Usagef("hidenet", "-loss %v must be in [0, 1)", *loss)
	}
	if *minutes < 0 {
		cli.Usagef("hidenet", "-minutes %d must not be negative", *minutes)
	}
	dev, err := hide.ProfileByName(*device)
	if err != nil {
		cli.Usagef("hidenet", "%v", err)
	}
	sc, err := trace.ScenarioByName(*scenario)
	if err != nil {
		cli.Usagef("hidenet", "%v", err)
	}

	tr, err := hide.GenerateTrace(sc)
	if err != nil {
		cli.Exit("hidenet", err)
	}
	if *minutes > 0 {
		tr = trace.Truncate(tr, time.Duration(*minutes)*time.Minute)
	}

	// Give every station ports covering roughly the target fraction of
	// the trace's traffic — the deployed system's usefulness notion.
	open := hide.OpenPortsForFraction(tr, *useful)
	var ports []uint16
	for p := range open {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })

	net, err := hide.NewNetwork(hide.NetworkConfig{HIDE: true, Loss: *loss, Seed: 7})
	if err != nil {
		cli.Exit("hidenet", err)
	}
	type entry struct {
		name     string
		mode     hide.StationMode
		overhead bool
		st       *station.Station
	}
	entries := []*entry{
		{name: "HIDE", mode: hide.StationHIDE, overhead: true},
		{name: "legacy", mode: hide.StationLegacy},
		{name: "client-side", mode: hide.StationClientSide},
	}
	for _, e := range entries {
		st, err := net.AddStation(e.mode, ports)
		if err != nil {
			cli.Exit("hidenet", err)
		}
		e.st = st
	}

	fmt.Printf("replaying %s (%v, %d frames, %.2f fps) with %d open ports (%.1f%% of traffic)\n",
		tr.Name, tr.Duration, len(tr.Frames), tr.MeanFPS(), len(ports),
		100*fracOfTraffic(tr, open))
	var capture *hide.NetworkCapture
	if *pcapOut != "" {
		capture = net.StartCapture()
	}
	if *serve != "" {
		pc, err := stdnet.ListenPacket("udp", *serve)
		if err != nil {
			cli.Exit("hidenet", err)
		}
		mon := net.ServeMonitor(pc)
		//lint:ignore errdrop monitor teardown at process exit; the UDP service holds no buffered writes and the replay result is already reported
		defer mon.Close()
		mon.SetLiveness(*pingEvery, *maxMissed)
		fmt.Printf("monitor service on %v (connect with hidetap); pacing at %gx\n",
			mon.Server.Addr(), *speed)
		ctx, stop := cli.SignalContext()
		defer stop()
		// Ctrl-C stops the replay but still flushes counters and the
		// pcap capture below: an interrupted run is a shorter run.
		if err := net.ReplayRealtime(ctx, tr, *speed); err != nil && !errors.Is(err, context.Canceled) {
			cli.Exit("hidenet", err)
		}
	} else if err := net.Replay(tr); err != nil {
		cli.Exit("hidenet", err)
	}

	if capture != nil {
		f, err := os.Create(*pcapOut)
		if err != nil {
			cli.Exit("hidenet", err)
		}
		if err := capture.WritePCAP(f); err != nil {
			//lint:ignore errdrop close error is moot once the write has failed
			f.Close()
			cli.Exit("hidenet", fmt.Errorf("writing pcap: %w", err))
		}
		if err := f.Close(); err != nil {
			cli.Exit("hidenet", err)
		}
		fmt.Printf("wrote %d captured frames to %s\n", capture.Frames(), *pcapOut)
	}

	ap := net.AP.Stats()
	fmt.Printf("\nAP: beacons=%d dtims=%d group=%d portmsgs=%d acks=%d btimBytes=%d\n",
		ap.BeaconsSent, ap.DTIMsSent, ap.GroupFramesSent, ap.PortMsgsReceived, ap.ACKsSent, ap.BTIMBytesSent)

	fmt.Printf("\n%-12s %9s %8s %8s %8s %9s %10s %9s\n",
		"station", "received", "useful", "dropped", "wakeups", "suspends", "power(mW)", "suspend%")
	for _, e := range entries {
		b, err := net.StationEnergy(e.st, dev, tr.Duration, e.overhead)
		if err != nil {
			cli.Exit("hidenet", err)
		}
		s := e.st.Stats()
		fmt.Printf("%-12s %9d %8d %8d %8d %9d %10.1f %8.1f%%\n",
			e.name, s.GroupReceived, s.GroupUseful, s.GroupDropped, s.Wakeups, s.Suspends,
			b.AvgPowerW()*1000, b.SuspendFraction*100)
	}
}

// fracOfTraffic returns the share of frames whose port is open.
func fracOfTraffic(tr *hide.Trace, open map[uint16]bool) float64 {
	if len(tr.Frames) == 0 {
		return 0
	}
	n := 0
	for _, f := range tr.Frames {
		if open[f.DstPort] {
			n++
		}
	}
	return float64(n) / float64(len(tr.Frames))
}
