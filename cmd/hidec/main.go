// Command hidec is the HIDE client daemon: it connects to a hided AP
// over UDP "virtual air", associates with real 802.11 frames, reports
// its open UDP ports (from -ports, or this machine's actual
// /proc/net/udp with -procnet), and then lives the HIDE lifecycle —
// suspending, watching its BTIM bit, and waking only for broadcast
// traffic some local port wants.
//
// The client is supervised: a watchdog detects a dead or restarted AP
// from beacon silence and, with -reconnect (the default),
// re-associates with exponential backoff — the association request
// carries the port list, so the AP's Client UDP Port Table is rebuilt
// in one exchange. With -reconnect=false a lost AP ends the process
// with exit code 3, so a supervisor can restart-on-disconnect without
// also restarting on misconfiguration.
//
//	hidec -connect 127.0.0.1:5600 -ports 5353,17500 -mode hide
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/dot11"
	"repro/internal/procnet"
	"repro/internal/station"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:5600", "hided address")
	ssid := flag.String("ssid", "hide-net", "network name to associate with")
	mode := flag.String("mode", "hide", "client mode: hide, legacy, or clientside")
	portsArg := flag.String("ports", "5353", "comma-separated open UDP ports")
	useProcnet := flag.Bool("procnet", false, "report this machine's real wildcard UDP ports instead of -ports")
	mac := flag.Int("mac", 1, "low byte of this client's MAC address (distinguish multiple clients)")
	device := flag.String("device", "nexusone", "device profile for the energy report")
	statsEvery := flag.Duration("stats", 10*time.Second, "status print interval")
	runFor := flag.Duration("for", 0, "exit with an energy report after this long (0 = run forever)")
	reconnect := flag.Bool("reconnect", true, "re-associate with backoff when the AP disappears (false: exit 3 instead)")
	seed := flag.Uint64("seed", 0, "backoff-jitter seed (folded with the MAC)")
	flag.Parse()

	var m station.Mode
	switch strings.ToLower(*mode) {
	case "hide":
		m = station.HIDE
	case "legacy":
		m = station.Legacy
	case "clientside":
		m = station.ClientSide
	default:
		cli.Usagef("hidec", "unknown mode %q", *mode)
	}
	dev, err := hide.ProfileByName(*device)
	if err != nil {
		cli.Usagef("hidec", "%v", err)
	}

	var ports []uint16
	if *useProcnet {
		ports, err = procnet.LocalOpenPorts()
		if err != nil {
			cli.Exit("hidec", err)
		}
	} else {
		for _, s := range strings.Split(*portsArg, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			p, err := strconv.ParseUint(s, 10, 16)
			if err != nil {
				cli.Usagef("hidec", "bad port %q", s)
			}
			ports = append(ports, uint16(p))
		}
	}

	c, err := daemon.NewClient(daemon.ClientConfig{
		Connect:   *connect,
		SSID:      *ssid,
		Addr:      dot11.MACAddr{0x02, 0x1d, 0xe0, 0xfe, 0x00, byte(*mac)},
		Mode:      m,
		Ports:     ports,
		Reconnect: *reconnect,
		Seed:      *seed,
	})
	if err != nil {
		cli.Exit("hidec", err)
	}
	st := c.Station()
	fmt.Printf("hidec: %s client -> %s, ports %v\n", m, *connect, ports)

	// Periodic status on the engine clock (the engine is not running
	// yet, so scheduling here is race-free).
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		s := st.Stats()
		awake := "awake"
		if st.Suspended() {
			awake = "suspended"
		}
		cs := c.Stats()
		fmt.Printf("[%8s] %s aid=%d %s beacons=%d group=%d useful=%d wakeups=%d portmsgs=%d reconnects=%d\n",
			now.Truncate(time.Second), c.State(), st.AID(), awake, s.BeaconsHeard,
			s.GroupReceived, s.GroupUseful, s.Wakeups, s.PortMsgsSent, cs.Reconnects)
		c.Engine().MustScheduleAfter(*statsEvery, tick)
	}
	c.Engine().MustScheduleAfter(*statsEvery, tick)

	ctx, stop := cli.SignalContext()
	defer stop()
	var cancel context.CancelFunc
	if *runFor > 0 {
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}

	err = c.Run(ctx)
	if *runFor > 0 && errors.Is(err, context.DeadlineExceeded) {
		// Final energy report over the run, with HIDE's overhead Eo in
		// HIDE mode.
		b, cerr := st.Energy(dev, *runFor, m == station.HIDE)
		if cerr != nil {
			cli.Exit("hidec", fmt.Errorf("energy: %v", cerr))
		}
		fmt.Printf("\nenergy over %v on %s: %.1f mW avg, %.1f%% suspended (%d wakeups)\n",
			*runFor, dev.Name, b.AvgPowerW()*1000, b.SuspendFraction*100, st.Stats().Wakeups)
		return
	}
	if errors.Is(err, daemon.ErrConnectionLost) {
		cli.ExitCode("hidec", cli.CodeConnLost, err)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		cli.Exit("hidec", err)
	}
}
