// Command hided is the HIDE access-point daemon: a real process
// serving the HIDE protocol over UDP "virtual air", supervised for
// production-style operation. Alongside the air socket it serves an
// HTTP control plane (health, metrics, port table, stations, live
// fault injection), reloads its config live on SIGHUP or POST
// /v1/reload, evicts clients that stop answering liveness pings, and
// drains gracefully on SIGTERM — new associations are refused, every
// client is disassociated with a real frame, and the port table is
// flushed, all bounded by a drain deadline.
//
// Start an AP that replays cafe broadcast chatter:
//
//	hided -listen 127.0.0.1:5600 -scenario Starbucks
//
// or run it from a config file (enables live reload):
//
//	hided -config hided.json
//
// then attach clients:
//
//	hidec -connect 127.0.0.1:5600 -ports 5353 -mode hide
//
// and inspect it over the control plane:
//
//	curl http://127.0.0.1:5680/healthz
//	curl http://127.0.0.1:5680/metrics
//	curl -d '{"plan":{"kind":"loss","p":0.3}}' http://127.0.0.1:5680/v1/fault
package main

import (
	"flag"
	"strings"
	"time"

	"repro/internal/ap"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/trace"
)

func main() {
	config := flag.String("config", "", "JSON config file (enables live reload; flags below are ignored when set)")
	listen := flag.String("listen", "127.0.0.1:5600", "UDP address to serve the virtual air on")
	control := flag.String("control", "127.0.0.1:5680", "TCP address of the HTTP control plane")
	ssid := flag.String("ssid", "hide-net", "network name")
	dtim := flag.Int("dtim", ap.DefaultDTIMPeriod, "DTIM period in beacons")
	scenario := flag.String("scenario", "Starbucks", "broadcast traffic scenario to replay (none to disable)")
	legacy := flag.Bool("legacy", false, "run as a stock AP without HIDE extensions")
	pingEvery := flag.Duration("ping-every", time.Second, "client liveness sweep cadence")
	maxMissed := flag.Int("max-missed-pings", 3, "unanswered sweeps before a client is evicted")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGTERM")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	flag.Parse()
	if *config == "" && !strings.EqualFold(*scenario, "none") {
		if _, err := trace.ScenarioByName(*scenario); err != nil {
			cli.Usagef("hided", "-scenario: %v", err)
		}
	}

	var d *daemon.Daemon
	var err error
	if *config != "" {
		d, err = daemon.Open(*config)
	} else {
		d, err = daemon.New(daemon.Config{
			Listen:         *listen,
			Control:        *control,
			SSID:           *ssid,
			DTIMPeriod:     *dtim,
			Scenario:       *scenario,
			Legacy:         *legacy,
			PingInterval:   daemon.Duration(*pingEvery),
			MaxMissedPings: *maxMissed,
			DrainDeadline:  daemon.Duration(*drain),
			StatsEvery:     daemon.Duration(*statsEvery),
		})
	}
	if err != nil {
		cli.Exit("hided", err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := d.Run(ctx); err != nil {
		cli.Exit("hided", err)
	}
}
