package check

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/dot11"
	"repro/internal/station"
)

// The live run's timing: beacons at 5x real time, so a DTIM span is
// 40ms and the whole run fits in seconds of wall clock.
const (
	liveBeaconInterval = 20 * time.Millisecond
	liveDTIMPeriod     = 2                     // beacons
	livePingInterval   = 50 * time.Millisecond // liveness sweep cadence
	liveMaxMissedPings = 3                     // sweeps before eviction
	liveProbes         = 6                     // convergence probes per phase
	liveDrainDeadline  = 2 * time.Second       // bounds the final drain
)

// LiveConfig sizes the live-daemon chaos run. The zero value is the
// standard smoke configuration.
type LiveConfig struct {
	// Clients is how many hidec clients attach (default 12).
	Clients int
	// Seed feeds the fault plan and client jitter RNGs.
	Seed uint64
	// Logf receives narrative progress (default: silent).
	Logf func(format string, args ...any)
}

func (c LiveConfig) normalized() LiveConfig {
	if c.Clients <= 0 {
		c.Clients = 12
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// LiveResult reports one live chaos run.
type LiveResult struct {
	// Clients is how many clients attached and associated.
	Clients int
	// ProbesSent counts convergence probes across both probe phases.
	ProbesSent int
	// ProbeMisses counts (client, probe) pairs that missed the
	// convergence deadline — the PR-4 "zero wanted-frame misses after
	// resync" budget demands 0.
	ProbeMisses int
	// FaultDropped is the hub's count of deliveries the burst-loss
	// plan killed (proves the control-plane fault was live).
	FaultDropped int64
	// RestartsSeen counts clients that detected the AP power-cycle by
	// TSF regression.
	RestartsSeen int
	// Evictions is the daemon's liveness-eviction count; the budget is
	// exactly the one killed client.
	Evictions int64
	// DisassocsReceived counts clients that heard a real
	// disassociation frame during the drain.
	DisassocsReceived int
	// DrainTime is how long the graceful shutdown took.
	DrainTime time.Duration
	// Failures lists every violated budget; empty means the run
	// passed.
	Failures []string
}

// Passed reports whether every budget held.
func (r *LiveResult) Passed() bool { return len(r.Failures) == 0 }

// Report renders a human-readable summary.
func (r *LiveResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live chaos: %d clients, %d probes, %d misses, %d fault-drops, %d restarts seen, %d evictions, %d disassocs, drain %v\n",
		r.Clients, r.ProbesSent, r.ProbeMisses, r.FaultDropped, r.RestartsSeen,
		r.Evictions, r.DisassocsReceived, r.DrainTime.Truncate(time.Millisecond))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if len(r.Failures) == 0 {
		b.WriteString("  all live-chaos budgets held\n")
	}
	return b.String()
}

// liveProbePort is the shared wanted port every live client opens.
const liveProbePort = 40000

// liveRun bundles the booted daemon, its clients, and the HTTP base.
type liveRun struct {
	d       *daemon.Daemon
	clients []*daemon.Client
	base    string // control-plane URL
	res     *LiveResult
}

// RunLive boots a real hided daemon in-process — real UDP air, real
// TCP control plane, both on ephemeral ports — attaches cfg.Clients
// reconnecting hidec clients, and drives the PR-4 chaos scenarios
// over the control plane in wall-clock time: a burst-loss fault plan
// installed and cleared via POST /v1/fault, an AP power-cycle via
// POST /v1/restart, a client killed without disassociating for the
// liveness sweep to evict, and finally a graceful drain. Budgets: all
// probes converge to every live client within one DTIM span (plus a
// fixed wall-clock slack for socket and scheduler latency), zero
// wanted-frame misses after each resync, the dead client is evicted
// and its port-table state flushed, and the drain delivers real
// disassociation frames within the deadline.
func RunLive(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	cfg = cfg.normalized()
	res := &LiveResult{}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	d, err := daemon.New(daemon.Config{
		Listen:         "127.0.0.1:0",
		Control:        "127.0.0.1:0",
		Scenario:       "none",
		BeaconInterval: daemon.Duration(liveBeaconInterval),
		DTIMPeriod:     liveDTIMPeriod,
		PingInterval:   daemon.Duration(livePingInterval),
		MaxMissedPings: liveMaxMissedPings,
		DrainDeadline:  daemon.Duration(liveDrainDeadline),
	})
	if err != nil {
		return nil, err
	}
	d.SetLogf(func(string, ...any) {})

	// Deliberate defer order: the cancels (registered below) run
	// before this Wait, so every goroutine is unblocked first.
	var wg sync.WaitGroup
	defer wg.Wait()
	runCtx, stopDaemon := context.WithCancel(ctx)
	defer stopDaemon()
	daemonErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		daemonErr <- d.Run(runCtx)
	}()

	r := &liveRun{d: d, res: res,
		base: "http://" + d.ControlAddr().String()}

	// Attach the clients: every client wants the probe port plus a
	// unique private port and reconnects; its watchdog and backoff
	// time themselves to the fast beacons it hears.
	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	for i := 0; i < cfg.Clients; i++ {
		c, err := daemon.NewClient(daemon.ClientConfig{
			Connect:   d.AirAddr().String(),
			Addr:      dot11.MACAddr{0x02, 0x1d, 0xe0, 0xfe, byte(i >> 8), byte(i + 1)},
			Mode:      station.HIDE,
			Ports:     []uint16{liveProbePort, uint16(41000 + i)},
			Reconnect: true,
			Seed:      cfg.Seed,
			Logf:      func(string, ...any) {},
		})
		if err != nil {
			return nil, fmt.Errorf("check: client %d: %w", i, err)
		}
		r.clients = append(r.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:ignore errdrop clients outlive the daemon here by design; their exit errors carry no budget
			_ = c.Run(clientCtx)
		}()
	}
	res.Clients = len(r.clients)

	// Phase 0: everyone associates.
	if err := r.waitAllAssociated(ctx, 10*time.Second); err != nil {
		return res, err
	}
	cfg.Logf("live: %d clients associated", res.Clients)

	dtimSpan := liveDTIMPeriod * liveBeaconInterval
	// settle outlasts the worst-case post-fault resync (a station
	// caught mid-backoff re-registers within a few ACK timeouts), same
	// rationale as the in-process chaos grid's four-DTIM-span window.
	settle := 4 * dtimSpan

	// Phase 1: burst loss installed over the control plane, traffic
	// pushed through it, then cleared; after resync, probes must
	// converge with zero misses.
	if err := r.postJSON("/v1/fault", fmt.Sprintf(
		`{"seed":%d,"plan":{"kind":"loss","p":0.5}}`, cfg.Seed|1)); err != nil {
		return res, err
	}
	if err := r.postJSON("/v1/inject", `{"port":40000,"count":8}`); err != nil {
		return res, err
	}
	sleepCtx(ctx, 4*dtimSpan)
	if err := r.postJSON("/v1/fault", `{"clear":true}`); err != nil {
		return res, err
	}
	counters, err := r.counters()
	if err != nil {
		return res, err
	}
	res.FaultDropped = counters["fault_dropped_total"]
	if res.FaultDropped == 0 {
		fail("burst-loss: control-plane fault plan never dropped a delivery")
	}
	sleepCtx(ctx, settle)
	r.probePhase(ctx, "post-loss", dtimSpan)
	cfg.Logf("live: post-loss probes done (%d misses)", res.ProbeMisses)

	// Phase 2: AP power-cycle over the control plane. Clients detect
	// the TSF regression and re-register; probes must then converge
	// with zero misses.
	if err := r.postJSON("/v1/restart", ""); err != nil {
		return res, err
	}
	sleepCtx(ctx, settle+4*dtimSpan)
	r.probePhase(ctx, "post-restart", dtimSpan)
	for _, c := range r.clients {
		var seen int
		//lint:ignore errdrop a client that died mid-run shows up as RestartsSeen shortfall below
		_ = c.Do(time.Second, func(time.Duration) { seen = c.Station().Stats().APRestartsSeen })
		if seen > 0 {
			res.RestartsSeen++
		}
	}
	if res.RestartsSeen < res.Clients {
		fail("ap-restart: only %d/%d clients detected the power-cycle", res.RestartsSeen, res.Clients)
	}
	cfg.Logf("live: post-restart probes done (%d misses, %d restarts seen)", res.ProbeMisses, res.RestartsSeen)

	// Phase 3: kill the last client without a disassociation frame;
	// the liveness sweep must evict it and flush its port-table state.
	victim := r.clients[len(r.clients)-1]
	live := r.clients[:len(r.clients)-1]
	victimAddr := victim.Station().Addr().String()
	victim.Kill()
	evictBudget := (liveMaxMissedPings + 3) * livePingInterval
	if !r.waitEviction(ctx, victimAddr, evictBudget+2*time.Second) {
		fail("liveness: dead client %s not evicted within %v", victimAddr, evictBudget+2*time.Second)
	}
	counters, err = r.counters()
	if err != nil {
		return res, err
	}
	// Only the silent victim is evicted: every live client answers the
	// sweep however long it idles.
	res.Evictions = counters["evictions_total"]
	if res.Evictions != 1 {
		fail("liveness: %d evictions, want 1 (the killed client)", res.Evictions)
	}
	cfg.Logf("live: victim evicted (evictions=%d)", res.Evictions)

	// Phase 4: graceful drain. Stop the daemon; surviving clients must
	// hear real disassociation frames, and the whole shutdown stays
	// within the drain deadline (plus server-close slack).
	start := time.Now()
	stopDaemon()
	select {
	case err := <-daemonErr:
		res.DrainTime = time.Since(start)
		if err != nil {
			fail("drain: daemon exited with %v", err)
		}
	case <-time.After(liveDrainDeadline + 5*time.Second):
		fail("drain: daemon still running past deadline")
		res.DrainTime = time.Since(start)
	}
	if res.DrainTime > liveDrainDeadline+2*time.Second {
		fail("drain: took %v, deadline %v", res.DrainTime, liveDrainDeadline)
	}
	// The disassociation datagrams race this check over the loopback
	// socket and each client's inject queue, so poll briefly.
	recvDeadline := time.Now().Add(2 * time.Second)
	for i, c := range live {
		got := 0
		for got == 0 && time.Now().Before(recvDeadline) && ctx.Err() == nil {
			//lint:ignore errdrop a stopped client counts as a missed disassociation below
			_ = c.Do(time.Second, func(time.Duration) { got = c.Station().Stats().DisassocsReceived })
			if got == 0 {
				sleepCtx(ctx, 10*time.Millisecond)
			}
		}
		if got > 0 {
			res.DisassocsReceived++
		} else {
			fail("drain: client %d never heard a disassociation frame", i)
		}
	}
	stopClients()
	return res, ctx.Err()
}

// probePhase sends liveProbes broadcast probes one DTIM span apart
// and requires every live client to receive each within one DTIM span
// plus a fixed wall-clock slack (socket + goroutine-scheduler
// latency; the protocol-level budget is the DTIM span itself).
func (r *liveRun) probePhase(ctx context.Context, phase string, dtimSpan time.Duration) {
	const wallSlack = 750 * time.Millisecond
	for p := 0; p < liveProbes; p++ {
		before := make([]int, len(r.clients))
		for i, c := range r.clients {
			i, c := i, c
			//lint:ignore errdrop a dead client keeps before==after and is reported as a miss
			_ = c.Do(time.Second, func(time.Duration) { before[i] = c.Station().Stats().GroupUseful })
		}
		if err := r.postJSON("/v1/inject", `{"port":40000,"count":1}`); err != nil {
			r.res.Failures = append(r.res.Failures, fmt.Sprintf("%s probe %d: %v", phase, p, err))
			return
		}
		r.res.ProbesSent++
		deadline := time.Now().Add(dtimSpan + wallSlack)
		pending := make(map[int]bool, len(r.clients))
		for i := range r.clients {
			pending[i] = true
		}
		for len(pending) > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
			for i := range r.clients {
				if !pending[i] {
					continue
				}
				i, c := i, r.clients[i]
				var got int
				//lint:ignore errdrop a dead client stays pending and is reported as a miss
				_ = c.Do(time.Second, func(time.Duration) { got = c.Station().Stats().GroupUseful })
				if got > before[i] {
					delete(pending, i)
				}
			}
			if len(pending) > 0 {
				sleepCtx(ctx, dtimSpan/4)
			}
		}
		if len(pending) > 0 {
			r.res.ProbeMisses += len(pending)
			r.res.Failures = append(r.res.Failures, fmt.Sprintf(
				"%s probe %d: %d/%d clients missed the convergence deadline",
				phase, p, len(pending), len(r.clients)))
		}
	}
}

// waitAllAssociated polls the clients' state machines.
func (r *liveRun) waitAllAssociated(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		all := true
		for _, c := range r.clients {
			if c.State() != daemon.StateAssociated {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		sleepCtx(ctx, 10*time.Millisecond)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("check: clients never all associated within %v", timeout)
}

// waitEviction polls /v1/stations until the victim MAC disappears and
// /v1/porttable holds no entry for it.
func (r *liveRun) waitEviction(ctx context.Context, victimAddr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var rows []struct {
			Addr string `json:"addr"`
		}
		if err := r.getJSON("/v1/stations", &rows); err == nil {
			gone := true
			for _, row := range rows {
				if row.Addr == victimAddr {
					gone = false
					break
				}
			}
			if gone {
				return true
			}
		}
		sleepCtx(ctx, livePingInterval)
	}
	return false
}

// counters fetches /v1/counters.
func (r *liveRun) counters() (map[string]int64, error) {
	var m map[string]int64
	if err := r.getJSON("/v1/counters", &m); err != nil {
		return nil, err
	}
	return m, nil
}

// postJSON posts a body to the control plane and demands 200.
func (r *liveRun) postJSON(path, body string) error {
	resp, err := http.Post(r.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("check: POST %s: %w", path, err)
	}
	//lint:ignore errdrop response body close on a loopback control call; the status line already answered
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("check: POST %s: %s", path, resp.Status)
	}
	return nil
}

// getJSON fetches a control-plane document.
func (r *liveRun) getJSON(path string, v any) error {
	resp, err := http.Get(r.base + path)
	if err != nil {
		return fmt.Errorf("check: GET %s: %w", path, err)
	}
	//lint:ignore errdrop response body close on a loopback control call; the decode error is the one that matters
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("check: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
