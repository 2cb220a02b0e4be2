package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/airlink"
	"repro/internal/ap"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/sim"
	"repro/internal/trace"
)

// healthMirrorEvery is the cadence of the engine tick that copies the
// client count and virtual uptime into atomics so /healthz can answer
// without touching the engine.
const healthMirrorEvery = 200 * time.Millisecond

// controlTimeout bounds one control-plane round-trip onto the engine
// and the HTTP shutdown at exit. A request's headers and the whole
// request must arrive sooner, so a stalled one cannot hold the exit.
const (
	controlTimeout       = 2 * time.Second
	controlHeaderTimeout = 500 * time.Millisecond
	controlReadTimeout   = time.Second
)

// errEngineStopped is returned by control-plane calls after the
// engine has exited.
var errEngineStopped = errors.New("daemon: engine stopped")

// errEngineBusy is returned when the engine does not answer a
// control-plane round-trip within its timeout.
var errEngineBusy = errors.New("daemon: engine did not answer in time")

// Daemon is a supervised hided instance: the AP entity and its engine,
// the airlink hub, the HTTP control plane, liveness sweeps, scenario
// replay, live reload, and graceful drain, all wired together.
type Daemon struct {
	eng    *sim.Engine
	hub    *airlink.Hub
	ap     *ap.AP
	inject chan sim.Event

	ctl     net.Listener
	httpSrv *http.Server

	cfgPath string
	logf    func(format string, args ...any)

	mu  sync.Mutex
	cfg Config // current (reloaded fields included)

	draining  atomic.Bool
	clients   atomic.Int64 // health mirror, updated on the engine
	uptimeMS  atomic.Int64 // health mirror, virtual ms
	evictions atomic.Int64 // liveness evictions performed
	reloads   atomic.Int64 // successful reloads applied

	engDone chan struct{} // closed when RunRealtime returns
	drained chan struct{} // closed when the graceful drain finished

	statsEv sim.Handle     // the pending status-line tick; engine-owned
	replay  *core.Replayer // the scenario loop, nil for "none"; engine-owned
}

// New builds a daemon from a config, binding the air socket and the
// control listener immediately (so ":0" addresses resolve and are
// readable via AirAddr/ControlAddr before Run). The daemon does not
// serve until Run.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bssid, err := dot11.ParseMAC(cfg.BSSID)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenPacket("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("daemon: binding air socket: %w", err)
	}
	ctl, err := net.Listen("tcp", cfg.Control)
	if err != nil {
		//lint:ignore errdrop the listen failure is the error being returned; the socket close is cleanup
		pc.Close()
		return nil, fmt.Errorf("daemon: binding control listener: %w", err)
	}
	d := &Daemon{
		inject:  make(chan sim.Event, 256),
		ctl:     ctl,
		cfg:     cfg,
		engDone: make(chan struct{}),
		drained: make(chan struct{}),
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hided: "+format+"\n", args...)
		},
	}
	d.hub = airlink.NewHub(pc, d.inject)
	d.eng = sim.New()
	d.ap = ap.New(d.eng, d.hub, ap.Config{
		BSSID:          bssid,
		SSID:           cfg.SSID,
		BeaconInterval: time.Duration(cfg.BeaconInterval),
		DTIMPeriod:     cfg.DTIMPeriod,
		HIDE:           !cfg.Legacy,
	})
	d.hub.SetClock(func() time.Duration { return d.eng.Now() })
	d.hub.SetLiveness(cfg.MaxMissedPings)
	d.httpSrv = &http.Server{
		Handler:           control.NewServer(d).Handler(),
		ReadHeaderTimeout: controlHeaderTimeout,
		ReadTimeout:       controlReadTimeout,
	}
	return d, nil
}

// Open loads a config file and builds a daemon bound to it, enabling
// live reload (SIGHUP, POST /v1/reload).
func Open(path string) (*Daemon, error) {
	cfg, err := LoadConfig(path)
	if err != nil {
		return nil, err
	}
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d.cfgPath = path
	return d, nil
}

// SetLogf replaces the daemon's logger (default: stderr). Call before
// Run.
func (d *Daemon) SetLogf(fn func(format string, args ...any)) {
	if fn != nil {
		d.logf = fn
	}
}

// AirAddr is the bound UDP address of the virtual air.
func (d *Daemon) AirAddr() net.Addr { return d.hub.Addr() }

// ControlAddr is the bound TCP address of the control plane.
func (d *Daemon) ControlAddr() net.Addr { return d.ctl.Addr() }

// Config returns the current (possibly reloaded) config.
func (d *Daemon) Config() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// Run serves until ctx is cancelled, then drains gracefully: the AP
// stops accepting associations, every client is disassociated with a
// real frame, port-table state is flushed, and the whole drain is
// bounded by DrainDeadline. Returns nil after a clean drain.
func (d *Daemon) Run(ctx context.Context) error {
	// The engine runs on runCtx, not ctx: cancellation of ctx starts
	// the drain, which needs a live engine to inject the
	// disassociation sweep; runCtx falls only after the drain.
	runCtx, stopEngine := context.WithCancel(context.Background())
	defer stopEngine()
	var wg sync.WaitGroup
	defer wg.Wait()

	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.hub.Serve(); err != nil && !errors.Is(err, net.ErrClosed) {
			d.logf("hub: %v", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.httpSrv.Serve(d.ctl); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.logf("control: %v", err)
		}
	}()

	// Live reload on SIGHUP (the file-backed daemons; harness-built
	// daemons reload via POST /v1/reload).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal.Stop(hup)
		for {
			select {
			case <-hup:
				summary, err := d.Reload()
				if err != nil {
					d.logf("reload: %v", err)
				} else {
					d.logf("reload: %s", summary)
				}
			case <-runCtx.Done():
				return
			case <-d.engDone:
				return
			}
		}
	}()

	// Supervisor: on ctx cancellation drain gracefully, then stop the
	// engine and close the serving sockets so every goroutine above
	// unblocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			d.drain()
		case <-d.engDone:
		}
		stopEngine()
		sctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
		defer cancel()
		if d.httpSrv.Shutdown(sctx) != nil {
			//lint:ignore errdrop past the deadline, close what is left so no handler outlives Run
			_ = d.httpSrv.Close()
		}
		//lint:ignore errdrop closing a dead socket twice is fine
		_ = d.hub.Close()
	}()

	d.ap.Start()
	// The control plane already serves, so a reload may race these
	// reads: take the config under its lock.
	cfg := d.Config()
	if tr, err := scenarioTrace(cfg.Scenario); err != nil {
		d.logf("replay: %v", err)
	} else {
		d.startReplay(tr, d.eng.Now())
	}
	d.schedulePingSweep()
	d.scheduleHealthMirror()
	d.scheduleStatsLog()
	d.logf("%s AP %q on %v (control %v, bssid %s, DTIM %d)",
		map[bool]string{true: "legacy", false: "HIDE"}[cfg.Legacy],
		cfg.SSID, d.AirAddr(), d.ControlAddr(), cfg.BSSID, cfg.DTIMPeriod)

	err := d.eng.RunRealtime(runCtx, d.inject, 1)
	close(d.engDone)
	if errors.Is(err, context.Canceled) {
		// The engine only stops via runCtx, which falls after a clean
		// drain (or an engine-side stop); not an error.
		err = nil
	}
	return err
}

// drain performs the graceful-shutdown sweep on the engine: reject
// new associations, disassociate every client with a real frame (the
// port table flushes as each association is removed), bounded by
// DrainDeadline.
func (d *Daemon) drain() {
	defer close(d.drained)
	d.draining.Store(true)
	deadline := time.Duration(d.Config().DrainDeadline)
	var clients int
	err := d.onEngine(deadline, func(now time.Duration) {
		d.ap.BeginDrain()
		clients = d.ap.DisassociateAll(dot11.ReasonStationLeft)
	})
	if err != nil {
		d.logf("drain: %v (proceeding to shutdown)", err)
		return
	}
	d.logf("drained: disassociated %d clients, port table flushed", clients)
}

// Drained reports (by closing) that the graceful drain completed;
// used by tests to assert the drain path ran before shutdown.
func (d *Daemon) Drained() <-chan struct{} { return d.drained }

// onEngine runs fn on the engine goroutine and waits for it, bounded
// by timeout. This is the only path by which control-plane goroutines
// touch engine-owned state (the AP, the port table, the replay).
func (d *Daemon) onEngine(timeout time.Duration, fn func(now time.Duration)) error {
	return roundTrip(d.inject, d.engDone, timeout, fn)
}

// roundTrip injects fn into a running engine and waits for it to run,
// bounded by timeout: errEngineStopped once engDone closes, and
// errEngineBusy when the timeout passes first, whether the engine has
// not taken fn or has not finished it. The daemon and the client both
// reach their engines this way.
func roundTrip(inject chan<- sim.Event, engDone <-chan struct{}, timeout time.Duration, fn func(now time.Duration)) error {
	done := make(chan struct{})
	ev := func(now time.Duration) {
		fn(now)
		close(done)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case inject <- ev:
	case <-engDone:
		return errEngineStopped
	case <-t.C:
		return errEngineBusy
	}
	select {
	case <-done:
		return nil
	case <-engDone:
		return errEngineStopped
	case <-t.C:
		return errEngineBusy
	}
}

// evict handles a peer the hub's liveness sweep evicted. It runs on
// the engine goroutine (the sweep event), so it may touch AP state
// directly: log the eviction with its AID, then disassociate to flush
// the association and its port-table entries.
func (d *Daemon) evict(mac dot11.MACAddr) {
	d.evictions.Add(1)
	if aid, ok := d.ap.AIDOf(mac); ok {
		d.logf("liveness: evicting aid=%d mac=%s (unanswered pings)", aid, mac)
		d.ap.DisassociateClient(mac, dot11.ReasonInactivity)
		return
	}
	d.logf("liveness: evicting unassociated peer %s", mac)
}

// schedulePingSweep drives hub liveness sweeps at PingInterval
// (re-read every tick, so reload applies live).
func (d *Daemon) schedulePingSweep() {
	var sweep func(now time.Duration)
	sweep = func(now time.Duration) {
		for _, mac := range d.hub.PingPeers() {
			d.evict(mac)
		}
		d.eng.MustScheduleAfter(time.Duration(d.Config().PingInterval), sweep)
	}
	d.eng.MustScheduleAfter(time.Duration(d.Config().PingInterval), sweep)
}

// scheduleHealthMirror copies engine-owned gauges into atomics on a
// steady cadence so /healthz never blocks on the engine.
func (d *Daemon) scheduleHealthMirror() {
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		d.clients.Store(int64(len(d.ap.ClientList())))
		d.uptimeMS.Store(now.Milliseconds())
		d.eng.MustScheduleAfter(healthMirrorEvery, tick)
	}
	d.eng.MustScheduleAfter(healthMirrorEvery, tick)
}

// scheduleStatsLog starts the status-line log at StatsEvery unless it
// is off or a tick is already pending. Every tick re-reads StatsEvery,
// so a reload applies at the next line and a tick that reads 0 stops
// the log; a reload that turns it back on calls here again. It runs
// on the engine, or before it starts.
func (d *Daemon) scheduleStatsLog() {
	if every := time.Duration(d.Config().StatsEvery); every > 0 && !d.statsEv.Pending() {
		d.statsEv = d.eng.MustScheduleAfter(every, d.statsTick)
	}
}

// statsTick logs one status line and schedules the next, unless
// StatsEvery now reads 0.
func (d *Daemon) statsTick(now time.Duration) {
	every := time.Duration(d.Config().StatsEvery)
	if every <= 0 {
		return
	}
	st := d.ap.Stats()
	hs := d.hub.Stats()
	d.logf("[%8s] peers=%d beacons=%d dtims=%d group=%d portmsgs=%d assoc=%d evictions=%d",
		now.Truncate(time.Second), hs.Peers, st.BeaconsSent, st.DTIMsSent,
		st.GroupFramesSent, st.PortMsgsReceived, st.AssocResponses, hs.Evictions)
	d.statsEv = d.eng.MustScheduleAfter(every, d.statsTick)
}

// scenarioTrace generates the named scenario's trace, or nil for
// "none".
func scenarioTrace(name string) (*trace.Trace, error) {
	if strings.EqualFold(name, "none") {
		return nil, nil
	}
	s, err := trace.ScenarioByName(name)
	if err != nil {
		return nil, err
	}
	return trace.GenerateScenario(s)
}

// startReplay stops the running scenario loop, if any, and starts tr's
// (nil for none) from now: the walker's pending event is cancelled, so
// no frame of the old scenario reaches the AP after the switch. It runs
// on the engine, or before it starts.
func (d *Daemon) startReplay(tr *trace.Trace, now time.Duration) {
	if d.replay != nil {
		d.replay.Stop()
		d.replay = nil
	}
	if tr == nil {
		return
	}
	r, err := core.StartReplay(d.eng, d.ap, tr, now, true)
	if err != nil {
		d.logf("replay: %v", err)
		return
	}
	d.replay = r
	d.logf("replaying %s broadcast chatter (%d frames over %v, looping)",
		tr.Name, len(tr.Frames), tr.Duration)
}

// Reload re-reads the config file and applies the reloadable subset
// live (scenario, ping_interval, max_missed_pings, drain_deadline,
// stats_every) in one engine round trip: the engine reads the new
// config, the hub's liveness threshold changes, the scenario switches
// and the status-line log restarts inside one engine event. A new
// scenario's trace is generated before the round trip. Non-reloadable
// changes are reported but not applied.
func (d *Daemon) Reload() (string, error) {
	if d.cfgPath == "" {
		return "", errors.New("daemon: started without a config file; nothing to reload")
	}
	next, err := LoadConfig(d.cfgPath)
	if err != nil {
		return "", err
	}
	cur := d.Config()
	reloadable, restartOnly := cur.diff(next)
	if len(reloadable) == 0 && len(restartOnly) == 0 {
		return "no changes", nil
	}
	// Merge the reloadable fields into the running config.
	merged := cur
	merged.Scenario = next.Scenario
	merged.PingInterval = next.PingInterval
	merged.MaxMissedPings = next.MaxMissedPings
	merged.DrainDeadline = next.DrainDeadline
	merged.StatsEvery = next.StatsEvery
	switched := cur.Scenario != merged.Scenario
	var tr *trace.Trace
	if switched {
		if tr, err = scenarioTrace(merged.Scenario); err != nil {
			return "", err
		}
	}
	if err := d.onEngine(controlTimeout, func(now time.Duration) {
		d.mu.Lock()
		d.cfg = merged
		d.mu.Unlock()
		d.hub.SetLiveness(merged.MaxMissedPings)
		if switched {
			d.startReplay(tr, now)
		}
		d.scheduleStatsLog()
	}); err != nil {
		return "", err
	}
	d.reloads.Add(1)
	var parts []string
	if len(reloadable) > 0 {
		parts = append(parts, "applied: "+strings.Join(reloadable, ", "))
	}
	if len(restartOnly) > 0 {
		parts = append(parts, "requires restart: "+strings.Join(restartOnly, ", "))
	}
	return strings.Join(parts, "; "), nil
}

// --- control.Backend ---

var _ control.Backend = (*Daemon)(nil)

// Health answers /healthz from the atomic mirrors; it never touches
// the engine.
func (d *Daemon) Health() control.Health {
	h := control.Health{
		Status:   "ok",
		Clients:  int(d.clients.Load()),
		UptimeMS: d.uptimeMS.Load(),
	}
	if d.draining.Load() {
		h.Status = "draining"
		h.Draining = true
	}
	return h
}

// Counters snapshots AP, hub, and daemon counters under one metric
// namespace.
func (d *Daemon) Counters() (map[string]int64, error) {
	var st ap.Stats
	if err := d.onEngine(controlTimeout, func(time.Duration) {
		st = d.ap.Stats()
	}); err != nil {
		return nil, err
	}
	hs := d.hub.Stats()
	return map[string]int64{
		"beacons_sent_total":             int64(st.BeaconsSent),
		"dtims_sent_total":               int64(st.DTIMsSent),
		"group_frames_sent_total":        int64(st.GroupFramesSent),
		"group_frames_enqueued_total":    int64(st.GroupFramesEnqueued),
		"port_msgs_received_total":       int64(st.PortMsgsReceived),
		"acks_sent_total":                int64(st.ACKsSent),
		"ps_polls_served_total":          int64(st.PSPollsServed),
		"btim_bytes_sent_total":          int64(st.BTIMBytesSent),
		"assoc_responses_total":          int64(st.AssocResponses),
		"assocs_rejected_draining_total": int64(st.AssocsRejectedDraining),
		"unicast_filtered_total":         int64(st.UnicastFiltered),
		"disassociations_total":          int64(st.Disassociations),
		"disassocs_sent_total":           int64(st.DisassocsSent),
		"ap_restarts_total":              int64(st.Restarts),
		"port_entries_expired_total":     int64(st.PortEntriesExpired),
		"air_frames_in_total":            int64(hs.FramesIn),
		"air_frames_out_total":           int64(hs.FramesOut),
		"air_bad_packets_total":          int64(hs.BadPackets),
		"air_frames_dropped_total":       int64(hs.Dropped),
		"fault_dropped_total":            int64(hs.FaultDropped),
		"fault_corrupted_total":          int64(hs.FaultCorrupted),
		"fault_duplicated_total":         int64(hs.FaultDuplicated),
		"pings_sent_total":               int64(hs.PingsSent),
		"evictions_total":                d.evictions.Load(),
		"reloads_total":                  d.reloads.Load(),
	}, nil
}

// Stations snapshots the association table in AID order.
func (d *Daemon) Stations() ([]control.StationRow, error) {
	var rows []control.StationRow
	if err := d.onEngine(controlTimeout, func(time.Duration) {
		table := d.ap.Table()
		for _, c := range d.ap.ClientList() {
			rows = append(rows, control.StationRow{
				AID:             uint16(c.AID),
				Addr:            c.Addr.String(),
				HIDECapable:     c.HIDECapable,
				PSMode:          c.PSMode,
				Members:         c.Members,
				BufferedUnicast: c.BufferedUnicast,
				Ports:           table.Ports(c.AID),
			})
		}
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// PortTable snapshots the Client UDP Port Table in AID order.
func (d *Daemon) PortTable() ([]control.PortTableRow, error) {
	var rows []control.PortTableRow
	if err := d.onEngine(controlTimeout, func(time.Duration) {
		table := d.ap.Table()
		for _, c := range d.ap.ClientList() {
			ports := table.Ports(c.AID)
			if len(ports) == 0 {
				continue
			}
			row := control.PortTableRow{AID: uint16(c.AID), Ports: ports}
			if at, ok := table.RefreshedAt(c.AID); ok {
				row.RefreshedAtMS = at.Milliseconds()
			}
			rows = append(rows, row)
		}
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// ApplyFault installs (or clears) a fault plan on the live hub. The
// request was validated by the control plane; Validate compiles it
// again here so the installed plan is built from this process's view.
func (d *Daemon) ApplyFault(req *control.FaultRequest) error {
	plan, err := req.Validate()
	if err != nil {
		return err
	}
	if req.Clear || plan == nil {
		d.hub.SetFaultPlan(nil, 0)
		d.logf("fault: cleared")
		return nil
	}
	d.hub.SetFaultPlan(plan, req.Seed)
	d.logf("fault: plan installed (seed %d)", req.Seed)
	return nil
}

// RestartAP power-cycles the AP entity on the engine: soft state
// (associations, port table, buffered frames) is wiped and the TSF
// regresses, exactly like the chaos grid's restart scenario.
func (d *Daemon) RestartAP() error {
	err := d.onEngine(controlTimeout, func(time.Duration) {
		d.ap.Restart()
	})
	if err == nil {
		d.logf("ap: restarted (soft state wiped)")
	}
	return err
}

// InjectGroup enqueues count broadcast frames addressed to a UDP port
// at the AP — the control-plane stand-in for distribution-system
// traffic.
func (d *Daemon) InjectGroup(port uint16, count int) error {
	return d.onEngine(controlTimeout, func(time.Duration) {
		for i := 0; i < count; i++ {
			d.ap.EnqueueGroup(dot11.UDPDatagram{
				DstIP:   [4]byte{255, 255, 255, 255},
				DstPort: port,
				Payload: make([]byte, 64),
			}, dot11.Rate1Mbps)
		}
	})
}
