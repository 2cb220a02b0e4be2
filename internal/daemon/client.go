package daemon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/airlink"
	"repro/internal/dot11"
	"repro/internal/sim"
	"repro/internal/station"
)

// ErrConnectionLost is returned by Client.Run when the AP is gone and
// reconnection is disabled. hidec maps it to a distinct exit code so
// supervisors can tell "link died" from ordinary failures.
var ErrConnectionLost = errors.New("daemon: connection to AP lost")

// ClientState is the hidec connection state machine.
type ClientState int32

const (
	// StateConnecting: association in flight (initial or resumed).
	StateConnecting ClientState = iota
	// StateAssociated: associated and hearing beacons.
	StateAssociated
	// StateDegraded: associated but beacons have gone stale — the AP
	// may be down, restarting, or the air may be lossy.
	StateDegraded
	// StateReconnecting: the association was abandoned; waiting out
	// the backoff before trying again.
	StateReconnecting
	// StateLost: the AP is gone and reconnection is disabled.
	StateLost
)

// String names the state for logs and status lines.
func (s ClientState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateAssociated:
		return "associated"
	case StateDegraded:
		return "degraded"
	case StateReconnecting:
		return "reconnecting"
	case StateLost:
		return "lost"
	default:
		return fmt.Sprintf("ClientState(%d)", int32(s))
	}
}

// The watchdog's timings, in beacon intervals the station hears
// (Station.BeaconInterval, 100 TU until the first beacon): degraded
// after degradedAfter silent intervals, abandoned after deadAfter, a
// check every checkEvery, and a reconnect backoff from backoffBase
// doubling up to backoffMax. At 100 TU: about 1 s, 3 s, 250 ms, 200 ms
// and 5 s.
const (
	degradedAfter = 10
	deadAfter     = 30
	checkEvery    = 2.5
	backoffBase   = 2
	backoffMax    = 49
)

// ClientConfig configures a supervised hidec client.
type ClientConfig struct {
	// Connect is the hided air address ("127.0.0.1:5600").
	Connect string
	// SSID is the network to associate with.
	SSID string
	// Addr is this client's MAC (required).
	Addr dot11.MACAddr
	// Mode selects HIDE, Legacy, or ClientSide behaviour.
	Mode station.Mode
	// Ports are the open UDP ports reported to the AP.
	Ports []uint16
	// Reconnect re-associates after the AP disappears. When false, a
	// lost connection ends Run with ErrConnectionLost.
	Reconnect bool
	// Seed feeds the backoff-jitter RNG (folded with the MAC so equal
	// seeds still desynchronize a fleet).
	Seed uint64
	// Logf receives client log lines (default stderr).
	Logf func(format string, args ...any)
}

// normalized fills defaults.
func (c ClientConfig) normalized() ClientConfig {
	if c.Connect == "" {
		c.Connect = "127.0.0.1:5600"
	}
	if c.SSID == "" {
		c.SSID = "hide-net"
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hidec: "+format+"\n", args...)
		}
	}
	return c
}

// ClientStats counts state-machine activity.
type ClientStats struct {
	// Degradations counts associated→degraded transitions.
	Degradations int
	// Reconnects counts abandoned associations (each starts a backoff
	// cycle).
	Reconnects int
	// Reassociations counts association recoveries after the first.
	Reassociations int
}

// Client is a supervised hidec: the station entity plus a watchdog
// that detects a dead or restarted AP from beacon silence, abandons
// the stale association, and re-associates with exponential backoff.
// Port registrations resume automatically — the HIDE association
// request carries the open-port list, so a re-association after an AP
// restart repopulates the Client UDP Port Table in one exchange.
type Client struct {
	cfg    ClientConfig
	eng    *sim.Engine
	link   *airlink.Link
	st     *station.Station
	inject chan sim.Event
	rng    *sim.RNG

	state    atomic.Int32
	lost     atomic.Bool
	stopRun  context.CancelFunc // set during Run
	stopOnce sync.Once
	engDone  chan struct{} // closed when Run's engine exits

	mu       sync.Mutex
	stats    ClientStats
	attempts int
	// retryAt is the engine time before which the watchdog must not
	// start another association attempt.
	retryAt time.Duration
}

// NewClient dials the AP's air address and builds the supervised
// client. The engine does not run until Run.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.normalized()
	var zero dot11.MACAddr
	if cfg.Addr == zero {
		return nil, errors.New("daemon: client needs a MAC address")
	}
	inject := make(chan sim.Event, 256)
	link, err := airlink.Dial(cfg.Connect, inject)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		eng:     sim.New(),
		link:    link,
		inject:  inject,
		rng:     sim.NewRNG(cfg.Seed ^ macSeed(cfg.Addr)),
		engDone: make(chan struct{}),
	}
	c.st = station.New(c.eng, link, station.Config{
		Addr:  cfg.Addr,
		BSSID: dot11.Broadcast, // until the AP answers
		Mode:  cfg.Mode,
	})
	for _, p := range cfg.Ports {
		c.st.OpenPort(p)
	}
	c.state.Store(int32(StateConnecting))
	return c, nil
}

// macSeed folds a MAC into a seed so same-seed clients still draw
// distinct jitter.
func macSeed(mac dot11.MACAddr) uint64 {
	var s uint64
	for _, b := range mac {
		s = s*131 + uint64(b)
	}
	return s
}

// Station exposes the underlying station for stats and energy
// accounting.
func (c *Client) Station() *station.Station { return c.st }

// State is the current connection state.
func (c *Client) State() ClientState { return ClientState(c.state.Load()) }

// Stats snapshots the state-machine counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Engine exposes the client's engine (the harness schedules probe
// work on it).
func (c *Client) Engine() *sim.Engine { return c.eng }

// Do runs fn on the client's engine goroutine and waits for it,
// bounded by timeout — the race-free way for a harness to read
// station state while Run is live.
func (c *Client) Do(timeout time.Duration, fn func(now time.Duration)) error {
	return roundTrip(c.inject, c.engDone, timeout, fn)
}

// Run associates and serves until ctx is cancelled — or, with
// Reconnect disabled, until the AP disappears, in which case it
// returns ErrConnectionLost. On cancellation it returns ctx.Err(),
// after an associated client has sent a disassociation, so the AP
// need not evict a silent peer.
func (c *Client) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.stopRun = cancel
	var wg sync.WaitGroup
	defer wg.Wait()
	//lint:ignore errdrop closing a UDP socket at teardown; Serve already surfaced any I/O error
	defer c.link.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.link.Serve(); err != nil && runCtx.Err() == nil {
			c.cfg.Logf("link: %v", err)
		}
	}()

	c.st.StartAssociation(c.cfg.SSID)
	c.scheduleWatchdog()

	err := c.eng.RunRealtime(runCtx, c.inject, 1)
	close(c.engDone)
	if c.lost.Load() {
		return fmt.Errorf("%w (no beacon from %s for %v)", ErrConnectionLost, c.st.BSSID(), c.beacons(deadAfter))
	}
	if ctx.Err() != nil {
		// The engine has stopped and this goroutine owns it, so the
		// goodbye needs no round trip; the link's write deadline bounds
		// it. Kill cancels runCtx alone and stays silent.
		c.st.Leave(dot11.ReasonStationLeft)
		return ctx.Err()
	}
	return err
}

// beacons returns n beacon intervals at the cadence the station hears.
func (c *Client) beacons(n float64) time.Duration {
	return time.Duration(n * float64(c.st.BeaconInterval()))
}

// scheduleWatchdog drives the state machine on the engine clock.
func (c *Client) scheduleWatchdog() {
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		c.check(now)
		if c.State() != StateLost {
			c.eng.MustScheduleAfter(c.beacons(checkEvery), tick)
		}
	}
	c.eng.MustScheduleAfter(c.beacons(checkEvery), tick)
}

// check runs one watchdog pass; it is only called on the engine
// goroutine, so it may touch station state freely.
func (c *Client) check(now time.Duration) {
	last, heard := c.st.LastBeaconAt()
	stale := now - last
	if !heard {
		stale = now
	}
	state := c.State()
	if c.st.Associated() {
		switch {
		case stale > c.beacons(deadAfter):
			// Associated but the AP has gone silent past the dead
			// threshold: the AP died or restarted. Abandon locally (no
			// disassoc frame — nobody is listening) and back off.
			c.abandon(now, "beacons silent")
		case stale > c.beacons(degradedAfter):
			if state != StateDegraded {
				c.setState(StateDegraded)
				c.mu.Lock()
				c.stats.Degradations++
				c.mu.Unlock()
				c.cfg.Logf("degraded: no beacon for %v", stale.Truncate(time.Millisecond))
			}
		default:
			if state != StateAssociated {
				c.setState(StateAssociated)
				c.mu.Lock()
				if c.stats.Reconnects > 0 {
					c.stats.Reassociations++
				}
				c.attempts = 0
				c.mu.Unlock()
				c.cfg.Logf("associated: aid=%d bssid=%s", c.st.AID(), c.st.BSSID())
			}
		}
		return
	}
	// Not associated: either the initial association is still in
	// flight, or a previous association was torn down (AP-initiated
	// disassoc, abandon, station give-up). Retry on the backoff clock.
	if state == StateAssociated || state == StateDegraded {
		// The AP disassociated us (drain, eviction) or the station gave
		// up; enter the reconnect cycle.
		c.abandon(now, "association dropped")
		return
	}
	c.mu.Lock()
	retryAt := c.retryAt
	c.mu.Unlock()
	if now < retryAt {
		return
	}
	if state == StateReconnecting {
		c.cfg.Logf("reconnecting: association attempt %d", c.attemptCount())
		c.setState(StateConnecting)
		c.st.StartAssociation(c.cfg.SSID)
		return
	}
	// StateConnecting with the retry window open: the in-flight
	// attempt is the station's own (it retries with its AckTimeout);
	// if it has given up past the dead window, kick a fresh one.
	if stale > c.beacons(deadAfter) {
		c.abandon(now, "association never completed")
	}
}

// abandon tears down the local association (no frame), records the
// reconnect, and arms the next attempt — or ends the run with
// ErrConnectionLost when reconnection is disabled.
func (c *Client) abandon(now time.Duration, why string) {
	c.st.Abandon()
	if !c.cfg.Reconnect {
		c.cfg.Logf("connection lost (%s), reconnect disabled", why)
		c.lost.Store(true)
		c.setState(StateLost)
		c.stopOnce.Do(func() {
			if c.stopRun != nil {
				c.stopRun()
			}
		})
		return
	}
	c.mu.Lock()
	c.stats.Reconnects++
	backoff := c.backoffLocked()
	c.retryAt = now + backoff
	c.mu.Unlock()
	c.setState(StateReconnecting)
	c.cfg.Logf("%s: backing off %v before re-associating", why, backoff.Truncate(time.Millisecond))
}

// backoffLocked computes the next backoff step: backoffBase<<attempts
// beacon intervals capped at backoffMax, with ±25% jitter. Callers
// hold c.mu.
func (c *Client) backoffLocked() time.Duration {
	d, ceiling := c.beacons(backoffBase), c.beacons(backoffMax)
	for i := 0; i < c.attempts && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	c.attempts++
	// Jitter to ±25%: draw j in [0, d/2) and shift by -d/4.
	if q := d / 4; q > 0 {
		j := time.Duration(c.rng.Uint64() % uint64(2*q))
		d += j - q
	}
	return d
}

// Kill hard-stops the client without sending a disassociation frame —
// the process-crash stand-in that the AP's liveness sweep exists to
// catch. Run returns shortly after.
func (c *Client) Kill() {
	c.stopOnce.Do(func() {
		if c.stopRun != nil {
			c.stopRun()
		}
	})
}

func (c *Client) attemptCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

func (c *Client) setState(s ClientState) { c.state.Store(int32(s)) }
