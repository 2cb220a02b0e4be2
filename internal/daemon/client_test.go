package daemon

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/station"
)

// liveDaemon runs a daemon from cfg on loopback until the test ends.
// It returns the daemon and the cancel that starts its drain.
func liveDaemon(t *testing.T, cfg Config) (*Daemon, context.CancelFunc) {
	t.Helper()
	cfg.Listen, cfg.Control, cfg.Scenario = "127.0.0.1:0", "127.0.0.1:0", "none"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("daemon Run: %v", err)
		}
	})
	return d, cancel
}

// liveClient runs a reconnecting HIDE client of d, open on a port no
// frame uses, until the test ends or stop is called, and waits until it
// is associated. stop cancels the client's context and returns what
// Run returned.
func liveClient(t *testing.T, d *Daemon) (c *Client, stop func() error) {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Connect:   d.AirAddr().String(),
		Addr:      [6]byte{0x02, 0x1d, 0xe0, 0xfe, 0x00, 0x01},
		Mode:      station.HIDE,
		Ports:     []uint16{40000},
		Reconnect: true,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(ctx) }()
	var once sync.Once
	var ran error
	stop = func() error {
		once.Do(func() {
			cancel()
			ran = <-runErr
		})
		return ran
	}
	t.Cleanup(func() {
		if err := stop(); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("client Run: %v", err)
		}
	})
	waitUntil(t, 5*time.Second, "association", func() bool { return c.State() == StateAssociated })
	return c, stop
}

// waitUntil polls cond every few milliseconds until it holds or
// timeout passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within %v", what, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// onClient reads client state on its engine.
func onClient(t *testing.T, c *Client, fn func(now time.Duration)) {
	t.Helper()
	if err := c.Do(time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

// TestIdleClientStaysAssociated leaves a client idle (no port of its
// sees traffic, so it sends nothing after its first port message)
// against a daemon that sweeps every 100 ms: past the link's write
// deadline plus max_missed_pings+1 sweeps it still answers every ping,
// is not evicted and hears beacons.
func TestIdleClientStaysAssociated(t *testing.T) {
	t.Parallel()
	const beacon, sweep = 20 * time.Millisecond, 100 * time.Millisecond
	d, _ := liveDaemon(t, Config{
		BeaconInterval: Duration(beacon),
		PingInterval:   Duration(sweep),
		MaxMissedPings: 3,
	})
	c, _ := liveClient(t, d)
	time.Sleep(time.Second + (3+1)*sweep + 5*sweep)

	if n := d.evictions.Load(); n != 0 {
		t.Errorf("an idle, live client was evicted %d times", n)
	}
	if st := c.link.Stats(); st.WriteErrors != 0 || st.PingsAnswered == 0 {
		t.Errorf("link %+v: want every ping answered with a pong that was written", st)
	}
	if st := c.Stats(); st.Reconnects != 0 || c.State() != StateAssociated {
		t.Errorf("client %v with %+v, want associated without a reconnect", c.State(), st)
	}
	onClient(t, c, func(now time.Duration) {
		if last, heard := c.Station().LastBeaconAt(); !heard || now-last > 10*beacon {
			t.Errorf("last beacon at %v, now %v: the AP stopped sending beacons", last, now)
		}
	})
}

// TestClientHearsDrainFromAnyBSSID drains a daemon whose BSSID is not
// the default: the client took the AP's address from its association
// response, so it accepts the drain's disassociation.
func TestClientHearsDrainFromAnyBSSID(t *testing.T) {
	t.Parallel()
	d, drain := liveDaemon(t, Config{
		BSSID:          "02:1d:e0:ff:00:02",
		BeaconInterval: Duration(20 * time.Millisecond),
	})
	c, _ := liveClient(t, d)
	drain()
	<-d.Drained()
	waitUntil(t, 2*time.Second, "disassociation heard", func() bool {
		var got int
		onClient(t, c, func(time.Duration) { got = c.Station().Stats().DisassocsReceived })
		return got == 1
	})
}

// TestClientJudgesSlowBeacons runs a client against 1.2 s beacons,
// slower than the 1 s a 100 TU cadence would call degraded: once it
// has heard the AP's interval, several more beacons pass without a
// degradation.
func TestClientJudgesSlowBeacons(t *testing.T) {
	t.Parallel()
	const beacon = 1200 * time.Millisecond
	d, _ := liveDaemon(t, Config{BeaconInterval: Duration(beacon)})
	c, _ := liveClient(t, d)
	waitUntil(t, 2*beacon, "first beacon", func() bool {
		var heard bool
		onClient(t, c, func(time.Duration) { _, heard = c.Station().LastBeaconAt() })
		return heard
	})
	before := c.Stats()
	time.Sleep(3*beacon + beacon/2)
	if after := c.Stats(); after != before || c.State() != StateAssociated {
		t.Errorf("over 3 beacons of %v: %v, %+v -> %+v; want associated throughout", beacon, c.State(), before, after)
	}
}

// TestClientDeclaresSilentAPDead drops every frame the AP sends to a
// client hearing 20 ms beacons: the client abandons the association
// within 30 intervals plus one watchdog check of its last beacon.
func TestClientDeclaresSilentAPDead(t *testing.T) {
	t.Parallel()
	const beacon = 20 * time.Millisecond
	d, _ := liveDaemon(t, Config{BeaconInterval: Duration(beacon)})
	c, _ := liveClient(t, d)
	d.hub.SetFaultPlan(fault.Loss{P: 1}, 1)
	var silence time.Duration
	waitUntil(t, 5*time.Second, "abandoned association", func() bool {
		var reconnects int
		onClient(t, c, func(now time.Duration) {
			c.mu.Lock()
			reconnects = c.stats.Reconnects
			c.mu.Unlock()
			last, _ := c.Station().LastBeaconAt()
			silence = now - last
		})
		return reconnects > 0
	})
	// Polling adds up to one poll and one engine round trip.
	const slack = 100 * time.Millisecond
	if budget := 30*beacon + beacon*5/2 + slack; silence > budget {
		t.Errorf("abandoned after %v without a beacon, want within %v", silence, budget)
	}
}

// TestClientSaysGoodbye cancels an associated client's context: Run
// returns context.Canceled, and hided counts one disassociation, drops
// the peer from its hub and evicts nobody, even after the sweeps that
// would evict a silent peer have passed.
func TestClientSaysGoodbye(t *testing.T) {
	t.Parallel()
	const sweep, missed = 50 * time.Millisecond, 2
	d, _ := liveDaemon(t, Config{
		BeaconInterval: Duration(20 * time.Millisecond),
		PingInterval:   Duration(sweep),
		MaxMissedPings: missed,
	})
	_, stop := liveClient(t, d)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancellation = %v, want context.Canceled", err)
	}
	counters := func() map[string]int64 {
		t.Helper()
		m, err := d.Counters()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	waitUntil(t, 2*time.Second, "disassociation", func() bool { return counters()["disassociations_total"] == 1 })
	time.Sleep((missed + 3) * sweep)
	m := counters()
	if m["disassociations_total"] != 1 || m["evictions_total"] != 0 {
		t.Errorf("disassociations %d, evictions %d; want 1 and 0",
			m["disassociations_total"], m["evictions_total"])
	}
	if n := d.hub.Stats().Peers; n != 0 {
		t.Errorf("the hub still holds %d peers after the client left", n)
	}
}
