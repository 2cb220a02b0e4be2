package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/dot11"
	"repro/internal/netmedium"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hided.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigDefaultsAndDurations(t *testing.T) {
	path := writeConfig(t, `{
		"listen": "127.0.0.1:0",
		"beacon_interval": "20ms",
		"drain_deadline": "2s",
		"ping_interval": 50000000
	}`)
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(cfg.BeaconInterval) != 20*time.Millisecond {
		t.Errorf("beacon_interval = %v", time.Duration(cfg.BeaconInterval))
	}
	if time.Duration(cfg.PingInterval) != 50*time.Millisecond {
		t.Errorf("numeric ping_interval = %v", time.Duration(cfg.PingInterval))
	}
	if time.Duration(cfg.DrainDeadline) != 2*time.Second {
		t.Errorf("drain_deadline = %v", time.Duration(cfg.DrainDeadline))
	}
	// Defaults filled in.
	if cfg.SSID != "hide-net" || cfg.DTIMPeriod != 3 || cfg.MaxMissedPings != 3 {
		t.Errorf("defaults drifted: %+v", cfg)
	}
	if cfg.Scenario != "Starbucks" {
		t.Errorf("default scenario = %q", cfg.Scenario)
	}
}

// badConfigs are config files LoadConfig must reject; FuzzParseConfig
// starts from them too.
var badConfigs = map[string]string{
	"unknown-field": `{"listne": "127.0.0.1:0"}`,
	"bad-duration":  `{"drain_deadline": "yesterday"}`,
	"bad-scenario":  `{"scenario": "NoSuchPlace"}`,
	"bad-bssid":     `{"bssid": "zz:zz:zz:zz:zz:zz"}`,
	"not-json":      `listen = 127.0.0.1`,
	// Octets a scanf-style MAC reader accepts.
	"bssid-0x-octet":       `{"bssid": "0x:1d:e0:ff:00:01"}`,
	"bssid-leading-space":  `{"bssid": " 2:1d:e0:ff:00:01"}`,
	"bssid-trailing-space": `{"bssid": "1 :1d:e0:ff:00:01"}`,
	// Anything after the one config object.
	"second-value":     `{"scenario": "none"} {"scenario": "NoSuchPlace"}`,
	"trailing-garbage": `{"scenario": "none"} trailing garbage`,
}

func TestLoadConfigRejectsBadInput(t *testing.T) {
	for name, body := range badConfigs {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadConfig(writeConfig(t, body)); err == nil {
				t.Fatalf("accepted %s", body)
			}
		})
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("accepted a missing file")
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	in := Duration(1500 * time.Millisecond)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"1.5s"` {
		t.Fatalf("marshal = %s", data)
	}
	var out Duration
	if err := json.Unmarshal(data, &out); err != nil || out != in {
		t.Fatalf("round trip: %v %v", out, err)
	}
	if err := json.Unmarshal([]byte(`true`), &out); err == nil {
		t.Fatal("bool accepted as duration")
	}
}

func TestConfigDiffSplitsReloadable(t *testing.T) {
	cur := Config{}.normalized()
	next := cur
	next.Scenario = "Home"
	next.MaxMissedPings = 9
	next.Listen = "127.0.0.1:7777"
	next.DTIMPeriod = 1
	reloadable, restartOnly := cur.diff(next)
	if len(reloadable) != 2 {
		t.Errorf("reloadable = %v", reloadable)
	}
	if len(restartOnly) != 2 {
		t.Errorf("restartOnly = %v", restartOnly)
	}
	if r, ro := cur.diff(cur); len(r)+len(ro) != 0 {
		t.Errorf("self-diff not empty: %v %v", r, ro)
	}
}

// TestDaemonBootControlAndDrain boots a daemon on ephemeral ports,
// exercises the control plane over real HTTP, then cancels the run
// context and asserts the graceful drain completed.
func TestDaemonBootControlAndDrain(t *testing.T) {
	d, err := New(Config{
		Listen:         "127.0.0.1:0",
		Control:        "127.0.0.1:0",
		Scenario:       "none",
		BeaconInterval: Duration(20 * time.Millisecond),
		DrainDeadline:  Duration(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()

	base := "http://" + d.ControlAddr().String()
	waitHTTP(t, base+"/healthz")

	var h control.Health
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.Draining {
		t.Fatalf("health = %+v", h)
	}
	resp, err := http.Post(base+"/v1/inject", "application/json",
		strings.NewReader(`{"port":5353,"count":2}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("inject: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "hided_up 1") || !strings.Contains(body, "hided_beacons_sent_total") {
		t.Fatalf("metrics missing expected series:\n%s", body)
	}
	// Reload without a config file is a clean client error, not a hang.
	resp, err = http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("fileless reload: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	select {
	case <-d.Drained():
	default:
		t.Fatal("shutdown skipped the graceful drain")
	}
}

// TestRunReturnsWhileTheAirFloods cancels a daemon whose air socket
// eight senders keep flooding while one control client stalls mid-POST,
// so the HTTP shutdown waits for that request after the engine has
// stopped and the engine's queue fills. The hub drops what the full
// queue refuses, counts it, and returns on Close. The server's read
// timeout closes the stalled connection, so Run returns within that
// timeout of the stalled request.
func TestRunReturnsWhileTheAirFloods(t *testing.T) {
	d, err := New(Config{
		Listen:        "127.0.0.1:0",
		Control:       "127.0.0.1:0",
		Scenario:      "none",
		DrainDeadline: Duration(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	waitHTTP(t, "http://"+d.ControlAddr().String()+"/healthz")

	stalled, err := net.Dial("tcp", d.ControlAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalledAt := time.Now()
	if _, err := stalled.Write([]byte("POST /v1/inject HTTP/1.1\r\nHost: hided\r\nContent-Length: 64\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var senders sync.WaitGroup
	defer senders.Wait()
	defer close(stop)
	bssid, err := dot11.ParseMAC(d.Config().BSSID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("udp", d.AirAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		df := &dot11.DataFrame{Header: dot11.MACHeader{
			FC:    dot11.FrameControl{ToDS: true},
			Addr1: bssid, Addr2: dot11.MACAddr{0x02, 0, 0, 0, 0x0f, byte(i)}, Addr3: bssid,
		}}
		msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: df.Marshal()}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				//lint:ignore errdrop a lost flood datagram changes nothing
				_, _ = conn.Write(msg)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.hub.Stats().FramesIn == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the hub never read a flood frame")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run had not returned 10 s after cancellation")
	}
	// Shutdown polls its connections at up to 500 ms intervals.
	if took, budget := time.Since(stalledAt), controlReadTimeout+900*time.Millisecond; took > budget {
		t.Errorf("Run returned %v after the stalled request, want within %v", took, budget)
	}
	if st := d.hub.Stats(); st.Dropped == 0 {
		t.Errorf("the stopped engine's full queue refused no frame: %+v", st)
	}
	// The server answered or dropped the stalled request and closed
	// its connection: the read ends at EOF, not at the deadline.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(stalled); err != nil {
		t.Errorf("the stalled connection is still open: %v", err)
	}
}

// TestReloadAppliesSubsetFromFile edits the config file under a
// running daemon's feet and reloads.
func TestReloadAppliesSubsetFromFile(t *testing.T) {
	path := writeConfig(t, `{
		"listen": "127.0.0.1:0",
		"control": "127.0.0.1:0",
		"scenario": "none",
		"max_missed_pings": 3
	}`)
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(t.Logf)
	if summary, err := d.Reload(); err != nil || summary != "no changes" {
		t.Fatalf("idempotent reload: %q %v", summary, err)
	}
	// A reload applies its live changes on the engine, so it runs.
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitHTTP(t, "http://"+d.ControlAddr().String()+"/healthz")
	// max_missed_pings is reloadable; ssid needs a restart.
	if err := os.WriteFile(path, []byte(`{
		"listen": "127.0.0.1:0",
		"control": "127.0.0.1:0",
		"scenario": "none",
		"max_missed_pings": 7,
		"ssid": "other-net"
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	summary, err := d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "applied: max_missed_pings: 3 -> 7") {
		t.Errorf("summary missing applied change: %q", summary)
	}
	if !strings.Contains(summary, "requires restart: ssid") {
		t.Errorf("summary missing restart-only change: %q", summary)
	}
	if d.Config().MaxMissedPings != 7 {
		t.Errorf("reloadable field not applied: %+v", d.Config())
	}
	if d.Config().SSID != "hide-net" {
		t.Errorf("restart-only field applied live: %+v", d.Config())
	}
	// A now-broken file fails the reload and keeps the old config.
	if err := os.WriteFile(path, []byte(`{"scenario":"Nowhere"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reload(); err == nil {
		t.Fatal("broken file reloaded")
	}
	if d.Config().MaxMissedPings != 7 {
		t.Error("failed reload clobbered the config")
	}
}

// TestReloadTurnsStatsLogOnAndOff reloads stats_every under a running
// daemon: 0 -> 50ms must start the status-line log, and 50ms -> 0 must
// stop it.
func TestReloadTurnsStatsLogOnAndOff(t *testing.T) {
	const quiet = `{
		"listen": "127.0.0.1:0",
		"control": "127.0.0.1:0",
		"scenario": "none"
	}`
	path := writeConfig(t, quiet)
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines atomic.Int64
	d.SetLogf(func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "peers=") {
			lines.Add(1)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	waitHTTP(t, "http://"+d.ControlAddr().String()+"/healthz")

	reload := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	reload(`{
		"listen": "127.0.0.1:0",
		"control": "127.0.0.1:0",
		"scenario": "none",
		"stats_every": "50ms"
	}`)
	deadline := time.Now().Add(3 * time.Second)
	for lines.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stats_every 0 -> 50ms: %d status lines in 3s", lines.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	reload(quiet)
	time.Sleep(100 * time.Millisecond) // a tick already logging may finish
	settled := lines.Load()
	time.Sleep(300 * time.Millisecond)
	if got := lines.Load(); got != settled {
		t.Errorf("stats_every 50ms -> 0: %d more status lines", got-settled)
	}
}

func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never came up", url)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestClientConfigDefaults pins the normalized defaults and the
// watchdog's timings at the 100 TU a client assumes before its first
// beacon: 10, 30, 2.5, 2 and 49 intervals, within one interval of the
// 1 s, 3 s, 250 ms, 200 ms and 5 s they replaced.
func TestClientConfigDefaults(t *testing.T) {
	c := ClientConfig{}.normalized()
	if c.Connect != "127.0.0.1:5600" || c.SSID != "hide-net" || c.Logf == nil {
		t.Errorf("defaults drifted: %+v", c)
	}
	client := discardClient(t)
	iv := dot11.DefaultBeaconInterval
	for _, tm := range []struct {
		name      string
		got, want time.Duration
		replaced  time.Duration
	}{
		{"degraded", client.beacons(degradedAfter), 10 * iv, time.Second},
		{"dead", client.beacons(deadAfter), 30 * iv, 3 * time.Second},
		{"check", client.beacons(checkEvery), iv * 5 / 2, 250 * time.Millisecond},
		{"backoff base", client.beacons(backoffBase), 2 * iv, 200 * time.Millisecond},
		{"backoff max", client.beacons(backoffMax), 49 * iv, 5 * time.Second},
	} {
		if tm.got != tm.want {
			t.Errorf("%s: %v, want %v", tm.name, tm.got, tm.want)
		}
		if d := tm.got - tm.replaced; d < -iv || d > iv {
			t.Errorf("%s: %v is more than one interval from %v", tm.name, tm.got, tm.replaced)
		}
	}
}

// discardClient builds a client that never runs, dialed at the discard
// port, which nothing writes to.
func discardClient(t *testing.T) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Connect: "127.0.0.1:9",
		Addr:    [6]byte{2, 0, 0, 0, 0, 1},
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.link.Close() })
	return c
}

// TestClientBackoffGrowsAndJitters pins the backoff envelope at 100 TU
// beacons: doubling from 2 intervals, capped at 49, jitter within ±25%.
func TestClientBackoffGrowsAndJitters(t *testing.T) {
	c := discardClient(t)
	base, ceiling := 2*dot11.DefaultBeaconInterval, 49*dot11.DefaultBeaconInterval
	prevNominal := time.Duration(0)
	for i := 0; i < 8; i++ {
		nominal := min(base<<i, ceiling)
		c.mu.Lock()
		got := c.backoffLocked()
		c.mu.Unlock()
		lo, hi := nominal*3/4, nominal*5/4
		if got < lo || got > hi {
			t.Errorf("attempt %d: backoff %v outside [%v,%v]", i, got, lo, hi)
		}
		if nominal < prevNominal {
			t.Errorf("attempt %d: nominal backoff shrank", i)
		}
		prevNominal = nominal
	}
	if fmt.Sprint(StateConnecting, StateAssociated, StateDegraded, StateReconnecting, StateLost) !=
		"connecting associated degraded reconnecting lost" {
		t.Error("state names drifted")
	}
}
