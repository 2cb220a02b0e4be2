// Package daemon is the supervised lifecycle of the hided access
// point and the hidec client: config files with live reload (SIGHUP
// or POST /v1/reload), an HTTP control plane (internal/control),
// eviction of peers that go silent, graceful drain on SIGTERM — stop
// accepting associations, disassociate every client with real frames,
// bounded by a drain deadline — and, client-side, a connection state
// machine (connecting → associated → degraded → reconnecting) with
// exponential backoff, resumable association, and timings in the
// beacon intervals the client hears from an AP it learns from the air.
//
// The daemon is glue, not protocol: all protocol state lives in the
// single-threaded engine entities (internal/ap, internal/station) and
// every touch goes through the engine's inject channel. The package
// is wall-clock by nature (socket deadlines, drain timers, HTTP) and
// is allowlisted as such by the determinism analyzer, the same way
// internal/cli is.
package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/ap"
	"repro/internal/control"
	"repro/internal/dot11"
	"repro/internal/trace"
)

// Duration is a time.Duration that JSON-decodes from "150ms"-style
// strings (or raw nanosecond numbers) and encodes back to the string
// form, so config files stay human-readable.
type Duration time.Duration

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case float64:
		*d = Duration(time.Duration(v))
		return nil
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("daemon: bad duration %q: %w", v, err)
		}
		*d = Duration(parsed)
		return nil
	default:
		return fmt.Errorf("daemon: duration must be a string or number, got %T", v)
	}
}

// Config configures the hided daemon. The zero value plus normalize
// is a working local daemon; LoadConfig reads the same shape from a
// JSON file.
type Config struct {
	// Listen is the UDP address the virtual air is served on.
	Listen string `json:"listen,omitempty"`
	// Control is the TCP address of the HTTP control plane.
	Control string `json:"control,omitempty"`
	// SSID is the advertised network name.
	SSID string `json:"ssid,omitempty"`
	// BSSID is the AP MAC ("02:1d:e0:ff:00:01" when empty).
	BSSID string `json:"bssid,omitempty"`
	// DTIMPeriod is in beacons (default ap.DefaultDTIMPeriod).
	DTIMPeriod int `json:"dtim_period,omitempty"`
	// BeaconInterval defaults to the 802.11 100 TU.
	BeaconInterval Duration `json:"beacon_interval,omitempty"`
	// Legacy disables the HIDE extensions (stock AP).
	Legacy bool `json:"legacy,omitempty"`
	// Scenario names the broadcast trace replayed on loop ("none"
	// disables; default Starbucks). Reloadable.
	Scenario string `json:"scenario,omitempty"`
	// PingInterval is the peer-liveness sweep cadence (default 1s).
	// Reloadable.
	PingInterval Duration `json:"ping_interval,omitempty"`
	// MaxMissedPings evicts a peer after this many unanswered sweeps
	// (default 3). Reloadable.
	MaxMissedPings int `json:"max_missed_pings,omitempty"`
	// DrainDeadline bounds the SIGTERM graceful drain (default 5s).
	// Reloadable.
	DrainDeadline Duration `json:"drain_deadline,omitempty"`
	// StatsEvery is the stats-log cadence (0 disables). Reloadable.
	StatsEvery Duration `json:"stats_every,omitempty"`
	// Seed is accepted and read by nothing: the scenario replays its
	// calibrated trace, and POST /v1/fault carries its own seed.
	Seed uint64 `json:"seed,omitempty"`
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:5600"
	}
	if c.Control == "" {
		c.Control = "127.0.0.1:5680"
	}
	if c.SSID == "" {
		c.SSID = "hide-net"
	}
	if c.BSSID == "" {
		c.BSSID = "02:1d:e0:ff:00:01"
	}
	if c.DTIMPeriod <= 0 {
		c.DTIMPeriod = ap.DefaultDTIMPeriod
	}
	if c.Scenario == "" {
		c.Scenario = "Starbucks"
	}
	if c.PingInterval <= 0 {
		c.PingInterval = Duration(time.Second)
	}
	if c.MaxMissedPings <= 0 {
		c.MaxMissedPings = 3
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = Duration(5 * time.Second)
	}
	return c
}

// Validate checks the fields a typo would most likely corrupt.
func (c Config) Validate() error {
	if _, err := dot11.ParseMAC(c.BSSID); err != nil {
		return err
	}
	if !strings.EqualFold(c.Scenario, "none") {
		if _, err := trace.ScenarioByName(c.Scenario); err != nil {
			return err
		}
	}
	return nil
}

// LoadConfig reads a JSON config file holding one config object. An
// unknown field or anything but whitespace after the object is an
// error, so a misspelled key fails loudly instead of silently keeping
// a default. Defaults are filled in and the result validated.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: reading config: %w", err)
	}
	c, err := parseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: %s: %w", path, err)
	}
	return c, nil
}

// parseConfig is LoadConfig after the file read.
func parseConfig(data []byte) (Config, error) {
	var c Config
	if err := control.DecodeJSON(data, &c); err != nil {
		return Config{}, fmt.Errorf("parsing config: %w", err)
	}
	c = c.normalized()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// diff compares a freshly loaded config against the running one and
// splits the changes into the live-reloadable subset and the fields
// that need a restart. Both slices list "field: old -> new" strings.
func (c Config) diff(next Config) (reloadable, restartOnly []string) {
	chg := func(name string, old, new any) string {
		return fmt.Sprintf("%s: %v -> %v", name, old, new)
	}
	if c.Scenario != next.Scenario {
		reloadable = append(reloadable, chg("scenario", c.Scenario, next.Scenario))
	}
	if c.PingInterval != next.PingInterval {
		reloadable = append(reloadable, chg("ping_interval", time.Duration(c.PingInterval), time.Duration(next.PingInterval)))
	}
	if c.MaxMissedPings != next.MaxMissedPings {
		reloadable = append(reloadable, chg("max_missed_pings", c.MaxMissedPings, next.MaxMissedPings))
	}
	if c.DrainDeadline != next.DrainDeadline {
		reloadable = append(reloadable, chg("drain_deadline", time.Duration(c.DrainDeadline), time.Duration(next.DrainDeadline)))
	}
	if c.StatsEvery != next.StatsEvery {
		reloadable = append(reloadable, chg("stats_every", time.Duration(c.StatsEvery), time.Duration(next.StatsEvery)))
	}
	if c.Listen != next.Listen {
		restartOnly = append(restartOnly, chg("listen", c.Listen, next.Listen))
	}
	if c.Control != next.Control {
		restartOnly = append(restartOnly, chg("control", c.Control, next.Control))
	}
	if c.SSID != next.SSID {
		restartOnly = append(restartOnly, chg("ssid", c.SSID, next.SSID))
	}
	if c.BSSID != next.BSSID {
		restartOnly = append(restartOnly, chg("bssid", c.BSSID, next.BSSID))
	}
	if c.DTIMPeriod != next.DTIMPeriod {
		restartOnly = append(restartOnly, chg("dtim_period", c.DTIMPeriod, next.DTIMPeriod))
	}
	if c.BeaconInterval != next.BeaconInterval {
		restartOnly = append(restartOnly, chg("beacon_interval", time.Duration(c.BeaconInterval), time.Duration(next.BeaconInterval)))
	}
	if c.Legacy != next.Legacy {
		restartOnly = append(restartOnly, chg("legacy", c.Legacy, next.Legacy))
	}
	if c.Seed != next.Seed {
		restartOnly = append(restartOnly, chg("seed", c.Seed, next.Seed))
	}
	return reloadable, restartOnly
}
