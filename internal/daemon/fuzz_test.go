package daemon

import (
	"strings"
	"testing"

	"repro/internal/dot11"
	"repro/internal/trace"
)

// fullConfig sets every Config field.
const fullConfig = `{
	"listen": "127.0.0.1:5600",
	"control": "127.0.0.1:5680",
	"ssid": "hide-net",
	"bssid": "02:1D:e0:ff:00:01",
	"dtim_period": 3,
	"beacon_interval": "102400us",
	"legacy": false,
	"scenario": "starbucks",
	"ping_interval": 1000000000,
	"max_missed_pings": 3,
	"drain_deadline": "5s",
	"stats_every": "10s",
	"seed": 7
}`

// FuzzParseConfig drives the daemon's config parser with arbitrary
// file contents. It must never panic, and every config it accepts must
// be one the daemon can run: the BSSID reads back through
// dot11.ParseMAC to the same string (up to case), and the scenario is
// "none" or resolves.
func FuzzParseConfig(f *testing.F) {
	for _, body := range badConfigs {
		f.Add([]byte(body))
	}
	f.Add([]byte(fullConfig))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseConfig(data)
		if err != nil {
			return
		}
		mac, err := dot11.ParseMAC(c.BSSID)
		if err != nil {
			t.Fatalf("accepted BSSID %q does not parse: %v", c.BSSID, err)
		}
		if !strings.EqualFold(mac.String(), c.BSSID) {
			t.Fatalf("BSSID %q reads back as %v", c.BSSID, mac)
		}
		if !strings.EqualFold(c.Scenario, "none") {
			if _, err := trace.ScenarioByName(c.Scenario); err != nil {
				t.Fatalf("accepted scenario %q does not resolve: %v", c.Scenario, err)
			}
		}
	})
}
