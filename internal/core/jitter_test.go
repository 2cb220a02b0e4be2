package core

import (
	"testing"

	"repro/internal/station"
)

// TestRefreshJitterSpread pins the jitter mechanics: per-station
// refresh intervals spread deterministically across
// [interval, interval·(1+jitter)], and the knob is inert without
// hardening or with jitter zero.
func TestRefreshJitterSpread(t *testing.T) {
	base, err := NewNetwork(NetworkConfig{HIDE: true, Harden: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref := base.stationConfig(1, station.HIDE, 1)
	if ref.PortRefresh <= 0 {
		t.Fatal("hardened config has no port refresh")
	}

	jn, err := NewNetwork(NetworkConfig{HIDE: true, Harden: true, RefreshJitter: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	jn2, err := NewNetwork(NetworkConfig{HIDE: true, Harden: true, RefreshJitter: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	var prev int64
	for i := 1; i <= 32; i++ {
		c := jn.stationConfig(i, station.HIDE, 1)
		if c.PortRefresh < ref.PortRefresh || c.PortRefresh > 2*ref.PortRefresh {
			t.Fatalf("station %d refresh %v outside [%v, %v]", i, c.PortRefresh, ref.PortRefresh, 2*ref.PortRefresh)
		}
		c2 := jn2.stationConfig(i, station.HIDE, 1)
		if c.PortRefresh != c2.PortRefresh {
			t.Fatalf("station %d jitter not deterministic: %v vs %v", i, c.PortRefresh, c2.PortRefresh)
		}
		if i > 1 && int64(c.PortRefresh) != prev {
			distinct = true
		}
		prev = int64(c.PortRefresh)
	}
	if !distinct {
		t.Fatal("jitter produced identical refresh intervals for every station")
	}

	// Without hardening the knob must be inert.
	plain, err := NewNetwork(NetworkConfig{HIDE: true, RefreshJitter: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pc := plain.stationConfig(1, station.HIDE, 1)
	if pc.PortRefresh != 0 {
		t.Fatalf("unhardened config got refresh %v, want 0", pc.PortRefresh)
	}
}
