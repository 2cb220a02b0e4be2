package ap

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

// TestBeaconBytesInsensitiveToInsertionOrder locks in the property the
// determinism analyzer exists to protect at the AP layer: the TIM and
// BTIM elements are computed from the client map and the Client UDP
// Port Table, both map-backed, so a beacon must come out byte-for-byte
// identical no matter the order in which port updates populated those
// maps (Algorithm 1's flag union is commutative and table lookups are
// sorted).
func TestBeaconBytesInsensitiveToInsertionOrder(t *testing.T) {
	const n = 12
	addrs := make([]dot11.MACAddr, n)
	for i := range addrs {
		addrs[i] = dot11.MACAddr{2, 0, 0, 0, 1, byte(i + 1)}
	}
	ports := func(i int) []uint16 {
		return []uint16{uint16(5000 + i), uint16(6000 + i%4)}
	}

	build := func(perm []int) []byte {
		eng := sim.New()
		med := medium.New(eng, 42)
		a := New(eng, med, Config{BSSID: bssid, SSID: "perm", HIDE: true, DTIMPeriod: 1})
		// Associations run in a fixed order so every trial binds the
		// same AID to the same address; only map-population order may
		// differ between trials.
		for _, addr := range addrs {
			if _, err := a.Associate(addr, true); err != nil {
				t.Fatal(err)
			}
		}
		// Port updates land in permuted order, preceded by a throwaway
		// update per client so the table's internal maps also see
		// per-trial histories, not just per-trial insertion orders.
		for _, i := range perm {
			a.Table().Update(dot11.AID(i+1), []uint16{9999})
		}
		for _, i := range perm {
			a.Table().Update(dot11.AID(i+1), ports(i))
		}
		// Buffer group traffic for a port subset and unicast frames
		// for a client subset, so the beacon carries both a populated
		// BTIM and a populated TIM.
		for i := 0; i < n; i += 3 {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: uint16(5000 + i)}, dot11.Rate1Mbps)
		}
		for i := 0; i < n; i += 4 {
			if err := a.EnqueueUnicast(addrs[i], dot11.UDPDatagram{DstPort: 7000}, dot11.Rate11Mbps); err != nil {
				t.Fatal(err)
			}
		}
		_, raw := a.encodeBeacon(100*time.Millisecond, true)
		return append([]byte(nil), raw...)
	}

	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	want := build(base)
	for trial := 0; trial < 5; trial++ {
		perm := append([]int(nil), base...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(n, func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		if got := build(perm); !bytes.Equal(got, want) {
			t.Fatalf("beacon bytes differ for insertion order %v:\n got %x\nwant %x", perm, got, want)
		}
	}
}

// TestBeaconBytesInsensitiveToExpiryOrder extends the shuffle property
// to the TTL machinery: per-client refresh stamps and an ExpireBefore
// sweep add a third map (AID → stamp) to the table, and the beacon
// must stay byte-identical no matter the order stamps were written in
// — the sweep visits that map in sorted order, and the surviving
// entries' contribution to Algorithm 1 is order-free.
func TestBeaconBytesInsensitiveToExpiryOrder(t *testing.T) {
	const n = 12
	addrs := make([]dot11.MACAddr, n)
	for i := range addrs {
		addrs[i] = dot11.MACAddr{2, 0, 0, 0, 2, byte(i + 1)}
	}
	// Odd-indexed clients carry stale stamps and must be swept.
	stamp := func(i int) time.Duration {
		if i%2 == 1 {
			return time.Duration(i) * time.Millisecond
		}
		return time.Second + time.Duration(i)*time.Millisecond
	}

	build := func(perm []int) []byte {
		eng := sim.New()
		med := medium.New(eng, 42)
		a := New(eng, med, Config{BSSID: bssid, SSID: "ttl", HIDE: true, DTIMPeriod: 1})
		for _, addr := range addrs {
			if _, err := a.Associate(addr, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range perm {
			a.Table().UpdateAt(dot11.AID(i+1), []uint16{uint16(5000 + i), 53}, stamp(i))
		}
		if stale := a.Table().ExpireBefore(time.Second); len(stale) != n/2 {
			t.Fatalf("sweep expired %d clients, want %d", len(stale), n/2)
		}
		for i := 0; i < n; i++ {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: uint16(5000 + i)}, dot11.Rate1Mbps)
		}
		_, raw := a.encodeBeacon(100*time.Millisecond, true)
		return append([]byte(nil), raw...)
	}

	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	want := build(base)
	for trial := 0; trial < 5; trial++ {
		perm := append([]int(nil), base...)
		rand.New(rand.NewSource(int64(100+trial))).Shuffle(n, func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		if got := build(perm); !bytes.Equal(got, want) {
			t.Fatalf("beacon bytes differ for stamp order %v:\n got %x\nwant %x", perm, got, want)
		}
	}
}
