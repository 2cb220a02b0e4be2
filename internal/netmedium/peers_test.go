package netmedium

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dot11"
)

// addr returns a distinct loopback address per port.
func addr(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port)
}

// pinger is a stub ping function that records the addresses it was
// asked to ping and fails when err is set.
type pinger struct {
	pinged []netip.AddrPort
	err    error
}

func (p *pinger) ping(a netip.AddrPort) error {
	p.pinged = append(p.pinged, a)
	return p.err
}

// keys lists the table's keys in order.
func keys[K comparable](t *Peers[K]) []K {
	var out []K
	t.Each(func(k K, _ netip.AddrPort) { out = append(out, k) })
	return out
}

// check verifies the table's indexes agree: every peer in the order
// has exactly one key entry and one address entry, both pointing back
// at it, and nothing else is indexed.
func (t *Peers[K]) check() error {
	if len(t.byKey) != len(t.order) || len(t.byAddr) != len(t.order) {
		return fmt.Errorf("%d peers, %d key entries, %d address entries", len(t.order), len(t.byKey), len(t.byAddr))
	}
	for _, p := range t.order {
		if t.byKey[p.key] != p || t.byAddr[p.addr] != p {
			return fmt.Errorf("peer %v at %v is not indexed to itself", p.key, p.addr)
		}
	}
	for _, k := range t.gone {
		if t.byKey[k] != nil {
			return fmt.Errorf("displaced %v is still routed", k)
		}
	}
	return nil
}

func TestPeersEvictAfterMaxMissedPlusOneSweeps(t *testing.T) {
	for _, maxMissed := range []int{0, 1, 2, 5} {
		limit := maxMissed
		if limit < 1 {
			limit = maxMissedPings
		}
		var tab Peers[int]
		tab.SetMaxMissed(maxMissed)
		tab.Learn(1, addr(1))
		var p pinger
		for sweep := 1; sweep <= limit; sweep++ {
			if evicted, _ := tab.Sweep(p.ping); len(evicted) != 0 || tab.Len() != 1 {
				t.Fatalf("maxMissed %d: evicted %v on sweep %d", maxMissed, evicted, sweep)
			}
		}
		evicted, sent := tab.Sweep(p.ping)
		if !slices.Equal(evicted, []int{1}) || sent != 0 || tab.Len() != 0 {
			t.Fatalf("maxMissed %d: sweep %d evicted %v (sent %d), want [1]", maxMissed, limit+1, evicted, sent)
		}
		if len(p.pinged) != limit {
			t.Fatalf("maxMissed %d: %d pings before eviction, want %d", maxMissed, len(p.pinged), limit)
		}
		if err := tab.check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPeersAnyDatagramResetsMisses(t *testing.T) {
	var tab Peers[string]
	tab.SetMaxMissed(2)
	tab.Learn("a", addr(1))
	var p pinger
	// Alternate the two kinds of datagram between sweeps: a keyed one
	// (Learn) and a bare one from the address (Touch). The peer
	// outlives many times maxMissed sweeps.
	for i := 0; i < 10; i++ {
		for j := 0; j < 2; j++ {
			if evicted, _ := tab.Sweep(p.ping); len(evicted) != 0 {
				t.Fatalf("round %d: evicted %v", i, evicted)
			}
		}
		if i%2 == 0 {
			tab.Learn("a", addr(1))
		} else {
			tab.Touch(addr(1))
		}
	}
	// A datagram from an address no peer holds touches nobody.
	tab.Sweep(p.ping)
	tab.Sweep(p.ping)
	tab.Touch(addr(2))
	if evicted, _ := tab.Sweep(p.ping); len(evicted) != 1 {
		t.Fatal("a stranger's datagram kept the peer alive")
	}
}

func TestPeersFailedPingCountsAsMiss(t *testing.T) {
	var tab Peers[int]
	tab.Learn(1, addr(1))
	p := pinger{err: errors.New("unreachable")}
	for sweep := 1; sweep <= maxMissedPings; sweep++ {
		evicted, sent := tab.Sweep(p.ping)
		if len(evicted) != 0 || sent != 0 {
			t.Fatalf("sweep %d: evicted %v, sent %d", sweep, evicted, sent)
		}
	}
	if evicted, _ := tab.Sweep(p.ping); !slices.Equal(evicted, []int{1}) {
		t.Fatalf("peer whose pings all failed not evicted on sweep %d: %v", maxMissedPings+1, evicted)
	}
}

func TestPeersFirstContactOrder(t *testing.T) {
	var tab Peers[string]
	for i, k := range []string{"c", "a", "b", "d"} {
		tab.Learn(k, addr(uint16(10+i)))
	}
	tab.Learn("a", addr(11)) // hearing from a peer again does not reorder it
	if got := keys(&tab); !slices.Equal(got, []string{"c", "a", "b", "d"}) {
		t.Fatalf("order %v", got)
	}
	tab.Remove("b")
	tab.Learn("b", addr(12)) // a peer that left rejoins at the end
	var p pinger
	tab.Sweep(p.ping)
	want := []netip.AddrPort{addr(10), addr(11), addr(13), addr(12)}
	if !slices.Equal(p.pinged, want) {
		t.Fatalf("pinged %v, want %v", p.pinged, want)
	}
	tab.Touch(addr(11))
	for i := 1; i < maxMissedPings; i++ {
		tab.Sweep(p.ping)
	}
	if evicted, _ := tab.Sweep(p.ping); !slices.Equal(evicted, []string{"c", "d", "b"}) {
		t.Fatalf("evicted %v, want [c d b]", evicted)
	}
	if got := keys(&tab); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("survivors %v, want [a]", got)
	}
}

func TestPeersMovedAddressKeepsPlace(t *testing.T) {
	var tab Peers[string]
	tab.Learn("a", addr(1))
	tab.Learn("b", addr(2))
	tab.Learn("c", addr(3))
	var p pinger
	tab.Sweep(p.ping)
	tab.Learn("b", addr(9))
	if got := keys(&tab); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("order after move %v", got)
	}
	if a, _ := tab.Addr("b"); a != addr(9) {
		t.Fatalf("b routed to %v, want %v", a, addr(9))
	}
	if tab.byAddr[addr(2)] != nil {
		t.Fatal("the address b left is still indexed")
	}
	if err := tab.check(); err != nil {
		t.Fatal(err)
	}
}

func TestPeersAddressChangesHands(t *testing.T) {
	var tab Peers[string]
	tab.Learn("a", addr(1))
	tab.Learn("b", addr(2))
	// A new key speaking from a's address: a is dropped at once and
	// reported by the next sweep.
	tab.Learn("x", addr(1))
	if _, ok := tab.Addr("a"); ok {
		t.Fatal("displaced peer still routed")
	}
	if got := keys(&tab); !slices.Equal(got, []string{"b", "x"}) {
		t.Fatalf("order %v", got)
	}
	// A known key moving onto another's address displaces it too, and
	// one that returns before the sweep is not reported.
	tab.Learn("b", addr(1))
	tab.Learn("a", addr(5))
	if err := tab.check(); err != nil {
		t.Fatal(err)
	}
	var p pinger
	if evicted, _ := tab.Sweep(p.ping); !slices.Equal(evicted, []string{"x"}) {
		t.Fatalf("sweep reported %v, want [x]", evicted)
	}
	if evicted, _ := tab.Sweep(p.ping); len(evicted) != 0 {
		t.Fatalf("displacement reported twice: %v", evicted)
	}
}

func TestAllocBudgetPeersLearnTouch(t *testing.T) {
	var tab Peers[dot11.MACAddr] // the hub's table
	for i := 0; i < 8; i++ {
		tab.Learn(dot11.MACAddr{2, 0, 0, 0, 0, byte(i)}, addr(uint16(i)))
	}
	key, at := dot11.MACAddr{2, 0, 0, 0, 0, 5}, addr(5)
	if n := testing.AllocsPerRun(100, func() { tab.Learn(key, at) }); n != 0 {
		t.Errorf("learning a known peer: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.Touch(at) }); n != 0 {
		t.Errorf("touch: %.1f allocs, want 0", n)
	}
}
