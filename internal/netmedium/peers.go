package netmedium

import (
	"net/netip"
	"slices"
)

// Peers is the ordered peer table with ping/pong liveness that both
// UDP servers keep: Server's monitor taps, keyed by their address, and
// airlink.Hub's stations, keyed by MAC. Peers stay in first-contact
// order, so fan-out and sweeps replay in a deterministic sequence. The
// zero value is an empty table; it is not safe for concurrent use, so
// its owner guards it with its own lock.
type Peers[K comparable] struct {
	order     []*peer[K] // first-contact order
	byKey     map[K]*peer[K]
	byAddr    map[netip.AddrPort]*peer[K] // one entry per peer
	gone      []K                         // displaced peers the next Sweep reports
	maxMissed int                         // < 1 means maxMissedPings
}

// peer is one table entry.
type peer[K comparable] struct {
	key    K
	addr   netip.AddrPort
	missed int // consecutive unanswered sweeps
}

// SetMaxMissed sets how many consecutive sweeps a peer may leave
// unanswered before eviction; n < 1 restores the default of 3.
func (t *Peers[K]) SetMaxMissed(n int) { t.maxMissed = n }

// Len returns the number of peers.
func (t *Peers[K]) Len() int { return len(t.order) }

// Learn records a datagram from key at addr and resets its miss count.
// A new key joins the end of the order; a known key that moved to a new
// address keeps its place. An address belongs to one peer: a different
// peer that held addr is dropped, and the next Sweep reports it with
// the evicted.
func (t *Peers[K]) Learn(key K, addr netip.AddrPort) {
	p := t.byKey[key]
	if p != nil && p.addr == addr {
		p.missed = 0
		return
	}
	if q := t.byAddr[addr]; q != nil {
		t.Remove(q.key)
		t.gone = append(t.gone, q.key)
	}
	if p == nil {
		if t.byKey == nil {
			t.byKey = make(map[K]*peer[K])
			t.byAddr = make(map[netip.AddrPort]*peer[K])
		}
		if i := slices.Index(t.gone, key); i >= 0 {
			t.gone = slices.Delete(t.gone, i, i+1) // back before a sweep reported it
		}
		p = &peer[K]{key: key}
		t.byKey[key] = p
		t.order = append(t.order, p)
	} else {
		delete(t.byAddr, p.addr)
	}
	p.addr = addr
	p.missed = 0
	t.byAddr[addr] = p
}

// Touch resets the miss count of the peer at addr, if any, for
// datagrams that carry no key (pings, pongs).
func (t *Peers[K]) Touch(addr netip.AddrPort) {
	if p := t.byAddr[addr]; p != nil {
		p.missed = 0
	}
}

// Addr returns the address of the peer with key.
func (t *Peers[K]) Addr(key K) (netip.AddrPort, bool) {
	if p := t.byKey[key]; p != nil {
		return p.addr, true
	}
	return netip.AddrPort{}, false
}

// Each calls fn for every peer in first-contact order. fn must not
// change the table.
func (t *Peers[K]) Each(fn func(key K, addr netip.AddrPort)) {
	for _, p := range t.order {
		fn(p.key, p.addr)
	}
}

// Remove forgets the peer with key at once, without reporting it from
// a sweep (it said goodbye).
func (t *Peers[K]) Remove(key K) {
	p := t.byKey[key]
	if p == nil {
		return
	}
	delete(t.byKey, key)
	delete(t.byAddr, p.addr)
	i := slices.Index(t.order, p)
	t.order = slices.Delete(t.order, i, i+1)
}

// Sweep runs one liveness round in first-contact order: a peer that
// has left maxMissed consecutive sweeps unanswered is evicted, every
// other peer is pinged and charged a miss that any datagram from it
// clears before the next sweep. A ping that cannot be sent counts as a
// miss, the same as one that goes unanswered. Sweep returns the keys
// of the peers it evicted — after those Learn displaced since the last
// sweep — and the number of pings sent.
func (t *Peers[K]) Sweep(ping func(addr netip.AddrPort) error) (evicted []K, sent int) {
	limit := t.maxMissed
	if limit < 1 {
		limit = maxMissedPings
	}
	evicted, t.gone = t.gone, nil
	kept := t.order[:0]
	for _, p := range t.order {
		if p.missed >= limit {
			delete(t.byKey, p.key)
			delete(t.byAddr, p.addr)
			evicted = append(evicted, p.key)
			continue
		}
		kept = append(kept, p)
		p.missed++
		if ping(p.addr) == nil {
			sent++
		}
	}
	clear(t.order[len(kept):])
	t.order = kept
	return evicted, sent
}
