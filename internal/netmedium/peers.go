package netmedium

import (
	"net"
	"net/netip"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Endpoint is the datagram loop both UDP servers of the live runtime
// run: Server for the monitor's taps and airlink.Hub for hided's
// stations. It owns the socket and the peer table. Serve decodes each
// datagram and counts one that does not decode; it answers a ping with
// a pong, and a ping or a pong resets its sender's liveness count on
// the read loop, so liveness holds while the engine is saturated. Any
// other message goes to the server's handler (NewEndpoint), and the
// event the handler returns is offered to the engine's queue (Offer)
// and counted dropped when the queue is full. PingPeers is the one
// liveness sweep. The table and counters are guarded by the owner's
// lock, which the handler runs under and which the owner holds to
// reach the table itself (Peers).
type Endpoint[K comparable] struct {
	pc     net.PacketConn
	mu     sync.Locker
	inject chan<- sim.Event
	handle func(Message, netip.AddrPort) (sim.Event, bool)
	peers  Peers[K]
	stats  EndpointStats
}

// EndpointStats counts an Endpoint's work.
type EndpointStats struct {
	Peers int
	// BadPackets counts datagrams that did not decode or that the
	// server does not take.
	BadPackets int
	PingsSent  int
	// Evictions counts peers reaped by the liveness sweep after
	// leaving the configured number of consecutive pings unanswered.
	Evictions int
	// Dropped counts datagrams the engine's full queue refused.
	Dropped int
}

// NewEndpoint builds the endpoint of a server that guards it with mu
// and hands datagrams to its engine through inject. handle applies one
// message of the server's own types from the peer at from, under mu:
// it returns the event that carries the datagram onto the engine (nil
// for none), and false for a type the server does not take, which
// counts as malformed.
func NewEndpoint[K comparable](pc net.PacketConn, mu sync.Locker, inject chan<- sim.Event, handle func(m Message, from netip.AddrPort) (sim.Event, bool)) Endpoint[K] {
	return Endpoint[K]{pc: pc, mu: mu, inject: inject, handle: handle}
}

// Addr returns the listen address.
func (e *Endpoint[K]) Addr() net.Addr { return e.pc.LocalAddr() }

// Close shuts the socket; Serve returns.
func (e *Endpoint[K]) Close() error { return e.pc.Close() }

// Send writes b to addr. On a *net.UDPConn, the socket every server
// here listens on, the send does not allocate.
func (e *Endpoint[K]) Send(b []byte, addr netip.AddrPort) error {
	var err error
	if u, ok := e.pc.(*net.UDPConn); ok {
		_, err = u.WriteToUDPAddrPort(b, addr)
	} else {
		_, err = e.pc.WriteTo(b, net.UDPAddrFromAddrPort(addr))
	}
	return err
}

// Peers returns the peer table. The caller holds the owner's lock.
func (e *Endpoint[K]) Peers() *Peers[K] { return &e.peers }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint[K]) Stats() EndpointStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Peers = e.peers.Len()
	return st
}

// SetLiveness sets how many consecutive unanswered sweeps evict a peer
// (values < 1 restore the default of 3). Safe to call while serving.
func (e *Endpoint[K]) SetLiveness(maxMissed int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers.SetMaxMissed(maxMissed)
}

// Serve reads datagrams until the socket is closed. It returns
// net.ErrClosed after Close: no hand-off to the engine blocks it.
func (e *Endpoint[K]) Serve() error {
	buf := make([]byte, MaxDatagram)
	for {
		n, from, err := e.pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		e.HandleDatagram(buf[:n], AddrPortOf(from))
	}
}

// HandleDatagram applies one datagram from the peer at from: Serve's
// step.
func (e *Endpoint[K]) HandleDatagram(b []byte, from netip.AddrPort) {
	m, err := Unmarshal(b)
	var ev sim.Event
	ok := err == nil
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case !ok:
	case m.Type == MsgPing:
		e.peers.Touch(from)
		//lint:ignore errdrop best-effort pong; a lost reply looks like a lost packet
		_ = e.Send(pongMsg, from)
	case m.Type == MsgPong:
		e.peers.Touch(from)
	default:
		ev, ok = e.handle(m, from)
	}
	if !ok {
		e.stats.BadPackets++
	}
	if ev != nil && !Offer(e.inject, ev) {
		e.stats.Dropped++
	}
}

// PingPeers runs one liveness sweep of the peer table (Peers.Sweep)
// and returns the keys it evicted: peers that have left the configured
// number of consecutive sweeps unanswered (SetLiveness; default 3) go,
// the rest are pinged again. Any datagram from a peer resets its
// count. Drive it at a steady cadence on the engine clock.
func (e *Endpoint[K]) PingPeers() []K {
	e.mu.Lock()
	defer e.mu.Unlock()
	evicted, sent := e.peers.Sweep(func(addr netip.AddrPort) error { return e.Send(pingMsg, addr) })
	e.stats.PingsSent += sent
	e.stats.Evictions += len(evicted)
	return evicted
}

// Offer hands ev to an engine's inject queue without blocking and
// reports whether the queue took it. A full queue refuses it, and the
// datagram it carries is lost like one dropped on the air: a read loop
// never waits on an engine, which stops draining its queue once it
// stops. The hub, the link and the monitor all hand off this way.
func Offer(inject chan<- sim.Event, ev sim.Event) bool {
	select {
	case inject <- ev:
		return true
	default:
		return false
	}
}

// Pong answers a server's liveness ping over a client's connected
// socket: the client half of the sweep, shared by Tap and
// airlink.Link.
func Pong(conn net.Conn) error {
	_, err := conn.Write(pongMsg)
	return err
}

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
