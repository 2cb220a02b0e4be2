// Package airlink carries 802.11 frames over real UDP sockets — the
// "virtual air" between the hided AP daemon and hidec client daemons
// running as separate processes. It implements the same medium.Channel
// surface as the in-process emulated medium, so the exact same AP and
// station code runs over loopback or a LAN, in wall-clock time, with
// the engine driven by sim.RunRealtime.
//
// Framing reuses the netmedium wire protocol: each UDP datagram is one
// MsgFrame message carrying the raw 802.11 frame and its nominal PHY
// rate. The hub (AP side) learns peer addresses from the source MAC of
// frames it receives and routes unicast frames accordingly; group
// frames fan out to every known peer.
//
// Two hardening layers ride on top of the plain relay. The hub can
// carry a live fault.Plan (SetFaultPlan): every outgoing delivery is
// judged per peer — drop, corrupt, duplicate — by the in-process
// medium's rule (fault.Judge), so the chaos scenarios from
// internal/fault run against a real daemon over real sockets. And the
// hub runs the simulation monitor's datagram loop, netmedium.Endpoint,
// so it tracks peers in the same netmedium.Peers table the monitor
// keeps its taps in. A disassociation crossing the hub, the station's
// own or the AP's, is delivered and then removes the peer; a client
// process that died without one stops answering pings and is evicted
// after a configurable number of missed sweeps (SetLiveness +
// PingPeers), which returns the evicted MACs so the daemon can clean
// up AP-side state and log the eviction.
//
// Neither end ever blocks handing a received frame to its engine: the
// frame is offered to the engine's queue (netmedium.Offer), and one
// the full queue refuses is dropped like a frame lost on the air and
// counted (Dropped).
package airlink

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/netmedium"
	"repro/internal/sim"
)

// Hub is the AP-side link: it owns the listening socket, learns peers,
// and fans group frames out to all of them.
type Hub struct {
	// Endpoint keeps the stations, keyed by MAC, in first-contact order
	// so fan-out (and the fault plan's per-peer RNG draws) replay in a
	// deterministic sequence for a given association order, mirroring
	// the in-process medium's attach-order fanout.
	netmedium.Endpoint[dot11.MACAddr]

	mu    sync.Mutex  // guards the endpoint and everything below
	node  medium.Node // the local AP
	stats HubStats    // EndpointStats is filled in by Stats

	plan  fault.Plan
	rng   *sim.RNG
	clock func() time.Duration // virtual time for fault windows; nil = zero
}

// HubStats counts hub activity; the endpoint's counters cover peers,
// malformed datagrams, the liveness sweep and engine-queue drops.
type HubStats struct {
	netmedium.EndpointStats
	FramesIn  int
	FramesOut int
	// Fault-plan verdicts applied to outgoing deliveries.
	FaultDropped    int
	FaultCorrupted  int
	FaultDuplicated int
}

// NewHub wraps a listening socket. Received frames are delivered to
// the attached node via the inject channel (on the engine goroutine).
func NewHub(pc net.PacketConn, inject chan<- sim.Event) *Hub {
	h := &Hub{}
	h.Endpoint = netmedium.NewEndpoint[dot11.MACAddr](pc, &h.mu, inject, h.handle)
	return h
}

var _ medium.Channel = (*Hub)(nil)

// Stats returns a snapshot of the counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	st := h.stats
	h.mu.Unlock()
	st.EndpointStats = h.Endpoint.Stats()
	return st
}

// Attach registers the local node (the AP). Only one node attaches to
// a hub; stations live in other processes.
func (h *Hub) Attach(addr dot11.MACAddr, n medium.Node) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.node = n
}

// SetClock installs the virtual-time source stamped onto fault
// deliveries (so Window-scoped plans work on the live link). Call it
// with the owning engine's Now before the engine runs; a nil fn stamps
// zero. The clock is only read from Transmit, which runs on the engine
// goroutine.
func (h *Hub) SetClock(fn func() time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock = fn
}

// SetFaultPlan installs (or, with nil, clears) a fault plan on the
// live link. Every outgoing delivery — one per peer for group frames —
// is judged by the plan with randomness drawn from a fresh RNG seeded
// with seed, exactly mirroring the in-process medium's fault layer, so
// the PR-4 chaos scenarios can be driven against a running daemon.
func (h *Hub) SetFaultPlan(plan fault.Plan, seed uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.plan = plan
	if plan != nil {
		h.rng = sim.NewRNG(seed)
	} else {
		h.rng = nil
	}
}

// Transmit sends a frame to its addressee(s) over UDP, applying the
// installed fault plan per delivery. It is called from the engine
// goroutine only.
func (h *Hub) Transmit(src dot11.MACAddr, raw []byte, rate dot11.Rate) time.Duration {
	dst, ok := dot11.Receiver(raw)
	if !ok {
		return 0
	}
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: rate, Payload: raw}.Marshal()
	if err != nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// With a plan installed, the frame is classified and stamped once
	// here, for every peer's judgement, as the medium does.
	d := fault.Delivery{Raw: raw, Src: src, Dst: dst}
	if h.plan != nil {
		d.Kind = dot11.Classify(raw)
		if h.clock != nil {
			d.At = h.clock()
		}
	}
	if dst.IsMulticast() {
		h.Peers().Each(func(mac dot11.MACAddr, to netip.AddrPort) {
			d.Rcv = mac
			h.deliverLocked(d, to, msg)
		})
		return 0
	}
	if to, ok := h.Peers().Addr(dst); ok {
		d.Rcv = dst
		h.deliverLocked(d, to, msg)
		if dot11.Classify(raw) == dot11.KindDisassoc {
			h.Peers().Remove(dst) // the AP said goodbye
		}
	}
	return 0
}

// deliverLocked judges one (frame, peer) delivery d by the fault plan
// and writes the surviving copies of msg, the datagram carrying d.Raw.
// Callers hold h.mu.
func (h *Hub) deliverLocked(d fault.Delivery, to netip.AddrPort, msg []byte) {
	out := msg
	if h.plan != nil {
		o := fault.Judge(h.plan, d, h.rng)
		if o.Drop {
			h.stats.FaultDropped++
			return
		}
		if o.Corrupt {
			// Corrupt a private copy of the receiver's datagram; the
			// shared msg buffer keeps serving the other peers untouched.
			out = append([]byte(nil), msg...)
			out[len(out)-len(d.Raw)+o.Byte] ^= 0xff
			h.stats.FaultCorrupted++
		}
		if o.Duplicate {
			h.stats.FaultDuplicated++
			if h.Send(out, to) == nil {
				h.stats.FramesOut++
			}
		}
	}
	if h.Send(out, to) == nil {
		h.stats.FramesOut++
	}
}

// handle applies one frame from a station, the hub's own message type:
// it teaches the peer table its transmitter's address, or removes the
// transmitter from the table when the frame is its disassociation, and
// becomes the event that delivers the frame to the attached node.
func (h *Hub) handle(m netmedium.Message, from netip.AddrPort) (sim.Event, bool) {
	if m.Type != netmedium.MsgFrame {
		return nil, false
	}
	src, ok := dot11.Transmitter(m.Payload)
	switch {
	case !ok:
		h.Peers().Touch(from)
	case dot11.Classify(m.Payload) == dot11.KindDisassoc:
		h.Peers().Remove(src) // it said goodbye; the AP still hears it
	default:
		h.Peers().Learn(src, from)
	}
	h.stats.FramesIn++
	if h.node == nil {
		return nil, true
	}
	return deliver(h.node, m), true
}

// readings recycles the Frames delivery events read datagrams into: a
// node never keeps its Frame past Receive, so one goes back to the
// pool as soon as the call returns, and links add no per-client
// reading.
var readings = sync.Pool{New: func() any { return new(medium.Frame) }}

// deliver is the engine event that reads a received frame, once, and
// hands the reading to node.
func deliver(node medium.Node, m netmedium.Message) sim.Event {
	raw, rate := m.Payload, m.Rate
	return func(now time.Duration) {
		f := readings.Get().(*medium.Frame)
		f.Read(raw, rate)
		node.Receive(f, now)
		*f = medium.Frame{} // keep no datagram alive from the pool
		readings.Put(f)
	}
}

// writeTimeout bounds every write on a link's socket. Transmit runs on
// the engine goroutine, and a blocked send must not stall it.
const writeTimeout = time.Second

// Link is the client-side leg: a connected UDP socket to the hub.
type Link struct {
	conn   hubConn
	inject chan<- sim.Event

	mu    sync.Mutex
	node  medium.Node
	stats LinkStats
}

// hubConn is a link's socket. Its Write, the one write path for frames
// and pongs, arms a fresh deadline first: a pong never inherits the
// expired deadline of the client's last frame.
type hubConn struct{ net.Conn }

// Write sends one datagram within writeTimeout.
func (c hubConn) Write(b []byte) (int, error) {
	//lint:ignore errdrop a deadline that cannot be set surfaces as the write error below
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return c.Conn.Write(b)
}

// LinkStats counts link activity.
type LinkStats struct {
	FramesIn   int
	FramesOut  int
	BadPackets int
	// WriteErrors counts frames and pongs whose send failed or timed
	// out; a frame is treated as lost on the air, a pong as a miss.
	WriteErrors int
	// ReadErrors counts reads that failed on the open socket.
	ReadErrors int
	// PingsAnswered counts pings answered with a pong that was written.
	PingsAnswered int
	// Dropped counts frames the engine's full queue refused.
	Dropped int
}

// Dial connects to a hub.
func Dial(addr string, inject chan<- sim.Event) (*Link, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("airlink: dialing hub: %w", err)
	}
	return &Link{conn: hubConn{conn}, inject: inject}, nil
}

var _ medium.Channel = (*Link)(nil)

// Attach registers the local node (the station).
func (l *Link) Attach(addr dot11.MACAddr, n medium.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.node = n
}

// Transmit sends a frame to the hub within writeTimeout.
func (l *Link) Transmit(src dot11.MACAddr, raw []byte, rate dot11.Rate) time.Duration {
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: rate, Payload: raw}.Marshal()
	if err != nil {
		return 0
	}
	_, err = l.conn.Write(msg)
	l.mu.Lock()
	if err == nil {
		l.stats.FramesOut++
	} else {
		l.stats.WriteErrors++
	}
	l.mu.Unlock()
	return 0
}

// Stats returns a snapshot of the counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Serve reads frames from the hub until the socket closes, answering
// liveness pings. A frame is offered to the engine (netmedium.Offer),
// so Serve returns after Close even when the engine has stopped
// draining its queue. Another read error, such as the refusal of a
// datagram sent while the hub was down, is counted and reading goes on.
func (l *Link) Serve() error {
	buf := make([]byte, netmedium.MaxDatagram)
	for {
		n, err := l.conn.Read(buf)
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		if err != nil {
			l.mu.Lock()
			l.stats.ReadErrors++
			l.mu.Unlock()
			continue
		}
		m, err := netmedium.Unmarshal(buf[:n])
		var pongErr error
		if err == nil && m.Type == netmedium.MsgPing {
			// Answer the hub's liveness sweep so an idle (suspended)
			// client is not evicted between frames.
			pongErr = netmedium.Pong(l.conn)
		}
		l.mu.Lock()
		switch {
		case err != nil:
			l.stats.BadPackets++
		case m.Type == netmedium.MsgPing && pongErr != nil:
			l.stats.WriteErrors++
		case m.Type == netmedium.MsgPing:
			l.stats.PingsAnswered++
		case m.Type == netmedium.MsgPong:
		case m.Type != netmedium.MsgFrame:
			l.stats.BadPackets++
		default:
			l.stats.FramesIn++
			if l.node != nil && !netmedium.Offer(l.inject, deliver(l.node, m)) {
				l.stats.Dropped++
			}
		}
		l.mu.Unlock()
	}
}

// Close shuts the link; Serve returns.
func (l *Link) Close() error { return l.conn.Close() }
