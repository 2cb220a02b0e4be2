// Package netmedium exposes a running protocol simulation on the
// network: a UDP service that streams every frame on the emulated
// channel to subscribed "monitor mode" taps, and accepts remote
// injection of broadcast traffic into the AP — the observability and
// drive interfaces a deployed simulator offers so external tools
// (dashboards, traffic replayers, other processes) can participate
// without linking the simulator in.
//
// Wire protocol (binary, little-endian, one message per datagram):
//
//	offset  size  field
//	0       2     magic 0x1DE5
//	2       1     version (1)
//	3       1     type
//	4       8     virtual timestamp, nanoseconds
//	12      8     PHY rate, bits/s (float64 bits)
//	20      2     payload length n
//	22      n     payload
//
// Types: Subscribe (payload empty), Unsubscribe (empty), Frame (payload
// is the raw 802.11 frame; server→tap only), Inject (payload is a
// 4-byte header: dst UDP port (2) + frame payload size (2); tap→server
// only), and Pong/Ping for liveness.
//
// The package also holds what both UDP servers of the live runtime
// share: the codec, which internal/airlink reuses for its virtual air;
// Endpoint, the one datagram loop, with Peers, its ordered ping/pong
// liveness table under one sweep and one eviction rule; Offer, the one
// non-blocking hand-off onto an engine; and Pong, the clients' one
// answer to a ping.
package netmedium

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// Wire protocol constants.
const (
	protoMagic   uint16 = 0x1de5
	protoVersion byte   = 1

	headerLen   = 22
	maxFrameLen = 4096

	// MaxDatagram sizes a read buffer one byte past the longest valid
	// message, so a longer datagram reads as too long, not truncated.
	MaxDatagram = headerLen + maxFrameLen + 1
)

// MsgType enumerates protocol message types.
type MsgType byte

// Message types.
const (
	MsgSubscribe MsgType = iota + 1
	MsgUnsubscribe
	MsgFrame
	MsgInject
	MsgPing
	MsgPong
)

// Message is one decoded protocol message.
type Message struct {
	Type    MsgType
	At      time.Duration // virtual time
	Rate    dot11.Rate
	Payload []byte
}

// Marshal encodes the message into a datagram.
func (m Message) Marshal() ([]byte, error) {
	if len(m.Payload) > maxFrameLen {
		return nil, fmt.Errorf("netmedium: payload %d exceeds %d", len(m.Payload), maxFrameLen)
	}
	return m.encode(), nil
}

// pingMsg and pongMsg are the liveness datagrams, encoded once.
var pingMsg, pongMsg = Message{Type: MsgPing}.encode(), Message{Type: MsgPong}.encode()

// encode is Marshal for a payload known to fit.
func (m Message) encode() []byte {
	out := make([]byte, headerLen+len(m.Payload))
	binary.LittleEndian.PutUint16(out[0:2], protoMagic)
	out[2] = protoVersion
	out[3] = byte(m.Type)
	binary.LittleEndian.PutUint64(out[4:12], uint64(m.At.Nanoseconds()))
	binary.LittleEndian.PutUint64(out[12:20], math.Float64bits(float64(m.Rate)))
	binary.LittleEndian.PutUint16(out[20:22], uint16(len(m.Payload)))
	copy(out[headerLen:], m.Payload)
	return out
}

// ErrBadMessage reports a malformed datagram.
var ErrBadMessage = errors.New("netmedium: malformed message")

// Unmarshal decodes a datagram.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	if len(b) < headerLen {
		return m, fmt.Errorf("%w: %d bytes", ErrBadMessage, len(b))
	}
	if binary.LittleEndian.Uint16(b[0:2]) != protoMagic {
		return m, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if b[2] != protoVersion {
		return m, fmt.Errorf("%w: version %d", ErrBadMessage, b[2])
	}
	m.Type = MsgType(b[3])
	m.At = time.Duration(binary.LittleEndian.Uint64(b[4:12]))
	m.Rate = dot11.Rate(math.Float64frombits(binary.LittleEndian.Uint64(b[12:20])))
	n := int(binary.LittleEndian.Uint16(b[20:22]))
	if n > maxFrameLen {
		return m, fmt.Errorf("%w: declared %d payload bytes exceeds %d", ErrBadMessage, n, maxFrameLen)
	}
	if len(b) != headerLen+n {
		return m, fmt.Errorf("%w: declared %d payload bytes, have %d", ErrBadMessage, n, len(b)-headerLen)
	}
	m.Payload = append([]byte(nil), b[headerLen:]...)
	return m, nil
}

// InjectRequest is the payload of an Inject message.
type InjectRequest struct {
	DstPort     uint16
	PayloadSize uint16
}

// marshalInject encodes an inject payload.
func (r InjectRequest) marshal() []byte {
	out := make([]byte, 4)
	binary.LittleEndian.PutUint16(out[0:2], r.DstPort)
	binary.LittleEndian.PutUint16(out[2:4], r.PayloadSize)
	return out
}

// parseInject decodes an inject payload.
func parseInject(b []byte) (InjectRequest, error) {
	if len(b) != 4 {
		return InjectRequest{}, fmt.Errorf("%w: inject payload %d bytes", ErrBadMessage, len(b))
	}
	return InjectRequest{
		DstPort:     binary.LittleEndian.Uint16(b[0:2]),
		PayloadSize: binary.LittleEndian.Uint16(b[2:4]),
	}, nil
}

// Stats counts server activity. Peers counts the subscribed taps.
type Stats struct {
	EndpointStats
	FramesSent int
	Injects    int
}

// maxMissedPings is the default for how many consecutive sweeps a
// peer may leave unanswered before the next one evicts it
// (configurable per server via SetLiveness). A peer that crashed
// without saying goodbye would otherwise be sent every frame forever.
const maxMissedPings = 3

// Server relays monitor frames to taps and inject requests into the
// simulation. It is safe for concurrent use: Publish and PingPeers are
// called from the simulation loop while Serve reads the socket. Any
// message from a subscriber — a Pong, an Inject, even a fresh
// Subscribe — resets its liveness count.
type Server struct {
	Endpoint[netip.AddrPort] // taps, keyed by their own address

	mu     sync.Mutex // guards the endpoint and counts
	apply  func(InjectRequest)
	counts Stats // the server's own; Stats fills in EndpointStats
}

// NewServer wraps a packet connection. apply carries out a valid
// inject request on the engine: Serve offers the event that calls it
// to inject (Offer). A nil apply disables injection.
func NewServer(pc net.PacketConn, inject chan<- sim.Event, apply func(InjectRequest)) *Server {
	s := &Server{apply: apply}
	s.Endpoint = NewEndpoint[netip.AddrPort](pc, &s.mu, inject, s.handle)
	return s
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.counts
	s.mu.Unlock()
	st.EndpointStats = s.Endpoint.Stats()
	return st
}

// handle applies one message of the server's own types from a tap.
func (s *Server) handle(m Message, from netip.AddrPort) (sim.Event, bool) {
	switch m.Type {
	case MsgSubscribe:
		s.peers.Learn(from, from)
	case MsgUnsubscribe:
		s.peers.Remove(from)
	case MsgInject:
		req, err := parseInject(m.Payload)
		if err != nil {
			return nil, false
		}
		s.counts.Injects++
		s.peers.Touch(from)
		if apply := s.apply; apply != nil {
			return func(time.Duration) { apply(req) }, true
		}
	default:
		return nil, false
	}
	return nil, true
}

// Publish streams one monitor frame to every subscriber, in
// subscription order. A tap that cannot be reached is left to the
// liveness sweep.
func (s *Server) Publish(raw []byte, rate dot11.Rate, at time.Duration) {
	if len(raw) > maxFrameLen {
		return
	}
	msg, err := Message{Type: MsgFrame, At: at, Rate: rate, Payload: raw}.Marshal()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers.Each(func(_, addr netip.AddrPort) {
		if s.Send(msg, addr) == nil {
			s.counts.FramesSent++
		}
	})
}

// AddrPortOf returns a datagram's UDP source address as the
// netip.AddrPort the peer tables key on (the zero AddrPort for an
// address that is not UDP).
func AddrPortOf(a net.Addr) netip.AddrPort {
	u, _ := a.(*net.UDPAddr)
	return u.AddrPort()
}

// Tap is a monitor-mode subscriber.
type Tap struct {
	conn net.Conn
	buf  []byte // Next's; Unmarshal copies each payload out
}

// FrameEvent is one frame observed by a tap.
type FrameEvent struct {
	At   time.Duration
	Rate dot11.Rate
	Raw  []byte
}

// Dial connects a tap to a server and subscribes.
func Dial(addr string) (*Tap, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netmedium: dialing server: %w", err)
	}
	t := &Tap{conn: conn, buf: make([]byte, MaxDatagram)}
	msg, err := Message{Type: MsgSubscribe}.Marshal()
	if err != nil {
		//lint:ignore errdrop close error is moot once subscribing has failed
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(msg); err != nil {
		//lint:ignore errdrop close error is moot once subscribing has failed
		conn.Close()
		return nil, fmt.Errorf("netmedium: subscribing: %w", err)
	}
	return t, nil
}

// Next blocks for the next frame event, bounded by the deadline. Calls
// must not overlap: they share the tap's read buffer.
func (t *Tap) Next(deadline time.Time) (FrameEvent, error) {
	if err := t.conn.SetReadDeadline(deadline); err != nil {
		return FrameEvent{}, err
	}
	for {
		n, err := t.conn.Read(t.buf)
		if err != nil {
			return FrameEvent{}, err
		}
		m, err := Unmarshal(t.buf[:n])
		if err != nil {
			continue
		}
		if m.Type == MsgPing {
			// Answer the server's liveness sweep so the tap is not
			// evicted while idling between frames.
			//lint:ignore errdrop best-effort pong; a missed reply costs one sweep
			_ = Pong(t.conn)
			continue
		}
		if m.Type != MsgFrame {
			continue
		}
		return FrameEvent{At: m.At, Rate: m.Rate, Raw: m.Payload}, nil
	}
}

// Inject asks the server to enqueue a broadcast UDP frame.
func (t *Tap) Inject(req InjectRequest) error {
	msg, err := Message{Type: MsgInject, Payload: req.marshal()}.Marshal()
	if err != nil {
		return err
	}
	_, err = t.conn.Write(msg)
	return err
}

// Close unsubscribes and closes the tap.
func (t *Tap) Close() error {
	if msg, err := (Message{Type: MsgUnsubscribe}).Marshal(); err == nil {
		//lint:ignore errdrop best-effort unsubscribe; the server also times taps out
		_, _ = t.conn.Write(msg)
	}
	return t.conn.Close()
}
