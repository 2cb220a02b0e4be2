// Package medium emulates a single 802.11 broadcast channel: frames
// transmitted by attached nodes are serialized (a simple FIFO
// approximation of CSMA/CA), take their real airtime at the chosen PHY
// rate, and are delivered to the addressed node — or to every other
// node for group-addressed frames. An optional fault.Plan perturbs
// deliveries (loss, bursty loss, corruption, duplication) to exercise
// retransmission and fail-safe paths.
//
// The medium reads each transmission once, into a Frame it owns: the
// frame's kind and, for a beacon, its in-place dot11.BeaconReading.
// Every receiver of the unchanged bytes is handed that one Frame, so a
// beacon heard by 200 stations is classified and read once, not 200
// times; a receiver whose copy a fault.Corrupt verdict garbled gets a
// Frame read from its own bytes.
//
// The medium runs on a sim.Engine virtual clock, so whole days of
// channel time simulate in milliseconds and runs are deterministic.
package medium

import (
	"fmt"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Node is anything attached to the medium. Receive is called once per
// delivered frame with the channel's reading of it and the delivery
// (end-of-airtime) virtual time. The Frame is shared by every receiver
// of the same bytes and is valid only during the call: a node never
// keeps it and never writes to it or through it (the immutable bytes
// in Raw may be kept).
type Node interface {
	Receive(f *Frame, at time.Duration)
}

// Frame is a delivered frame as the channel read it: the bytes, the
// PHY rate they were sent at, their kind and, when the frame is a
// beacon that reads, its in-place reading, whose slices alias Raw.
type Frame struct {
	Raw  []byte
	Rate dot11.Rate
	Kind dot11.FrameKind
	// Beacon holds the beacon reading when BeaconOK, which is true
	// exactly when dot11.ReadBeacon accepts Raw; otherwise it holds
	// nothing meaningful.
	Beacon   dot11.BeaconReading
	BeaconOK bool
}

// Read fills f with the reading of raw sent at rate: dot11.Classify
// for the kind and, for a beacon, dot11.ReadBeacon. It never writes
// raw, draws no randomness and allocates nothing. Channels call it
// once per transmission (the emulated medium) or per datagram (the UDP
// air link) before handing f to their nodes.
func (f *Frame) Read(raw []byte, rate dot11.Rate) {
	f.Raw, f.Rate = raw, rate
	f.Kind = dot11.Classify(raw)
	f.BeaconOK = f.Kind == dot11.KindBeacon && dot11.ReadBeacon(raw, &f.Beacon) == nil
}

// Channel is the transport surface the protocol entities (AP,
// stations) program against: the in-process emulated Medium implements
// it, and so does the UDP-backed air link used by the hided/hidec
// daemons — the same AP and station code runs over both.
type Channel interface {
	// Attach registers a node under its MAC address.
	Attach(addr dot11.MACAddr, n Node)
	// Transmit sends a frame; it returns the (estimated) delivery time.
	// The callee never keeps raw: the caller may overwrite it as soon
	// as Transmit returns, so senders encode every frame into one
	// reused buffer.
	Transmit(src dot11.MACAddr, raw []byte, rate dot11.Rate) time.Duration
}

// BlockChannel is a Channel that can register one node standing for a
// block of receivers — the transport surface cohort stations need. The
// emulated Medium implements it; the UDP-backed air link does not
// (cohorts are a simulation-scale construct).
type BlockChannel interface {
	Channel
	// AttachBlock registers n under base as a node standing for count
	// receivers. A group frame is delivered to n once and counted for
	// every member; unicast reaches n at base.
	AttachBlock(base dot11.MACAddr, count int, n Node) error
}

var (
	_ Channel      = (*Medium)(nil)
	_ BlockChannel = (*Medium)(nil)
)

// Medium is the emulated channel. Create with New.
type Medium struct {
	eng       *sim.Engine
	nodes     map[dot11.MACAddr]Node
	fanout    []fanoutEntry // precomputed broadcast delivery order (attach order)
	busyUntil time.Duration
	plan      fault.Plan
	rng       *sim.RNG

	// Stats counts medium activity.
	Stats Stats

	tap func(raw []byte, rate dot11.Rate, at time.Duration)
	obs func(src dot11.MACAddr, raw []byte, rate dot11.Rate, start, deliverAt time.Duration)

	txFree []*pendingTx // recycled in-flight transmission records

	// The readings deliveries hand their nodes, reused from one
	// transmission to the next: frame reads the bytes as transmitted,
	// garbled a receiver's corrupted copy.
	frame, garbled Frame
}

// fanoutEntry pairs an attached address with its node so group fan-out
// walks a flat slice instead of resolving each address through the map.
// count is the number of receivers the node stands for: 1 for a plain
// node, the block's width for AttachBlock.
type fanoutEntry struct {
	addr  dot11.MACAddr
	count int
	node  Node
}

// pendingTx carries one in-flight transmission from Transmit to its
// delivery event. Records are pooled: the frame buffer they reference is
// the single injection copy, shared (immutably) by every receiver.
type pendingTx struct {
	src   dot11.MACAddr
	frame []byte
	rate  dot11.Rate
	fire  sim.Event // delivers this record; bound once, when it is created
}

// Stats tallies channel activity.
type Stats struct {
	Transmissions int
	Deliveries    int
	Losses        int
	Corruptions   int
	Duplicates    int
	AirtimeBusy   time.Duration
}

// New creates a medium on the engine, timed by Table II's 802.11b
// channel (dot11.FrameAirtime, dot11.DIFS, dot11.PropagationDelay).
// seed drives the fault plan's draws.
func New(eng *sim.Engine, seed uint64) *Medium {
	m := &Medium{
		eng:   eng,
		nodes: make(map[dot11.MACAddr]Node),
		rng:   sim.NewRNG(seed),
	}
	return m
}

// SetFaultPlan installs the fault plan consulted once per (frame,
// receiver) delivery; nil restores the pristine channel. A nil plan
// consumes no randomness, so fault-free runs stay byte-identical to
// builds that predate the fault subsystem.
func (m *Medium) SetFaultPlan(p fault.Plan) { m.plan = p }

// SetTap installs a monitor callback invoked for every transmission at
// its start-of-airtime instant, regardless of addressing — the
// equivalent of a monitor-mode capture interface. A nil tap disables
// monitoring.
func (m *Medium) SetTap(tap func(raw []byte, rate dot11.Rate, at time.Duration)) {
	m.tap = tap
}

// SetTxObserver installs a source-aware transmission observer invoked
// once per Transmit with the sender address, the shared immutable frame
// copy, and the resolved start-of-airtime and delivery instants. Unlike
// the tap (a monitor-mode capture), the observer exists for execution
// machinery: the windowed-parallel runner uses it to harvest a window's
// transmissions for barrier replay on another medium. A nil observer
// disables it.
func (m *Medium) SetTxObserver(obs func(src dot11.MACAddr, raw []byte, rate dot11.Rate, start, deliverAt time.Duration)) {
	m.obs = obs
}

// InjectAt schedules a frame for delivery at an exact instant without
// occupying the channel: contention, busy time, and the transmission
// counter are untouched, because the frame already paid its airtime on
// the medium that originally carried it. The windowed-parallel runner
// uses it to mirror hub-side transmissions into group-local media at
// their recorded delivery times. The fault plan (and its RNG draws)
// still applies per receiver at delivery, exactly as for a native
// transmission. Unlike Transmit, the buffer is NOT copied — the caller
// must pass a frame that stays immutable until delivered (the observer
// hands out exactly such buffers), so mirroring one transmission into
// many groups shares a single copy. Injecting before the engine's
// current time is an error.
func (m *Medium) InjectAt(src dot11.MACAddr, raw []byte, rate dot11.Rate, deliverAt time.Duration) error {
	tx := m.allocTx()
	tx.src, tx.frame, tx.rate = src, raw, rate
	if _, err := m.eng.ScheduleAt(deliverAt, tx.fire); err != nil {
		tx.frame = nil
		m.txFree = append(m.txFree, tx)
		return err
	}
	return nil
}

// Attach registers a node under its MAC address. Attaching the same
// address twice replaces the previous node and keeps its original
// position in the broadcast delivery order.
func (m *Medium) Attach(addr dot11.MACAddr, n Node) {
	if _, ok := m.nodes[addr]; !ok {
		m.fanout = append(m.fanout, fanoutEntry{addr: addr, count: 1, node: n})
	} else {
		for i := range m.fanout {
			if m.fanout[i].addr == addr {
				m.fanout[i].node = n
				break
			}
		}
	}
	m.nodes[addr] = n
}

// AttachBlock registers n under base as a node standing for count
// receivers: group frames reach it once, judged by one fault verdict
// and counted for every member. count == 1 degenerates to Attach.
func (m *Medium) AttachBlock(base dot11.MACAddr, count int, n Node) error {
	if count < 1 {
		return fmt.Errorf("medium: block count %d < 1", count)
	}
	if count > dot11.MaxAddrBlock {
		return fmt.Errorf("medium: block count %d exceeds address space", count)
	}
	if count == 1 {
		m.Attach(base, n)
		return nil
	}
	if _, ok := m.nodes[base]; ok {
		return fmt.Errorf("medium: block base %v already attached", base)
	}
	m.fanout = append(m.fanout, fanoutEntry{addr: base, count: count, node: n})
	m.nodes[base] = n
	return nil
}

// Detach removes the entry registered at addr — a single-address node
// or a whole block based there — from the channel: it stops receiving
// frames and leaves the broadcast delivery order (later attachers take
// tail slots as usual). Detaching an unknown address is a no-op.
// Roaming clients use it when they leave one medium shard for another.
func (m *Medium) Detach(addr dot11.MACAddr) {
	if _, ok := m.nodes[addr]; !ok {
		return
	}
	for i := range m.fanout {
		if m.fanout[i].addr == addr {
			m.fanout = append(m.fanout[:i], m.fanout[i+1:]...)
			break
		}
	}
	delete(m.nodes, addr)
}

// Airtime returns the on-air duration of a frame of n bytes at rate,
// including the FCS the marshalled bytes omit.
func (m *Medium) Airtime(n int, rate dot11.Rate) time.Duration {
	return dot11.FrameAirtime(n+dot11.FCSLen, rate)
}

// Transmit queues a frame for transmission from src. If the channel is
// busy the transmission starts after the in-flight frame plus a DIFS
// (FIFO channel access — contention and collisions are abstracted away;
// the Bianchi model covers their effect on capacity analytically).
// Delivery callbacks fire at end of airtime. Transmit reports the
// delivery time.
func (m *Medium) Transmit(src dot11.MACAddr, raw []byte, rate dot11.Rate) time.Duration {
	start := m.eng.Now()
	if m.busyUntil > start {
		start = m.busyUntil + dot11.DIFS
	}
	air := m.Airtime(len(raw), rate)
	end := start + air + dot11.PropagationDelay
	m.busyUntil = start + air
	m.Stats.Transmissions++
	m.Stats.AirtimeBusy += air

	// The single copy on the frame's whole journey: the caller may reuse
	// its buffer, but from here every receiver shares this one buffer
	// immutably (the fault plan's Corrupt verdict is the only cloning
	// path; see deliverOne).
	frame := append([]byte(nil), raw...)
	if m.tap != nil {
		m.tap(frame, rate, start)
	}
	if m.obs != nil {
		m.obs(src, frame, rate, start, end)
	}
	tx := m.allocTx()
	tx.src, tx.frame, tx.rate = src, frame, rate
	m.eng.MustScheduleAt(end, tx.fire)
	return end
}

// allocTx takes a pendingTx from the free list or allocates one, with
// its delivery event: deliver the frame, then return the record to the
// free list.
func (m *Medium) allocTx() *pendingTx {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return tx
	}
	tx := new(pendingTx)
	tx.fire = func(now time.Duration) {
		m.deliver(tx.src, tx.frame, tx.rate, now)
		tx.frame = nil
		m.txFree = append(m.txFree, tx)
	}
	return tx
}

// deliver reads the frame once and routes that reading to its
// destination(s). The fault plan judges each receiver's copy by one
// Delivery built here, from the bytes as transmitted.
func (m *Medium) deliver(src dot11.MACAddr, raw []byte, rate dot11.Rate, now time.Duration) {
	dst, ok := dot11.Receiver(raw)
	if !ok {
		return
	}
	m.frame.Read(raw, rate)
	d := fault.Delivery{Raw: raw, Kind: m.frame.Kind, Src: src, Dst: dst, At: now}
	if dst.IsMulticast() {
		for i := 0; i < len(m.fanout); i++ {
			e := &m.fanout[i]
			if e.addr == src {
				continue
			}
			d.Rcv = e.addr
			m.deliverOne(e.node, e.count, &d)
		}
		return
	}
	if n, ok := m.nodes[dst]; ok {
		d.Rcv = dst
		m.deliverOne(n, 1, &d)
	}
}

// deliverOne hands the frame's reading to one node under the fault
// plan's outcome for delivery d, with the stats counted for the
// members the node stands for: a block takes one verdict for all its
// members. A corrupted delivery gets its own garbled copy, read on its
// own; other receivers keep the original bytes and their reading, as
// with independent radios on a shared channel.
func (m *Medium) deliverOne(n Node, members int, d *fault.Delivery) {
	o := fault.Outcome{Byte: -1}
	if m.plan != nil {
		o = fault.Judge(m.plan, *d, m.rng)
	}
	if o.Drop {
		m.Stats.Losses += members
		return
	}
	f := &m.frame
	if o.Corrupt {
		c := append([]byte(nil), d.Raw...)
		c[o.Byte] ^= 0xff
		f = &m.garbled
		f.Read(c, m.frame.Rate)
		m.Stats.Corruptions += members
	}
	if o.Duplicate {
		m.Stats.Duplicates += members
		m.Stats.Deliveries += members
		n.Receive(f, d.At)
	}
	m.Stats.Deliveries += members
	n.Receive(f, d.At)
}
