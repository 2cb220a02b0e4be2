// Package medium emulates a single 802.11 broadcast channel: frames
// transmitted by attached nodes are serialized (a simple FIFO
// approximation of CSMA/CA), take their real airtime at the chosen PHY
// rate, and are delivered to the addressed node — or to every other
// node for group-addressed frames. An optional fault.Plan perturbs
// deliveries (loss, bursty loss, corruption, duplication) to exercise
// retransmission and fail-safe paths.
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
// delivered frame with the raw bytes, the PHY rate it was sent at, and
// the delivery (end-of-airtime) virtual time.
type Node interface {
	Receive(raw []byte, rate dot11.Rate, at time.Duration)
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

// BlockChannel is a Channel that can register one node as a contiguous
// block of member addresses — the transport surface cohort stations
// need. The emulated Medium implements it; the UDP-backed air link does
// not (cohorts are a simulation-scale construct).
type BlockChannel interface {
	Channel
	// AttachBlock registers n under count consecutive addresses starting
	// at base (dot11.AddrAdd order). A group frame is delivered to n
	// once, standing for all members; a unicast to any member address
	// routes to n.
	AttachBlock(base dot11.MACAddr, count int, n Node) error
	// SplitBlock carves members [at, count) of the block based at base
	// into a separate block registered under n, placed directly after
	// the shrunk block in the delivery order — indistinguishable from
	// two blocks attached consecutively at setup.
	SplitBlock(base dot11.MACAddr, at int, n Node) error
}

// BlockSplitter is implemented by nodes attached with AttachBlock whose
// members can diverge: SplitTail detaches members [at, count) into a
// new node and returns it. The medium calls it mid-delivery when a
// fault plan's verdicts differ across a block's members, so each
// maximal run of identically-treated members keeps exactly one node.
type BlockSplitter interface {
	Node
	SplitTail(at int) Node
}

// RoutedNode is an optional Node extension for nodes that stand for
// several addresses (blocks). The medium prefers ReceiveAs over
// Receive and passes the address it ROUTED the frame to: the original
// group address for a fan-out delivery, the original unicast target
// otherwise. A node standing for many members cannot recover that from
// the frame itself once a fault verdict has corrupted the address
// bytes — a real receiver tuned to the destination before the bits
// were damaged, so routing must not re-derive it from damaged bytes.
type RoutedNode interface {
	Node
	ReceiveAs(to dot11.MACAddr, raw []byte, rate dot11.Rate, at time.Duration)
}

var (
	_ Channel      = (*Medium)(nil)
	_ BlockChannel = (*Medium)(nil)
)

// Medium is the emulated channel. Create with New.
type Medium struct {
	eng       *sim.Engine
	phy       dot11.PHY
	nodes     map[dot11.MACAddr]Node
	fanout    []fanoutEntry // precomputed broadcast delivery order (attach order)
	busyUntil time.Duration
	plan      fault.Plan
	rng       *sim.RNG

	// Stats counts medium activity.
	Stats Stats

	tap func(raw []byte, rate dot11.Rate, at time.Duration)
	obs func(src dot11.MACAddr, raw []byte, rate dot11.Rate, start, deliverAt time.Duration)

	deliverFn sim.ArgEvent    // bound once; avoids a closure per Transmit
	txFree    []*pendingTx    // recycled in-flight transmission records
	outcomes  []fault.Outcome // scratch for per-member block outcomes
}

// fanoutEntry pairs an attached address with its node so group fan-out
// walks a flat slice instead of resolving each address through the map.
// A count > 1 marks a block entry (AttachBlock): one node standing for
// count members at consecutive addresses from addr.
type fanoutEntry struct {
	addr  dot11.MACAddr
	count int // members covered; <= 1 means a plain single-address node
	node  Node
}

// pendingTx carries one in-flight transmission from Transmit to its
// delivery event. Records are pooled: the frame buffer they reference is
// the single injection copy, shared (immutably) by every receiver.
type pendingTx struct {
	src   dot11.MACAddr
	frame []byte
	rate  dot11.Rate
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

// New creates a medium on the engine with the given PHY parameters.
func New(eng *sim.Engine, phy dot11.PHY, seed uint64) *Medium {
	m := &Medium{
		eng:   eng,
		phy:   phy,
		nodes: make(map[dot11.MACAddr]Node),
		rng:   sim.NewRNG(seed),
	}
	m.deliverFn = m.deliverEvent
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
	if _, err := m.eng.ScheduleArgAt(deliverAt, m.deliverFn, tx); err != nil {
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
		m.fanout = append(m.fanout, fanoutEntry{addr: addr, node: n})
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

// AttachBlock registers n as a block of count members at consecutive
// addresses starting at base. The base address lands in the unicast
// map; other member addresses resolve by block membership. count == 1
// degenerates to Attach.
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

// SplitBlock implements BlockChannel: members [at, count) of the block
// based at base re-register under n, directly after the shrunk block in
// the delivery order.
func (m *Medium) SplitBlock(base dot11.MACAddr, at int, n Node) error {
	for i := range m.fanout {
		e := &m.fanout[i]
		if e.addr != base || e.count <= 1 {
			continue
		}
		if at < 1 || at >= e.count {
			return fmt.Errorf("medium: split at %d outside block of %d", at, e.count)
		}
		m.splitEntryAt(i, at, n)
		return nil
	}
	return fmt.Errorf("medium: no block based at %v", base)
}

// splitEntryAt shrinks the block entry at index i to its first at
// members and inserts a new entry for the tail — node n under the
// tail's base address — immediately after it, preserving member order
// in the group delivery walk. It returns the index of the new entry.
func (m *Medium) splitEntryAt(i, at int, n Node) int {
	e := &m.fanout[i]
	tail := fanoutEntry{addr: dot11.AddrAdd(e.addr, at), count: e.count - at, node: n}
	e.count = at
	m.fanout = append(m.fanout, fanoutEntry{})
	copy(m.fanout[i+2:], m.fanout[i+1:])
	m.fanout[i+1] = tail
	m.nodes[tail.addr] = n
	return i + 1
}

// Detach removes the entry registered at addr — a single-address node
// or a whole block based there — from the channel: it stops receiving
// frames and leaves the broadcast delivery order (later attachers take
// tail slots as usual). Detaching an unknown address is a no-op.
// Roaming clients use it when they leave one medium shard for another;
// a split block's segments detach individually by their own base.
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

// PHY returns the channel's PHY parameters.
func (m *Medium) PHY() dot11.PHY { return m.phy }

// Airtime returns the on-air duration of a frame of n bytes at rate,
// including the FCS the marshalled bytes omit.
func (m *Medium) Airtime(n int, rate dot11.Rate) time.Duration {
	return m.phy.FrameAirtime(n+dot11.FCSLen, rate)
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
		start = m.busyUntil + m.phy.DIFS
	}
	air := m.Airtime(len(raw), rate)
	end := start + air + m.phy.PropagationDelay
	m.busyUntil = start + air
	m.Stats.Transmissions++
	m.Stats.AirtimeBusy += air

	// The single copy on the frame's whole journey: the caller may reuse
	// its buffer, but from here every receiver shares this one buffer
	// immutably (the fault plan's Corrupt verdict is the only cloning
	// path; see applyVerdict).
	frame := append([]byte(nil), raw...)
	if m.tap != nil {
		m.tap(frame, rate, start)
	}
	if m.obs != nil {
		m.obs(src, frame, rate, start, end)
	}
	tx := m.allocTx()
	tx.src, tx.frame, tx.rate = src, frame, rate
	m.eng.MustScheduleArgAt(end, m.deliverFn, tx)
	return end
}

// allocTx takes a pendingTx from the free list or allocates one.
func (m *Medium) allocTx() *pendingTx {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return tx
	}
	return new(pendingTx)
}

// deliverEvent is the bound ArgEvent for scheduled deliveries.
func (m *Medium) deliverEvent(now time.Duration, arg any) {
	tx := arg.(*pendingTx)
	m.deliver(tx.src, tx.frame, tx.rate, now)
	tx.frame = nil
	m.txFree = append(m.txFree, tx)
}

// deliver routes the frame to its destination(s). Block entries may
// split mid-walk (divergent fault verdicts), so the group loop indexes
// the fanout slice and skips the entries a block delivery consumed.
// With a fault plan set, the frame is classified once here, from the
// bytes as transmitted, for every receiver's verdict.
func (m *Medium) deliver(src dot11.MACAddr, raw []byte, rate dot11.Rate, now time.Duration) {
	dst, ok := dot11.Receiver(raw)
	if !ok {
		return
	}
	var kind dot11.FrameKind
	if m.plan != nil {
		kind = dot11.Classify(raw)
	}
	if dst.IsMulticast() {
		for i := 0; i < len(m.fanout); i++ {
			if m.fanout[i].addr == src {
				continue
			}
			if m.fanout[i].count > 1 {
				i += m.deliverBlock(i, src, dst, raw, kind, rate, now) - 1
				continue
			}
			e := &m.fanout[i]
			m.deliverOne(e.node, e.addr, src, dst, raw, kind, rate, now)
		}
		return
	}
	if n, ok := m.nodes[dst]; ok {
		m.deliverOne(n, dst, src, dst, raw, kind, rate, now)
		return
	}
	// Not a registered address: it may be a non-base member of a block.
	for i := range m.fanout {
		e := &m.fanout[i]
		if e.count <= 1 {
			continue
		}
		if off, ok := dot11.AddrOffset(e.addr, dst); ok && off < e.count {
			m.deliverOne(e.node, dst, src, dst, raw, kind, rate, now)
			return
		}
	}
}

// deliverBlock hands a group frame to the block entry at index i —
// once per maximal run of identically-treated members rather than once
// per member. With no fault plan that is a single Receive standing for
// the whole block. With a plan, verdicts (and corruption byte draws)
// are taken per member in member order — the exact RNG consumption of
// an expanded per-member walk — and divergent runs split the block
// lazily via BlockSplitter. It returns the number of fanout entries
// that now cover the original block.
//
// A block node may also split ITSELF during its Receive (SplitBlock
// from inside the callback — cohorts do this when a group frame lands
// mid-handshake); the contract is that such a node delivers the
// in-flight frame to the carved tail itself, so entries inserted during
// a delivery are counted as consumed and not visited again.
func (m *Medium) deliverBlock(i int, src, dst dot11.MACAddr, raw []byte, kind dot11.FrameKind, rate dot11.Rate, now time.Duration) int {
	count := m.fanout[i].count
	if m.plan == nil {
		m.Stats.Deliveries += count
		pre := len(m.fanout)
		handTo(m.fanout[i].node, dst, raw, rate, now)
		return 1 + len(m.fanout) - pre
	}

	// Per-member judgement pass, in member order like the expanded
	// walk. Members with equal outcomes are indistinguishable and stay
	// folded in one block.
	m.outcomes = m.outcomes[:0]
	base := m.fanout[i].addr
	for k := 0; k < count; k++ {
		m.outcomes = append(m.outcomes, fault.Judge(m.plan, fault.Delivery{
			Raw: raw, Kind: kind,
			Src: src, Dst: dst, Rcv: dot11.AddrAdd(base, k), At: now,
		}, m.rng))
	}

	// Walk maximal runs of equal treatment. A run that does not reach
	// the block's end splits the tail off FIRST — before the run's own
	// delivery — so the tail node's clone never sees a frame its
	// members' verdicts withheld; then the isolated head run receives
	// under its uniform verdict. A node that cannot split falls back to
	// one delivery per member.
	consumed := 1
	cur := i // entry covering members [lo, count) at loop top
	for lo := 0; lo < count; {
		hi := lo + 1
		for hi < count && m.outcomes[hi] == m.outcomes[lo] {
			hi++
		}
		if hi < count {
			sp, ok := m.fanout[cur].node.(BlockSplitter)
			if !ok {
				// No split support: deliver the rest member-by-member to
				// the same node, preserving per-member stats.
				for k := lo; k < count; k++ {
					m.applyVerdict(m.fanout[cur].node, dst, m.outcomes[k], 1, raw, rate, now)
				}
				return consumed
			}
			tail := sp.SplitTail(hi - lo)
			next := m.splitEntryAt(cur, hi-lo, tail)
			pre := len(m.fanout)
			m.applyVerdict(m.fanout[cur].node, dst, m.outcomes[lo], hi-lo, raw, rate, now)
			ins := len(m.fanout) - pre // self-splits during the delivery
			cur = next + ins
			consumed += 1 + ins
		} else {
			pre := len(m.fanout)
			m.applyVerdict(m.fanout[cur].node, dst, m.outcomes[lo], hi-lo, raw, rate, now)
			consumed += len(m.fanout) - pre
		}
		lo = hi
	}
	return consumed
}

// applyVerdict delivers a frame to a node under one judged outcome,
// scaling the stats by the member count the node stands for. A
// corrupted run's members share one garbled copy: their corruption
// byte draws were equal, or they would not be in the same run. Other
// receivers keep the original bytes, as with independent radios on a
// shared channel.
func (m *Medium) applyVerdict(n Node, to dot11.MACAddr, o fault.Outcome, members int, raw []byte, rate dot11.Rate, now time.Duration) {
	if o.Drop {
		m.Stats.Losses += members
		return
	}
	if o.Corrupt {
		c := append([]byte(nil), raw...)
		c[o.Byte] ^= 0xff
		raw = c
		m.Stats.Corruptions += members
	}
	if o.Duplicate {
		m.Stats.Duplicates += members
		m.Stats.Deliveries += members
		handTo(n, to, raw, rate, now)
	}
	m.Stats.Deliveries += members
	handTo(n, to, raw, rate, now)
}

// handTo performs the final hand-off of a delivery to a node. Nodes
// standing for several addresses (RoutedNode) are told the address the
// medium routed the frame to — the pre-fault destination, trustworthy
// even when a Corrupt verdict garbled the frame's own address bytes.
// Plain nodes just get the frame; a single station never needs the
// routing (its handlers mirror a real receiver, which tuned to the
// frame before any bits were damaged).
func handTo(n Node, to dot11.MACAddr, raw []byte, rate dot11.Rate, now time.Duration) {
	if rn, ok := n.(RoutedNode); ok {
		rn.ReceiveAs(to, raw, rate, now)
		return
	}
	n.Receive(raw, rate, now)
}

// deliverOne hands the frame to one node under the fault plan's
// outcome for this (frame, receiver) pair.
func (m *Medium) deliverOne(n Node, rcv, src, dst dot11.MACAddr, raw []byte, kind dot11.FrameKind, rate dot11.Rate, now time.Duration) {
	o := fault.Outcome{Byte: -1}
	if m.plan != nil {
		o = fault.Judge(m.plan, fault.Delivery{
			Raw: raw, Kind: kind,
			Src: src, Dst: dst, Rcv: rcv, At: now,
		}, m.rng)
	}
	m.applyVerdict(n, dst, o, 1, raw, rate, now)
}
