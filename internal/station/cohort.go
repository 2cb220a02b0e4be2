// Cohort stations fold N identical clients into one scheduled entity.
//
// The fold is exact, not an approximation: members share the same
// mode, open-port set, listen interval, and join instant, so every
// member's protocol state advances identically — the BTIM/TIM bit for
// member k is set exactly when member 0's is, the arrival log (data
// frames only) is identical per member, and the Section IV energy
// model therefore prices every member bit-identically. One template
// Station carries the shared state; transmissions fan out per member
// (patching only the transmitter address), so the frame stream on the
// medium is byte-identical to N individually-modeled stations. When
// members diverge — a fault plan hitting a subset — the cohort splits
// lazily at the divergence boundary (see DESIGN §9).
package station

import (
	"fmt"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/medium"
	"repro/internal/sim"
)

// CohortConfig configures a cohort: the embedded Config describes the
// first member (the template); the other members' MAC addresses follow
// consecutively (dot11.AddrAdd) and their AIDs are expected to form a
// contiguous block (ap.AssociateCohort).
type CohortConfig struct {
	Config
	// Count is the number of members the cohort stands for.
	Count int
	// Aggregate selects the beyond-AID-space regime: the cohort
	// transmits one representative frame instead of fanning a copy per
	// member, and energy aggregates by Breakdown.Scale instead of
	// per-member byte-identity. Required when Count exceeds the AID
	// space (dot11.MaxAID); the million-client scale runs use it.
	Aggregate bool
}

// CohortStats counts cohort-specific bookkeeping: unicast copies
// addressed to members past the template. Those copies mirror the
// template's own (the AP answers each fanned port message with its own
// ACK), so they are counted rather than re-processed.
type CohortStats struct {
	// MemberACKs counts ACK frames addressed to members 1..Count-1.
	MemberACKs int
	// MemberUnicast counts any other unicast frame addressed to members
	// 1..Count-1 — per-member unicast data is outside the
	// identical-member regime and is dropped here.
	MemberUnicast int
}

// CohortStation models Count identical stations as one medium node and
// one event-loop participant. Create with NewCohort, associate the
// member block via ap.AssociateCohort (or AssociateAggregate), then
// JoinBlock with the first AID of the block.
type CohortStation struct {
	eng       *sim.Engine
	med       medium.BlockChannel
	tmpl      *Station
	base      dot11.MACAddr
	count     int
	aggregate bool
	txBuf     []byte // reused per-member transmit copy
	cstats    CohortStats

	// Handshake watch (exact regime): the AP ACKs the fanned UDP Port
	// Messages serially, so tail members' ACKs can lag the template's
	// own (always-first) ACK — past a beacon, past the timeout. Each
	// round captures a live shadow of the template holding the unacked
	// members' state; when the acked prefix diverges from the rest (a
	// group frame mid-round, or the ACK deadline), the unacked tail
	// splits off in the shadow's state, exactly as the expanded members
	// would have evolved.
	ackSnap       *Station   // shadow of the round's unacked members (see shadowTemplate)
	acked         int        // member ACKs seen this round (they arrive in member order)
	checkEv       sim.Handle // pending deadline check
	ackDeadlineFn sim.Event  // bound once, like Station's event funcs

	// next links cohorts carved off this one, in member order, so the
	// original handle still reaches every member after splits
	// (Segments walks the chain).
	next *CohortStation
}

var (
	_ medium.Node          = (*CohortStation)(nil)
	_ medium.BlockSplitter = (*CohortStation)(nil)
	_ medium.RoutedNode    = (*CohortStation)(nil)
)

// cohortFan is the channel shim handed to the template Station: its
// Attach is a no-op (the cohort attaches itself as a block) and its
// Transmit fans the template's frame out per member.
type cohortFan struct{ c *CohortStation }

func (f cohortFan) Attach(dot11.MACAddr, medium.Node) {}

func (f cohortFan) Transmit(src dot11.MACAddr, raw []byte, rate dot11.Rate) time.Duration {
	return f.c.fanTransmit(raw, rate)
}

// NewCohort creates a cohort of cfg.Count members attached to the
// medium as one address block based at cfg.Addr.
func NewCohort(eng *sim.Engine, med medium.BlockChannel, cfg CohortConfig) (*CohortStation, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("station: cohort count %d < 1", cfg.Count)
	}
	lo := uint64(cfg.Addr[3])<<16 | uint64(cfg.Addr[4])<<8 | uint64(cfg.Addr[5])
	if lo+uint64(cfg.Count)-1 >= dot11.MaxAddrBlock {
		return nil, fmt.Errorf("station: cohort of %d members from %v wraps the address block", cfg.Count, cfg.Addr)
	}
	c := &CohortStation{
		eng:       eng,
		med:       med,
		base:      cfg.Addr,
		count:     cfg.Count,
		aggregate: cfg.Aggregate,
	}
	c.tmpl = New(eng, cohortFan{c}, cfg.Config)
	c.watchHandshake()
	if err := med.AttachBlock(cfg.Addr, cfg.Count, c); err != nil {
		return nil, err
	}
	return c, nil
}

// watchHandshake arms the ACK-deadline watch on multi-member exact
// cohorts (the regimes it guards; see CohortStation's field comment).
func (c *CohortStation) watchHandshake() {
	c.ackDeadlineFn = c.ackDeadline
	if !c.aggregate && c.count > 1 {
		c.tmpl.ackArm = c.ackArmed
	}
}

// ackArmed snapshots the template at the start of a handshake round
// and schedules the deadline check. It runs from sendPortMessage right
// after the template armed its own ACK timer, so at the deadline the
// template's timer (if still pending — no ACKs at all) fires first and
// retries the whole cohort; the check then finds a fresh round.
func (c *CohortStation) ackArmed(deadline time.Duration) {
	if c.aggregate || c.count <= 1 {
		return
	}
	c.ackSnap = c.shadowTemplate()
	c.acked = 0
	c.checkEv.Cancel()
	c.checkEv = c.eng.MustScheduleAt(deadline, c.ackDeadlineFn)
}

// sinkChannel is the medium handed to shadow stations. A shadow only
// mirrors received group traffic; its awaiting-ACK guard keeps it from
// ever transmitting, so the channel is never legitimately used.
type sinkChannel struct{}

func (sinkChannel) Attach(dot11.MACAddr, medium.Node) {}

func (sinkChannel) Transmit(dot11.MACAddr, []byte, dot11.Rate) time.Duration { return 0 }

// shadowOf captures a station's state as a live shadow: a detached
// copy that keeps processing the round's group stream in lockstep with
// the folded members (Receive is fanned to it while the round is
// open), so at any split instant it holds exactly the state an
// expanded unacked member would — arrivals, wakelocks, and a mirrored
// pending suspend check included. Its awaitingACK flag stays set for
// its whole life, so its own timers reduce to no-ops and it never
// transmits.
func shadowOf(src *Station) *Station {
	sh := src.snapshot()
	sh.med = sinkChannel{}
	sh.trySuspendFn = sh.trySuspend
	sh.ackTimeoutFn = sh.ackTimeout
	if src.suspendEv.Pending() {
		sh.suspendEv = sh.eng.MustScheduleAt(src.suspendEv.At(), sh.trySuspendFn)
	}
	return sh
}

// shadowTemplate shadows the template at the start of a handshake
// round.
func (c *CohortStation) shadowTemplate() *Station { return shadowOf(c.tmpl) }

// ackDeadline fires at the round's ACK deadline: members beyond the
// acked prefix missed it (their retransmission is due NOW, exactly
// when the expanded members' own timers would fire), so they split off
// in the round's pre-ACK state and walk the timeout path. acked == 0
// means the template itself timed out and already refanned the round
// for every member; acked == count means the round completed.
func (c *CohortStation) ackDeadline(now time.Duration) {
	snap := c.ackSnap
	c.ackSnap = nil
	if snap == nil || c.acked <= 0 || c.acked >= c.count {
		return
	}
	at := c.acked
	nc := c.adoptTail(at, snap)
	if err := c.med.SplitBlock(c.base, at, nc); err != nil {
		// The block was attached with the pre-split width; the split
		// index came from the ACK prefix, so failure is a bug.
		panic(fmt.Sprintf("station: handshake split: %v", err))
	}
	c.count = at
	nc.tmpl.ackTimeout(now)
}

// splitMidRound handles a group frame landing inside a partially-ACKed
// handshake round: the acked prefix has moved on (port state synced,
// possibly suspended and now woken) while the tail still awaits its
// ACK, so the halves process the frame from different states and must
// diverge. The tail splits off in the round's pre-ACK snapshot with the
// round's ACK timer still pending, the frame is delivered to both
// halves (the medium's delivery walk skips entries inserted
// mid-delivery; see Medium.deliverBlock), and the tail re-freezes its
// post-frame state to keep watching the same deadline. Reports whether
// it consumed the frame.
func (c *CohortStation) splitMidRound(raw []byte, rate dot11.Rate, now time.Duration) bool {
	if c.ackSnap == nil || c.acked <= 0 || c.acked >= c.count {
		return false
	}
	snap, deadline := c.ackSnap, c.checkEv.At()
	c.ackSnap = nil
	c.checkEv.Cancel()
	at := c.acked
	nc := c.adoptTail(at, snap)
	nc.tmpl.ackTimer = nc.eng.MustScheduleAt(deadline, nc.tmpl.ackTimeoutFn)
	if err := c.med.SplitBlock(c.base, at, nc); err != nil {
		panic(fmt.Sprintf("station: mid-round split: %v", err))
	}
	c.count = at
	c.tmpl.Receive(raw, rate, now)
	nc.tmpl.Receive(raw, rate, now)
	nc.ackSnap = nc.shadowTemplate()
	nc.acked = 0
	nc.checkEv = nc.eng.MustScheduleAt(deadline, nc.ackDeadlineFn)
	return true
}

// adoptTail carves members [at, count) into a new cohort built from a
// frozen template snapshot (compare splitTail, which clones the LIVE
// template for mid-delivery divergence). The caller registers nc with
// the medium and shrinks c.count.
func (c *CohortStation) adoptTail(at int, snap *Station) *CohortStation {
	base := dot11.AddrAdd(c.base, at)
	nc := &CohortStation{
		eng:       c.eng,
		med:       c.med,
		base:      base,
		count:     c.count - at,
		aggregate: c.aggregate,
	}
	nc.tmpl = snap.adopt(base, c.tmpl.aid+dot11.AID(at), cohortFan{nc})
	nc.watchHandshake()
	nc.next = c.next
	c.next = nc
	return nc
}

// fanTransmit puts the template's frame on air once per member, in
// member order, patching only the transmitter address (offset 10:16 in
// every frame type a station sends: MAC header Addr2, ACK-less control
// frames' TA). The FIFO medium serializes the copies exactly as it
// would N same-instant transmissions from individual stations. The
// aggregate regime transmits the representative copy only.
func (c *CohortStation) fanTransmit(raw []byte, rate dot11.Rate) time.Duration {
	if c.aggregate || c.count == 1 || len(raw) < 16 {
		return c.med.Transmit(c.base, raw, rate)
	}
	c.txBuf = append(c.txBuf[:0], raw...)
	var end time.Duration
	for i := 0; i < c.count; i++ {
		addr := dot11.AddrAdd(c.base, i)
		copy(c.txBuf[10:16], addr[:])
		end = c.med.Transmit(addr, c.txBuf, rate)
	}
	return end
}

// Receive implements medium.Node: the fallback entry point for
// channels that do not know about routed delivery — the destination is
// read from the frame itself. The emulated Medium always uses
// ReceiveAs instead.
func (c *CohortStation) Receive(raw []byte, rate dot11.Rate, now time.Duration) {
	if dst, ok := dot11.Receiver(raw); ok {
		c.ReceiveAs(dst, raw, rate, now)
	}
}

// ReceiveAs implements medium.RoutedNode: group frames and the
// template's own unicast advance the shared state once; unicast copies
// for members past the template mirror it and are only counted. The
// routing decision uses to — the address the medium routed the frame
// to — never the frame's own address bytes: a fault verdict may have
// corrupted those, and a real member's radio tuned to the destination
// before the bits were damaged.
func (c *CohortStation) ReceiveAs(to dot11.MACAddr, raw []byte, rate dot11.Rate, now time.Duration) {
	if to.IsMulticast() {
		c.deliverGroup(raw, rate, now)
		return
	}
	if to == c.base {
		if c.ackSnap != nil && dot11.Classify(raw) == dot11.KindACK {
			c.acked++
		}
		c.tmpl.Receive(raw, rate, now)
		return
	}
	off, ok := dot11.AddrOffset(c.base, to)
	if !ok || off >= c.count {
		return
	}
	if dot11.Classify(raw) == dot11.KindACK {
		c.cstats.MemberACKs++
		if c.ackSnap != nil {
			c.acked++
		}
	} else {
		c.cstats.MemberUnicast++
	}
}

// deliverGroup advances every member for one group frame. Two folded
// populations may need to part first: members that would READ the
// frame differently (a corrupted beacon's per-AID bitmap bits; see
// groupDivergence) and — when a handshake round is open — the acked
// prefix that has moved past the round while the tail still waits
// (splitMidRound). Splits recurse so each uniform segment processes
// the frame exactly as its expanded members would, in member order.
func (c *CohortStation) deliverGroup(raw []byte, rate dot11.Rate, now time.Duration) {
	if at := c.groupDivergence(raw); at > 0 {
		nc := c.selfSplit(at)
		c.deliverGroup(raw, rate, now)
		nc.deliverGroup(raw, rate, now)
		return
	}
	if c.splitMidRound(raw, rate, now) {
		return
	}
	shadow := c.ackSnap
	if c.acked >= c.count {
		shadow = nil // round complete; the shadow is dead until re-armed
	}
	c.tmpl.Receive(raw, rate, now)
	if shadow != nil {
		shadow.Receive(raw, rate, now)
	}
}

// groupDivergence returns the first member index at which this group
// frame stops reading member-uniformly, or 0 when every member reads
// it identically. Group frames are uniform by construction — members
// share ports, state, and the AP-side table entries — except through
// the per-AID indications of a beacon: one corrupted bitmap byte can
// flip the TIM or BTIM bit of SOME members of a segment and not
// others, making the expanded members react apart even though every
// copy carries identical bytes.
func (c *CohortStation) groupDivergence(raw []byte) int {
	if c.aggregate || c.count <= 1 || !c.tmpl.associated || c.tmpl.crashed {
		return 0
	}
	if dot11.Classify(raw) != dot11.KindBeacon {
		return 0
	}
	var b dot11.BeaconReading
	if err := dot11.ReadBeacon(raw, &b); err != nil || !b.HasTIM {
		return 0 // unparseable or TIM-less: every member bails out alike
	}
	if li := c.tmpl.cfg.ListenInterval; li > 1 && c.tmpl.beaconSeq%li != 0 {
		return 0 // the members' radios sleep through this beacon together
	}
	// The BTIM reading is consulted only on a HIDE member's DTIM.
	btim := b.HasBTIM && c.tmpl.cfg.Mode == HIDE && b.TIM.DTIMCount == 0
	first := c.memberReading(&b, btim, 0)
	for k := 1; k < c.count; k++ {
		if c.memberReading(&b, btim, k) != first {
			return k
		}
	}
	return 0
}

// memberReading is member k's view of a beacon's per-AID indications;
// btim says whether the BTIM bit is consulted.
func (c *CohortStation) memberReading(b *dot11.BeaconReading, btim bool, k int) [2]bool {
	aid := c.tmpl.aid + dot11.AID(k)
	return [2]bool{
		b.TIM.UnicastBuffered(aid),
		btim && b.BTIM.UsefulBroadcastBuffered(aid),
	}
}

// selfSplit carves the tail [at, count) off mid-delivery on the
// cohort's own initiative — the in-process analogue of the medium's
// verdict-boundary SplitTail path. The tail registers with the medium
// immediately (entries inserted during a delivery walk are counted as
// consumed), and the caller hands it the in-flight frame itself.
func (c *CohortStation) selfSplit(at int) *CohortStation {
	nc := c.SplitTail(at).(*CohortStation)
	if err := c.med.SplitBlock(c.base, at, nc); err != nil {
		panic(fmt.Sprintf("station: self split: %v", err))
	}
	return nc
}

// SplitTail implements medium.BlockSplitter: the medium calls it
// mid-delivery when fault verdicts diverge across the block. When a
// handshake round is open the split lands inside it, and the tail must
// leave in the state its members actually hold — the template's if its
// base member has been ACKed, the shadow's if not — with the round
// watch carried across both halves.
func (c *CohortStation) SplitTail(at int) medium.Node {
	if c.ackSnap == nil {
		return c.splitTail(at)
	}
	deadline := c.checkEv.At()
	switch {
	case c.acked == 0:
		// Nobody ACKed yet: the template is still in the pre-ACK state
		// (its own round timer pending, mirrored by the clone), so the
		// live clone is exact; the tail just opens its own watch.
		nc := c.splitTail(at)
		nc.ackSnap = nc.shadowTemplate()
		nc.checkEv = nc.eng.MustScheduleAt(deadline, nc.ackDeadlineFn)
		return nc
	case at < c.acked:
		// The cut lands inside the ACKed prefix: the head's members are
		// all done (its round is over) and the tail inherits the open
		// round — its first acked-c.acked members' worth of state is the
		// template's, carried by the live clone, and the still-unacked
		// rest stays represented by the transferred shadow.
		nc := c.splitTail(at)
		nc.acked = c.acked - at
		nc.ackSnap = c.ackSnap
		nc.checkEv = nc.eng.MustScheduleAt(deadline, nc.ackDeadlineFn)
		c.acked = at
		c.ackSnap = nil
		c.checkEv.Cancel()
		return nc
	default:
		// 0 < acked <= at: every tail member is still unacked, so the
		// tail leaves in the SHADOW's state — the live template has
		// moved on (ACKed, possibly suspended). The round's pending
		// retransmission timer transfers to the tail at the deadline,
		// exactly as splitMidRound arranges for its own tail.
		snap := c.ackSnap
		if at == c.acked {
			// The head's members are exactly the ACKed prefix: its
			// round is complete.
			c.ackSnap = nil
			c.checkEv.Cancel()
		} else {
			// The head keeps watching its remaining unacked members
			// [acked, at) through a fresh copy of the shadow.
			c.ackSnap = shadowOf(snap)
		}
		nc := c.adoptTail(at, snap)
		nc.tmpl.ackTimer = nc.eng.MustScheduleAt(deadline, nc.tmpl.ackTimeoutFn)
		nc.ackSnap = nc.shadowTemplate()
		nc.checkEv = nc.eng.MustScheduleAt(deadline, nc.ackDeadlineFn)
		c.count = at
		return nc
	}
}

// splitTail detaches members [at, count) into a new cohort whose
// template is a deep clone of this one's — same protocol state, same
// pending timers, reparented to the tail's base address and AID. The
// caller (the medium, or Split) is responsible for registering the new
// cohort in the delivery order.
func (c *CohortStation) splitTail(at int) *CohortStation {
	if at < 1 || at >= c.count {
		panic(fmt.Sprintf("station: cohort split at %d outside (0, %d)", at, c.count))
	}
	base := dot11.AddrAdd(c.base, at)
	nc := &CohortStation{
		eng:       c.eng,
		med:       c.med,
		base:      base,
		count:     c.count - at,
		aggregate: c.aggregate,
	}
	nc.tmpl = c.tmpl.cloneFor(base, c.tmpl.aid+dot11.AID(at), cohortFan{nc}, at)
	nc.watchHandshake()
	nc.next = c.next
	c.next = nc
	c.count = at
	return nc
}

// Split carves members [at, count) into a separate cohort, registered
// with the medium directly after this one in the delivery order —
// indistinguishable from two cohorts built that way at setup. Split is
// only valid after association (the association retry timer cannot be
// cloned) and within the exact (non-aggregate) regime's AID block.
func (c *CohortStation) Split(at int) (*CohortStation, error) {
	if at < 1 || at >= c.count {
		return nil, fmt.Errorf("station: split index %d outside (0, %d)", at, c.count)
	}
	if !c.tmpl.associated {
		return nil, fmt.Errorf("station: cohort split before association completed")
	}
	nc := c.splitTail(at)
	if err := c.med.SplitBlock(c.base, at, nc); err != nil {
		return nil, err
	}
	return nc, nil
}

// JoinBlock records the first AID of the cohort's contiguous AID block
// and starts the suspend machinery, exactly as Station.Join does for
// one member.
func (c *CohortStation) JoinBlock(first dot11.AID) error { return c.tmpl.Join(first) }

// Handoff moves the whole cohort segment to another engine, medium
// shard, and BSSID at a barrier instant (both engines idle at the
// same virtual time) — the cohort-aware ESS roam. Like the direct
// association path cohorts already use (ap.AssociateCohort +
// JoinBlock instead of per-member frames), the handoff is out of
// band: the caller disassociates the members at the old AP, calls
// Handoff, associates the block at the new AP, and completes with
// RejoinBlock. A handoff during an active port-message handshake
// round is refused — the round's shadow state is pinned to the old
// engine — so callers defer the roam one window.
func (c *CohortStation) Handoff(eng *sim.Engine, med medium.BlockChannel, bssid dot11.MACAddr) error {
	if c.aggregate {
		return fmt.Errorf("station: aggregate cohorts do not roam (no per-member association to move)")
	}
	if c.next != nil {
		return fmt.Errorf("station: split cohorts do not roam (segments diverged)")
	}
	// A round is open while the pre-ACK snapshot is held or the
	// template awaits its own ACK; a completed round leaves acked ==
	// count behind, which is not an open round.
	if c.ackSnap != nil || c.tmpl.awaitingACK {
		return fmt.Errorf("station: cohort handoff during an active handshake round")
	}
	// Attach to the new shard before touching any old-shard state, so a
	// refused attach leaves the cohort exactly where it was.
	if err := med.AttachBlock(c.base, c.count, c); err != nil {
		return err
	}
	c.acked = 0
	c.checkEv.Cancel()
	c.tmpl.suspendEv.Cancel()
	c.tmpl.ackTimer.Cancel()
	c.tmpl.assocTimer.Cancel()
	// The handles point into the old engine's event pool, which that
	// shard's goroutine recycles; drop them so nothing reads it again.
	c.checkEv = sim.Handle{}
	c.tmpl.suspendEv, c.tmpl.ackTimer, c.tmpl.assocTimer = sim.Handle{}, sim.Handle{}, sim.Handle{}
	if om, ok := c.med.(interface{ Detach(dot11.MACAddr) }); ok {
		om.Detach(c.base)
	}
	c.eng = eng
	c.med = med
	c.tmpl.eng = eng
	c.tmpl.cfg.BSSID = bssid
	c.tmpl.associated = false
	c.tmpl.aid = 0
	c.tmpl.listening = false
	c.tmpl.synced = false
	c.tmpl.haveTimestamp = false
	c.tmpl.setSuspended(true)
	return nil
}

// RejoinBlock completes a cohort roam: it records the first AID of
// the block assigned by the new AP without waking the members' hosts,
// exactly as Station.Rejoin does for one member. BTIM filtering at
// the new AP resumes with the members' next port sync (cold handoff)
// or immediately when the distribution system replicated their
// entries (warm).
func (c *CohortStation) RejoinBlock(first dot11.AID) error { return c.tmpl.Rejoin(first) }

// ListensOn reports whether a UDP port is open on the cohort's
// members (all members share one port set).
func (c *CohortStation) ListensOn(p uint16) bool { return c.tmpl.ListensOn(p) }

// Synced reports whether the cohort's current AP has acknowledged its
// open-port set; false after a Handoff marks the cold-roam resync
// window, exactly as Station.Synced does.
func (c *CohortStation) Synced() bool { return c.tmpl.synced }

// Template returns the Station carrying the members' shared protocol
// state — for observers and pricing; drive the cohort through
// CohortStation methods, not the template.
func (c *CohortStation) Template() *Station { return c.tmpl }

// Segments returns the cohort family this handle has split into, in
// member order: the receiver first, then every cohort carved off it
// (directly or transitively). An unsplit cohort returns itself alone;
// the segment widths always sum to the original member count.
func (c *CohortStation) Segments() []*CohortStation {
	var out []*CohortStation
	for s := c; s != nil; s = s.next {
		out = append(out, s)
	}
	return out
}

// Count returns the number of members the cohort currently stands for
// (splits shrink it).
func (c *CohortStation) Count() int { return c.count }

// BaseAddr returns the first member's MAC address.
func (c *CohortStation) BaseAddr() dot11.MACAddr { return c.base }

// MemberAddr returns the i-th member's MAC address.
func (c *CohortStation) MemberAddr(i int) dot11.MACAddr { return dot11.AddrAdd(c.base, i) }

// BaseAID returns the first member's AID (zero before JoinBlock).
func (c *CohortStation) BaseAID() dot11.AID { return c.tmpl.aid }

// Aggregate reports whether the cohort runs in the aggregate regime.
func (c *CohortStation) Aggregate() bool { return c.aggregate }

// OpenPort registers a listening UDP port on every member.
func (c *CohortStation) OpenPort(p uint16) { c.tmpl.OpenPort(p) }

// ClosePort removes a listening UDP port from every member.
func (c *CohortStation) ClosePort(p uint16) { c.tmpl.ClosePort(p) }

// OpenPorts returns the members' shared sorted open-port set.
func (c *CohortStation) OpenPorts() []uint16 { return c.tmpl.OpenPorts() }

// Arrivals returns one member's recorded radio arrivals — identical
// for every member, so per-member energy is energy.Compute over this
// log and cohort energy is the per-member Breakdown scaled by Count.
func (c *CohortStation) Arrivals() []energy.Arrival { return c.tmpl.Arrivals() }

// MemberStats returns one member's protocol counters (identical for
// every member).
func (c *CohortStation) MemberStats() Stats { return c.tmpl.Stats() }

// CohortStats returns the cohort-level bookkeeping counters.
func (c *CohortStation) CohortStats() CohortStats { return c.cstats }

// Suspended reports whether the members' shared host state is suspend.
func (c *CohortStation) Suspended() bool { return c.tmpl.Suspended() }

// ListenInterval returns the members' shared listen interval.
func (c *CohortStation) ListenInterval() int { return c.tmpl.ListenInterval() }

// SetObserver installs the lifecycle observer on the template, so
// invariant checkers see the members' shared state machine.
func (c *CohortStation) SetObserver(o Observer) { c.tmpl.SetObserver(o) }
