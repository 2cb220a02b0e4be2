// Package ap implements a HIDE-capable 802.11 access point for the
// protocol simulation: beacon scheduling with DTIM cadence, group
// frame buffering, per-client unicast buffering with TIM indications,
// the Client UDP Port Table fed by UDP Port Messages, Algorithm 1 flag
// computation, and the BTIM element that hides useless broadcast
// frames from HIDE-enabled clients while legacy clients keep the
// standard broadcast-bit behaviour.
package ap

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/porttable"
	"repro/internal/sim"
)

// Config configures an access point.
type Config struct {
	// BSSID is the AP's MAC address.
	BSSID dot11.MACAddr
	// SSID is the advertised network name.
	SSID string
	// BeaconInterval defaults to 100 TU.
	BeaconInterval time.Duration
	// DTIMPeriod is in beacon intervals (typical 1-3; default
	// DefaultDTIMPeriod).
	DTIMPeriod int
	// HIDE enables the HIDE extensions (BTIM + port table). When
	// false the AP behaves as a stock 802.11 AP (receive-all).
	HIDE bool
	// FilterUnicast enables the paper's §I extension: unicast UDP
	// frames addressed to a HIDE client are dropped at the AP when the
	// client has no process listening on the destination port, instead
	// of being buffered and indicated in the TIM. Frames whose payload
	// cannot be classified as UDP always pass (conservative).
	FilterUnicast bool
	// PortTTL expires Client UDP Port Table entries whose last refresh
	// is older than this, swept when each beacon is built. A client
	// that crashed without deregistering stops refreshing, so its stale
	// entries — which would inflate every other client's wakeups
	// forever — age out after one TTL. Stations should refresh well
	// within the TTL (station.Config.PortRefresh). Zero disables
	// expiry: entries then live until disassociation, the paper's
	// behaviour.
	PortTTL time.Duration
}

// DefaultDTIMPeriod is the DTIM period, in beacon intervals, that a
// zero Config.DTIMPeriod selects.
const DefaultDTIMPeriod = 3

// normalized fills defaults and clamps fields to protocol limits.
func (c Config) normalized() Config {
	if len(c.SSID) > 32 {
		// 802.11 limits SSIDs to 32 octets; clamping keeps beacon
		// marshalling infallible.
		c.SSID = c.SSID[:32]
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = dot11.DefaultBeaconInterval
	}
	if c.DTIMPeriod <= 0 {
		c.DTIMPeriod = DefaultDTIMPeriod
	}
	return c
}

// client is the AP's per-association state.
type client struct {
	addr        dot11.MACAddr
	aid         dot11.AID
	hideCapable bool
	psMode      bool
	unicast     [][]byte // buffered unicast frames (raw)
	// count > 1 marks a cohort representative (AssociateAggregate):
	// this one association stands for count stations sharing a single
	// AID.
	count int
}

// bufferedGroup is one buffered group-addressed frame.
type bufferedGroup struct {
	payload []byte // LLC/SNAP+IP body
	rate    dot11.Rate
	dstPort uint16
}

// Stats counts AP-side protocol activity.
type Stats struct {
	BeaconsSent      int
	DTIMsSent        int
	GroupFramesSent  int
	PortMsgsReceived int
	ACKsSent         int
	PSPollsServed    int
	BTIMBytesSent    int
	AssocResponses   int
	UnicastFiltered  int
	Disassociations  int
	// GroupFramesEnqueued counts group frames accepted from the
	// distribution system; together with GroupFramesSent,
	// BufferedGroupFrames, and GroupFramesLost it closes the group-frame
	// conservation equation (enqueued = sent + pending + lost).
	GroupFramesEnqueued int
	// UnicastEnqueued counts unicast frames accepted for buffering,
	// including frames the FilterUnicast extension then dropped
	// (enqueued = served + filtered + pending + lost).
	UnicastEnqueued int
	// Restarts counts Restart calls (simulated AP power-cycles).
	Restarts int
	// GroupFramesLost and UnicastFramesLost count buffered frames wiped
	// by a Restart — the lost terms of the conservation equations.
	GroupFramesLost   int
	UnicastFramesLost int
	// PortEntriesExpired counts clients aged out of the Client UDP Port
	// Table by the PortTTL sweep.
	PortEntriesExpired int
	// Reassociations counts reassociation exchanges served (roaming
	// stations arriving from another AP of the same ESS).
	Reassociations int
	// PortsSeededOnRoam counts port-table entries seeded at
	// reassociation time from the distribution system's replicated
	// directory (warm handoff) rather than from the station itself.
	PortsSeededOnRoam int
	// DisassocsSent counts AP-initiated disassociation frames
	// (DisassociateAll during drain, liveness evictions).
	DisassocsSent int
	// AssocsRejectedDraining counts association attempts refused with
	// StatusAPFull while the AP was draining.
	AssocsRejectedDraining int
}

// BeaconView is the snapshot of AP state an Observer receives for each
// assembled beacon, before it is transmitted. The cross-validation
// harness uses it to assert Algorithm 1 soundness: a BTIM bit may be
// set for a client only if some buffered frame's destination port is in
// the Client UDP Port Table for that client.
type BeaconView struct {
	// Beacon is the fully assembled frame (TIM and, for HIDE APs, BTIM).
	Beacon *dot11.Beacon
	// IsDTIM marks DTIM beacons (group traffic flushes after these).
	IsDTIM bool
	// BufferedPorts holds the destination UDP port of every buffered
	// group frame — Algorithm 1's inputs. The AP reuses its storage, so
	// it is valid only during BeaconBuilt.
	BufferedPorts []uint16
}

// Observer receives AP protocol events. Observers run synchronously on
// the simulation goroutine; they must not mutate the AP, nor the view
// every observer of one beacon shares.
type Observer interface {
	// BeaconBuilt fires after each beacon is assembled, before its
	// transmission and before any group flush it announces.
	BeaconBuilt(now time.Duration, v BeaconView)
}

// AP is the access point entity. Create with New, then Start.
type AP struct {
	cfg     Config
	eng     *sim.Engine
	med     medium.Channel
	table   *porttable.Table
	clients map[dot11.MACAddr]*client
	byAID   map[dot11.AID]*client
	nextAID dot11.AID
	group   []bufferedGroup
	seq     uint16
	dtim    int           // beacons until next DTIM (the DTIM count)
	bootAt  time.Duration // virtual time of the last (re)boot; TSF epoch
	stats   Stats
	obs     []Observer
	flagFn  func(bufferedPorts []uint16, table *porttable.Table) *dot11.VirtualBitmap
	// roamPorts, when set, is consulted at reassociation time for a
	// replicated port set from the ESS distribution system (warm
	// handoff). A nil return means no replicated entry — the station
	// resyncs cold via its next UDP Port Message.
	roamPorts func(addr dot11.MACAddr) []uint16
	// portSync, when set, receives every port-table update the AP
	// learns from the air, so the ESS distribution system can
	// replicate entries to the other APs before the station roams.
	portSync func(addr dot11.MACAddr, ports []uint16)

	tickFn sim.Event // bound beaconTick; reused across reschedules
	dirty  bool      // beacon-relevant state changed since last rebuild
	cache  beaconCache
	// draining marks a graceful shutdown in progress: new association
	// and reassociation attempts are refused with StatusAPFull while
	// existing clients are disassociated with real frames.
	draining bool

	// Scratch reused across events: the ports of the port message being
	// handled, its ACK's bytes, and the buffered ports handed to
	// observers and the flag computer. Transmit never keeps a frame
	// buffer, and the table, the portSync hook and observers never keep
	// a ports slice.
	msgPorts []uint16
	ackBuf   []byte
	buffered []uint16
}

// beaconCache holds the last fully built beacon. While no
// beacon-relevant state changes (no station add/remove, no buffered
// unicast/broadcast change, no port-table mutation), consecutive
// beacons differ only in sequence number, TSF timestamp, DTIM count,
// and the TIM broadcast bit — all fixed-offset fields patched in place,
// so idle DTIMs reuse the encoded bytes verbatim with zero allocations.
type beaconCache struct {
	valid    bool
	tableGen uint64 // porttable.Table.Gen at rebuild time
	raw      []byte // marshalled frame, patched between rebuilds
	beacon   dot11.Beacon
	tim      dot11.TIM
	btim     dot11.BTIM
	btimCost int // BTIMBytesSent increment per beacon (PartialBitmap + 3)
	timOff   int // offset of the TIM element body in raw
	ctlBase  byte
}

var _ medium.Node = (*AP)(nil)

// New creates an AP attached to the medium.
func New(eng *sim.Engine, med medium.Channel, cfg Config) *AP {
	cfg = cfg.normalized()
	a := &AP{
		cfg:     cfg,
		eng:     eng,
		med:     med,
		table:   porttable.New(),
		clients: make(map[dot11.MACAddr]*client),
		byAID:   make(map[dot11.AID]*client),
		nextAID: 1,
		dirty:   true,
	}
	a.tickFn = a.beaconTick
	med.Attach(cfg.BSSID, a)
	return a
}

// Stats returns the AP's protocol counters.
func (a *AP) Stats() Stats { return a.stats }

// AddObserver subscribes o to the AP's protocol events; observers run
// in the order they were added.
func (a *AP) AddObserver(o Observer) { a.obs = append(a.obs, o) }

// SetFlagComputer overrides Algorithm 1's per-client flag computation.
// The replacement receives the destination ports of the buffered group
// frames (valid only for the call) and the Client UDP Port Table, and
// returns the BTIM bitmap.
// It exists as a fault-injection point for the cross-validation
// harness — a broken computer must be caught by both the differential
// oracle and the BTIM invariant. A nil fn restores Algorithm 1.
func (a *AP) SetFlagComputer(fn func(bufferedPorts []uint16, table *porttable.Table) *dot11.VirtualBitmap) {
	a.flagFn = fn
	a.dirty = true
}

// Table exposes the Client UDP Port Table (read-mostly; used by tests
// and tooling).
func (a *AP) Table() *porttable.Table { return a.table }

// SetRoamPortLookup installs the distribution-system port lookup used
// at reassociation time: when a station roams in, the AP asks the ESS
// for a replicated port set and seeds its Client UDP Port Table from
// it, closing the resync window a cold handoff would leave open. A
// nil fn (the default) disables warm seeding.
func (a *AP) SetRoamPortLookup(fn func(addr dot11.MACAddr) []uint16) { a.roamPorts = fn }

// SetPortSync installs the distribution-system export hook: every
// port set the AP learns from the air (association seeds and UDP Port
// Messages) is reported so the ESS can replicate it to sibling APs.
// The callback runs synchronously on the shard's event loop and must
// not mutate the AP; the ports slice is only valid for the call.
func (a *AP) SetPortSync(fn func(addr dot11.MACAddr, ports []uint16)) { a.portSync = fn }

// Associate registers a station and returns its AID. hideCapable marks
// stations that understand the BTIM element. AIDs are handed out in
// order until the counter passes dot11.MaxAID; from then on each
// association takes the lowest AID no client holds.
func (a *AP) Associate(addr dot11.MACAddr, hideCapable bool) (dot11.AID, error) {
	if _, ok := a.clients[addr]; ok {
		return 0, fmt.Errorf("ap: %v already associated", addr)
	}
	aid := a.nextAID
	if aid.Valid() {
		a.nextAID++
	} else {
		for aid = 1; a.byAID[aid] != nil; aid++ {
		}
		if !aid.Valid() {
			return 0, fmt.Errorf("ap: association table full")
		}
	}
	c := &client{addr: addr, aid: aid, hideCapable: hideCapable, psMode: true}
	a.clients[addr] = c
	a.byAID[c.aid] = c
	a.dirty = true
	return c.aid, nil
}

// FreeAIDs returns the number of AIDs no client holds.
func (a *AP) FreeAIDs() int { return int(dot11.MaxAID) - len(a.byAID) }

// AssociateAggregate registers a single association standing for count
// stations — a cohort, which reaches 10⁵–10⁶ clients past the AID
// space. The representative behaves as one station on the air (one
// AID, one TIM bit, one port-message stream); ClientList reports the
// multiplicity.
func (a *AP) AssociateAggregate(base dot11.MACAddr, count int, hideCapable bool) (dot11.AID, error) {
	if count < 1 {
		return 0, fmt.Errorf("ap: aggregate count %d < 1", count)
	}
	aid, err := a.Associate(base, hideCapable)
	if err != nil {
		return 0, err
	}
	a.clients[base].count = count
	return aid, nil
}

// Disassociate removes a station and its port-table entries.
func (a *AP) Disassociate(addr dot11.MACAddr) {
	c, ok := a.clients[addr]
	if !ok {
		return
	}
	a.table.Remove(c.aid)
	delete(a.byAID, c.aid)
	delete(a.clients, addr)
	a.dirty = true
}

// AIDOf returns the AID the AP assigned to a station, or false when
// the station is not associated.
func (a *AP) AIDOf(addr dot11.MACAddr) (dot11.AID, bool) {
	c, ok := a.clients[addr]
	if !ok {
		return 0, false
	}
	return c.aid, true
}

// ClientInfo is one row of the AP's association table, snapshotted for
// the control plane.
type ClientInfo struct {
	Addr        dot11.MACAddr
	AID         dot11.AID
	HIDECapable bool
	PSMode      bool
	// Members is the number of stations this association stands for
	// (>1 for cohort representatives).
	Members int
	// BufferedUnicast is the client's buffered downlink frame count.
	BufferedUnicast int
}

// ClientList snapshots the association table in ascending AID order —
// a stable order for the control plane and for drain-time fan-out.
func (a *AP) ClientList() []ClientInfo {
	out := make([]ClientInfo, 0, len(a.clients))
	for _, c := range a.clients {
		members := c.count
		if members < 1 {
			members = 1
		}
		out = append(out, ClientInfo{
			Addr:            c.addr,
			AID:             c.aid,
			HIDECapable:     c.hideCapable,
			PSMode:          c.psMode,
			Members:         members,
			BufferedUnicast: len(c.unicast),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AID < out[j].AID })
	return out
}

// BeginDrain starts a graceful shutdown: from now on association and
// reassociation requests are refused with StatusAPFull, so no new
// clients arrive while the daemon tears down.
func (a *AP) BeginDrain() { a.draining = true }

// Draining reports whether BeginDrain was called.
func (a *AP) Draining() bool { return a.draining }

// DisassociateClient sends a real disassociation frame to one station
// (Addr1 = station, Addr2/Addr3 = BSSID) and removes its association
// and port-table state. It is the AP-initiated mirror of the
// station's Leave and is used for drain fan-out and liveness
// evictions. Reports false when the station is not associated.
func (a *AP) DisassociateClient(addr dot11.MACAddr, reason uint16) bool {
	if _, ok := a.clients[addr]; !ok {
		return false
	}
	d := &dot11.Disassoc{
		Header: dot11.MACHeader{
			Addr1: addr, Addr2: a.cfg.BSSID, Addr3: a.cfg.BSSID,
			Seq: a.nextSeq(),
		},
		Reason: reason,
	}
	a.med.Transmit(a.cfg.BSSID, d.Marshal(), dot11.BasicRate)
	a.stats.DisassocsSent++
	a.Disassociate(addr)
	return true
}

// DisassociateAll disassociates every client with a real frame, in
// ascending AID order for deterministic fan-out, and returns how many
// frames went out. Part of the drain sequence: BeginDrain, flush, then
// DisassociateAll before the daemon exits.
func (a *AP) DisassociateAll(reason uint16) int {
	n := 0
	for _, ci := range a.ClientList() {
		if a.DisassociateClient(ci.Addr, reason) {
			n++
		}
	}
	return n
}

// Start schedules the beacon loop. The first beacon goes out one
// beacon interval after the current virtual time.
func (a *AP) Start() {
	a.dtim = 0 // first beacon is a DTIM
	a.eng.MustScheduleAfter(a.cfg.BeaconInterval, a.tickFn)
}

// EnqueueGroup accepts a group-addressed (broadcast) UDP datagram from
// the distribution system. It is buffered until the next DTIM, per the
// 802.11 rule that group traffic is buffered while any client is in PS
// mode (in this simulation PS clients always exist).
func (a *AP) EnqueueGroup(d dot11.UDPDatagram, rate dot11.Rate) {
	body := dot11.EncapsulateUDP(d)
	a.group = append(a.group, bufferedGroup{
		payload: body, rate: rate, dstPort: d.DstPort,
	})
	a.stats.GroupFramesEnqueued++
	a.dirty = true
}

// EnqueueUnicast buffers a unicast data frame for a PS-mode client;
// the next beacon's TIM will carry the client's bit. With the
// FilterUnicast extension enabled, frames to a HIDE client's closed
// UDP ports are dropped here instead.
func (a *AP) EnqueueUnicast(dst dot11.MACAddr, d dot11.UDPDatagram, rate dot11.Rate) error {
	c, ok := a.clients[dst]
	if !ok {
		return fmt.Errorf("ap: %v not associated", dst)
	}
	a.stats.UnicastEnqueued++
	if a.cfg.HIDE && a.cfg.FilterUnicast && c.hideCapable && !a.table.Listening(d.DstPort, c.aid) {
		a.stats.UnicastFiltered++
		return nil
	}
	frame := &dot11.DataFrame{
		Header: dot11.MACHeader{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: dst, Addr2: a.cfg.BSSID, Addr3: a.cfg.BSSID,
			Seq: a.nextSeq(),
		},
		Payload: dot11.EncapsulateUDP(d),
	}
	c.unicast = append(c.unicast, frame.Marshal())
	a.dirty = true
	return nil
}

// Restart models an AP power-cycle that loses all soft state: the
// Client UDP Port Table, buffered group and unicast frames, and the
// TSF timer — the beacon timestamp restarts from zero, which is how
// stations detect the restart and re-register their open ports.
// Associations survive (as with APs that persist them across a fast
// reboot; a full re-association is modelled with Disassociate +
// StartAssociation instead). Wiped frames are counted in
// GroupFramesLost/UnicastFramesLost so the conservation equations keep
// closing, and the DTIM cycle restarts at the next beacon.
func (a *AP) Restart() {
	a.bootAt = a.eng.Now()
	a.table = porttable.New()
	a.stats.GroupFramesLost += len(a.group)
	a.group = a.group[:0]
	for _, c := range a.clients {
		a.stats.UnicastFramesLost += len(c.unicast)
		c.unicast = nil
	}
	a.dtim = 0
	a.stats.Restarts++
	a.dirty = true
}

// beaconTick emits one beacon and, on DTIMs, flushes group traffic.
func (a *AP) beaconTick(now time.Duration) {
	// TTL sweep before the beacon is built, so an expired client is
	// never indicated in the BTIM it can no longer want.
	if a.cfg.PortTTL > 0 && now > a.cfg.PortTTL {
		a.stats.PortEntriesExpired += len(a.table.ExpireBefore(now - a.cfg.PortTTL))
	}
	isDTIM := a.dtim == 0
	beacon, raw := a.encodeBeacon(now, isDTIM)
	if len(a.obs) > 0 {
		v := BeaconView{
			Beacon:        beacon,
			IsDTIM:        isDTIM,
			BufferedPorts: a.bufferedPorts(),
		}
		for _, o := range a.obs {
			o.BeaconBuilt(now, v)
		}
	}
	a.med.Transmit(a.cfg.BSSID, raw, dot11.BasicRate)
	a.stats.BeaconsSent++
	if isDTIM {
		a.stats.DTIMsSent++
		a.flushGroup()
		a.dtim = a.cfg.DTIMPeriod - 1
	} else {
		a.dtim--
	}
	a.eng.MustScheduleAfter(a.cfg.BeaconInterval, a.tickFn)
}

// encodeBeacon returns the beacon for this tick, rebuilding from
// scratch when beacon-relevant state changed and otherwise patching the
// cached bytes in place. The medium copies the frame at Transmit, so
// handing out the cache's buffer is safe.
func (a *AP) encodeBeacon(now time.Duration, isDTIM bool) (*dot11.Beacon, []byte) {
	bc := &a.cache
	if !bc.valid || a.dirty || a.flagFn != nil || a.table.Gen() != bc.tableGen {
		a.rebuildBeacon(now, isDTIM)
	} else {
		a.patchBeacon(now, isDTIM)
	}
	if a.cfg.HIDE {
		a.stats.BTIMBytesSent += bc.btimCost
	}
	return &bc.beacon, bc.raw
}

// rebuildBeacon assembles the beacon with TIM and (for HIDE APs) BTIM
// from current state and refreshes the cache: encoded bytes, the
// element offsets the patch path writes to, and the generation stamps
// that gate reuse.
func (a *AP) rebuildBeacon(now time.Duration, isDTIM bool) {
	bc := &a.cache
	// TIM: unicast bits for clients with buffered frames; broadcast bit
	// on DTIM beacons when group frames are buffered.
	var ub dot11.VirtualBitmap
	for _, c := range a.clients {
		if len(c.unicast) > 0 {
			ub.Set(c.aid)
		}
	}
	off, pm := ub.Compress()
	bc.tim = dot11.TIM{
		DTIMCount:     uint8(a.dtim),
		DTIMPeriod:    uint8(a.cfg.DTIMPeriod),
		Broadcast:     isDTIM && len(a.group) > 0,
		BitmapOffset:  off,
		PartialBitmap: pm,
	}

	bc.beacon = dot11.Beacon{
		Header: dot11.MACHeader{
			Addr1: dot11.Broadcast, Addr2: a.cfg.BSSID, Addr3: a.cfg.BSSID,
			Seq: a.nextSeq(),
		},
		Timestamp:      uint64((now - a.bootAt) / time.Microsecond),
		BeaconInterval: uint16(a.cfg.BeaconInterval / dot11.TU),
		SSID:           a.cfg.SSID,
		TIM:            &bc.tim,
	}
	bc.btimCost = 0
	if a.cfg.HIDE {
		bc.btim = dot11.BTIMFromBitmap(a.broadcastFlags())
		bc.beacon.BTIM = &bc.btim
		bc.btimCost = len(bc.btim.PartialBitmap) + 3
	}
	raw, err := bc.beacon.Marshal()
	if err != nil {
		// Beacon construction is fully under AP control; failure is a bug.
		panic(fmt.Sprintf("ap: beacon marshal: %v", err))
	}
	bc.raw = raw
	bc.timOff = findTIMBody(raw)
	bc.ctlBase = raw[bc.timOff+2] &^ 0x01
	bc.tableGen = a.table.Gen()
	// A custom flag computer may be stateful (fault injection), so its
	// output cannot be cached.
	bc.valid = a.flagFn == nil
	a.dirty = false
}

// findTIMBody returns the offset of the TIM element body in a
// marshalled beacon. The TIM is always present in AP-built beacons.
func findTIMBody(raw []byte) int {
	p := dot11.MACHeaderLen + 12 // fixed fields: timestamp + interval + capability
	for p+2 <= len(raw) {
		if raw[p] == dot11.ElementIDTIM {
			return p + 2
		}
		p += 2 + int(raw[p+1])
	}
	panic("ap: marshalled beacon without TIM element")
}

// patchBeacon reuses the cached beacon bytes, rewriting only the fields
// that legitimately change between beacons with untouched state: the
// sequence number, the TSF timestamp, the TIM's DTIM count, and the TIM
// broadcast bit. Everything else is bit-identical to a from-scratch
// rebuild (the cache-invalidation tests assert exactly that), and this
// path performs zero allocations.
func (a *AP) patchBeacon(now time.Duration, isDTIM bool) {
	bc := &a.cache
	raw := bc.raw
	seq := a.nextSeq()
	raw[22] = byte(seq)
	raw[23] = byte(seq >> 8)
	ts := uint64((now - a.bootAt) / time.Microsecond)
	for i := 0; i < 8; i++ {
		raw[dot11.MACHeaderLen+i] = byte(ts >> (8 * i))
	}
	raw[bc.timOff] = uint8(a.dtim)
	bcast := isDTIM && len(a.group) > 0
	ctl := bc.ctlBase
	if bcast {
		ctl |= 0x01
	}
	raw[bc.timOff+2] = ctl
	// Keep the struct view (what observers see) in sync with the bytes.
	bc.beacon.Header.Seq = seq
	bc.beacon.Timestamp = ts
	bc.tim.DTIMCount = uint8(a.dtim)
	bc.tim.Broadcast = bcast
}

// broadcastFlags runs Algorithm 1: for every buffered group frame,
// fold the port's precomputed listener bitmap (the Client UDP Port
// Table's reverse index) into the flag set.
func (a *AP) broadcastFlags() *dot11.VirtualBitmap {
	if a.flagFn != nil {
		return a.flagFn(a.bufferedPorts(), a.table)
	}
	var flags dot11.VirtualBitmap
	for _, g := range a.group {
		a.table.OrListeners(g.dstPort, &flags)
	}
	return &flags
}

// bufferedPorts returns the destination ports of the buffered group
// frames in the AP's scratch, valid until the next call.
func (a *AP) bufferedPorts() []uint16 {
	ports := a.buffered[:0]
	for _, g := range a.group {
		ports = append(ports, g.dstPort)
	}
	a.buffered = ports
	return ports
}

// flushGroup transmits all buffered group frames after a DTIM beacon,
// setting the MoreData bit on all but the last.
func (a *AP) flushGroup() {
	if len(a.group) > 0 {
		a.dirty = true // broadcast buffer drains; BTIM and broadcast bit change
	}
	for i, g := range a.group {
		frame := &dot11.DataFrame{
			Header: dot11.MACHeader{
				FC: dot11.FrameControl{
					FromDS:   true,
					MoreData: i < len(a.group)-1,
				},
				Addr1: dot11.Broadcast, Addr2: a.cfg.BSSID, Addr3: a.cfg.BSSID,
				Seq: a.nextSeq(),
			},
			Payload: g.payload,
		}
		a.med.Transmit(a.cfg.BSSID, frame.Marshal(), g.rate)
		a.stats.GroupFramesSent++
	}
	a.group = a.group[:0]
}

// Receive implements medium.Node: the AP's frame demultiplexer, on
// the kind the channel read.
func (a *AP) Receive(f *medium.Frame, now time.Duration) {
	raw := f.Raw
	switch f.Kind {
	case dot11.KindAssocRequest, dot11.KindReassocRequest:
		a.handleAssocRequest(raw, now)
	case dot11.KindDisassoc:
		if d, err := dot11.UnmarshalDisassoc(raw); err == nil {
			a.Disassociate(d.Header.Addr2)
			a.stats.Disassociations++
		}
	case dot11.KindUDPPortMessage:
		a.handlePortMessage(raw, now)
	case dot11.KindPSPoll:
		a.handlePSPoll(raw)
	case dot11.KindData:
		// Uplink data would be forwarded to the distribution system;
		// the broadcast study doesn't model it further.
	}
}

// handleAssocRequest performs the frame-level (re)association
// exchange: it allocates (or re-confirms, for retries) the station's
// AID, seeds the port table, and responds with the request's subtype.
//
// An association request's Open UDP Ports element replaces the
// client's entry, even when empty. A reassociation comes from a
// station roaming in from another AP of the ESS while its host stays
// suspended, so an empty element there means the request carried no
// port state (a firmware roam signals HIDE capability with an empty
// element), NOT a deregistration — deregistration happens via UDP Port
// Messages. Only a non-empty set overrides the distribution system's
// replicated entry (SetRoamPortLookup); without one the station's BTIM
// filtering stays conservative (no entry → no wanted frames indicated)
// until its next UDP Port Message — the cold-roam resync window the
// ESS experiments quantify.
func (a *AP) handleAssocRequest(raw []byte, now time.Duration) {
	req, err := dot11.UnmarshalAssocRequest(raw)
	if err != nil {
		return
	}
	addr := req.Header.Addr2
	resp := &dot11.AssocResponse{
		Header: dot11.MACHeader{
			Addr1: addr, Addr2: a.cfg.BSSID, Addr3: a.cfg.BSSID,
			Seq: a.nextSeq(),
		},
		Reassoc:       req.Reassoc,
		Status:        dot11.StatusSuccess,
		HIDESupported: a.cfg.HIDE,
	}
	c, ok := a.clients[addr]
	if !ok && a.draining {
		// A draining AP takes no new clients; StatusAPFull tells the
		// station to back off and try elsewhere.
		resp.Status = dot11.StatusAPFull
		a.stats.AssocsRejectedDraining++
	} else if !ok {
		if _, err := a.Associate(addr, req.HIDECapable); err != nil {
			resp.Status = dot11.StatusAPFull
		} else {
			c = a.clients[addr]
		}
	}
	if c != nil {
		resp.AID = c.aid
		if a.cfg.HIDE {
			fromAir := req.Ports != nil
			if req.Reassoc {
				fromAir = len(req.Ports) > 0
			}
			switch {
			case fromAir:
				a.table.UpdateAt(c.aid, req.Ports, now)
				if a.portSync != nil {
					a.portSync(addr, req.Ports)
				}
			case req.Reassoc && a.roamPorts != nil:
				if ports := a.roamPorts(addr); ports != nil {
					a.table.UpdateAt(c.aid, ports, now)
					a.stats.PortsSeededOnRoam += len(ports)
				}
			}
		}
	}
	if req.Reassoc {
		a.stats.Reassociations++
	} else {
		a.stats.AssocResponses++
	}
	out, err := resp.Marshal()
	if err != nil {
		panic(fmt.Sprintf("ap: assoc response marshal: %v", err))
	}
	a.med.Transmit(a.cfg.BSSID, out, dot11.BasicRate)
}

// handlePortMessage updates the port table and ACKs the sender. The
// arrival time stamps the entry's TTL clock. The message is read into,
// and the ACK encoded from, the AP's scratch buffers.
func (a *AP) handlePortMessage(raw []byte, now time.Duration) {
	hdr, ports, err := dot11.ReadUDPPortMessage(raw, a.msgPorts)
	a.msgPorts = ports
	if err != nil {
		return // malformed frames are dropped silently, like real MACs
	}
	c, ok := a.clients[hdr.Addr2]
	if !ok {
		return // not associated; no state to update, no ACK
	}
	if a.cfg.HIDE {
		a.table.UpdateAt(c.aid, ports, now)
		if a.portSync != nil {
			a.portSync(c.addr, ports)
		}
	}
	a.stats.PortMsgsReceived++
	ack := dot11.ACK{RA: c.addr}
	a.ackBuf = ack.AppendTo(a.ackBuf[:0])
	a.med.Transmit(a.cfg.BSSID, a.ackBuf, dot11.BasicRate)
	a.stats.ACKsSent++
}

// handlePSPoll delivers one buffered unicast frame to the polling
// client, setting MoreData if more remain.
func (a *AP) handlePSPoll(raw []byte) {
	poll, err := dot11.UnmarshalPSPoll(raw)
	if err != nil {
		return
	}
	c, ok := a.byAID[poll.AID]
	if !ok || c.addr != poll.TA || len(c.unicast) == 0 {
		return
	}
	frame := c.unicast[0]
	c.unicast = c.unicast[1:]
	a.dirty = true // TIM unicast bit may clear
	if len(c.unicast) > 0 {
		// Patch the MoreData bit in the stored raw frame.
		fc := dot11.UnmarshalFrameControl([2]byte{frame[0], frame[1]})
		fc.MoreData = true
		b := fc.Marshal()
		frame[0], frame[1] = b[0], b[1]
	}
	a.med.Transmit(a.cfg.BSSID, frame, dot11.BasicRate)
	a.stats.PSPollsServed++
}

// nextSeq returns the next sequence-control value.
func (a *AP) nextSeq() uint16 {
	s := a.seq
	a.seq = (a.seq + 1) & 0x0fff
	return s << 4
}

// BufferedGroupFrames returns the number of group frames currently
// buffered (the paper's n_f when sampled at DTIM boundaries).
func (a *AP) BufferedGroupFrames() int { return len(a.group) }

// PendingUnicast returns the number of buffered unicast frames across
// all clients, closing the unicast conservation equation
// (UnicastEnqueued = PSPollsServed + UnicastFiltered + PendingUnicast).
func (a *AP) PendingUnicast() int {
	n := 0
	for _, c := range a.clients {
		n += len(c.unicast)
	}
	return n
}
