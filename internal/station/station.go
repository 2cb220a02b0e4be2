// Package station implements a smartphone client for the protocol
// simulation: power-save beacon processing, TIM/BTIM interpretation,
// PS-Poll retrieval of buffered unicast frames, an open-UDP-port
// registry standing in for application sockets, and the HIDE suspend
// handshake — a UDP Port Message (with ACK-gated retransmission) sent
// every time before the host enters suspend mode.
//
// The station records every frame its radio receives together with the
// wakelock the frame triggered; the Section IV energy model consumes
// that arrival log, so the protocol simulation and the analytic
// pipeline are priced by the same code.
package station

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/medium"
	"repro/internal/sim"
)

// Mode selects the station's broadcast-handling behaviour.
type Mode int

// Station modes.
const (
	// Legacy is the stock receive-all client: it wakes for the TIM
	// broadcast bit and holds a full wakelock for every group frame.
	Legacy Mode = iota
	// ClientSide is the driver-filter client of [6]: same reception as
	// Legacy, but useless frames get only a short driver wakelock.
	ClientSide
	// HIDE is the paper's client: it syncs open UDP ports to the AP
	// before suspending and wakes for group traffic only when its BTIM
	// bit is set.
	HIDE
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Legacy:
		return "legacy"
	case ClientSide:
		return "client-side"
	case HIDE:
		return "HIDE"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config configures a station.
type Config struct {
	// Addr is the station's MAC address.
	Addr dot11.MACAddr
	// BSSID is the AP it associates with (dot11.Broadcast for any);
	// the sender of the association response it accepts replaces it.
	BSSID dot11.MACAddr
	// Mode selects broadcast handling.
	Mode Mode
	// AckTimeout bounds the wait for a UDP Port Message ACK before
	// retransmission (default DefaultAckTimeout).
	AckTimeout time.Duration
	// ListenInterval is the 802.11 listen interval in beacons: the
	// radio wakes only for every ListenInterval-th beacon (default 1 =
	// every beacon). Skipped beacons cost no energy but may carry DTIM
	// group indications the station then misses — the classic power/
	// latency trade-off, counted in Stats.DTIMsSkipped.
	ListenInterval int
	// PortRefresh re-sends the UDP Port Message when a heard DTIM
	// beacon finds the last acknowledged sync older than this,
	// refreshing the AP's TTL'd port-table entry (ap.Config.PortTTL)
	// from wakeful instants the radio already has. Set it well below
	// the AP's TTL. Zero disables refresh — the paper's
	// send-only-before-suspend behaviour.
	PortRefresh time.Duration
	// MissedBeaconFailSafe arms the fail-safe for lost BTIM beacons: a
	// HIDE station that receives a group frame while its beacon is
	// overdue (the DTIM beacon that would have carried its BTIM bit was
	// lost) falls back to receiving the burst at DTIM cadence instead
	// of sleeping through traffic it may have wanted — fail to awake,
	// never to deaf. Off by default.
	MissedBeaconFailSafe bool
	// Seed perturbs the station's private RNG (retry-backoff jitter).
	// The RNG is folded with the MAC address, so stations sharing a
	// Config.Seed still jitter independently. Randomness is drawn only
	// on retransmissions: fault-free runs consume none and stay
	// byte-identical.
	Seed uint64
}

// DefaultAckTimeout is the default bound on the UDP Port Message ACK
// wait. The windowed-parallel runner stretches Config.AckTimeout by its
// window on top of this: uplink crosses to the AP only at barriers, so
// the handshake round trip grows by up to one window and the stock
// timeout would misread that latency as loss.
const DefaultAckTimeout = 60 * time.Millisecond

// maxRetries bounds the retransmissions of a UDP Port Message and of
// an association request.
const maxRetries = 4

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.ListenInterval <= 0 {
		c.ListenInterval = 1
	}
	return c
}

// Stats counts station-side protocol activity.
type Stats struct {
	BeaconsHeard    int
	GroupReceived   int
	GroupUseful     int
	GroupDropped    int
	UnicastReceived int
	PSPollsSent     int
	PortMsgsSent    int
	PortMsgRetries  int
	ACKsReceived    int
	Suspends        int
	Wakeups         int
	AssocRequests   int
	BeaconsSkipped  int
	DTIMsSkipped    int
	// PortMsgGivenUp counts suspends entered with the port sync
	// unacknowledged after the full retry budget — the AP may hold
	// stale (conservative) information until the next refresh.
	PortMsgGivenUp int
	// PortMsgRefreshes counts TTL-refresh port messages triggered by
	// Config.PortRefresh.
	PortMsgRefreshes int
	// FailSafeBursts counts bursts received via the missed-beacon
	// fail-safe (Config.MissedBeaconFailSafe).
	FailSafeBursts int
	// APRestartsSeen counts beacon-timestamp regressions — AP restarts
	// the station detected and re-registered its ports after.
	APRestartsSeen int
	// ReassocRequests counts reassociation attempts sent while roaming
	// between APs of an ESS (retries included).
	ReassocRequests int
	// Reassociations counts completed roams (reassociation responses
	// accepted).
	Reassociations int
	// DisassocsReceived counts AP-initiated disassociation frames
	// accepted (drain fan-out, liveness eviction): the station detaches
	// locally without transmitting anything back.
	DisassocsReceived int
}

// Observer receives station lifecycle events. Observers run
// synchronously on the simulation goroutine; they must not mutate the
// station. The cross-validation harness (internal/check) uses them to
// assert that suspend/awake intervals are disjoint and cover the
// timeline and that the arrival log stays monotone.
type Observer interface {
	// StateChanged fires on every host suspend/wake transition with the
	// new state. It does not fire for the initial (awake) state.
	StateChanged(now time.Duration, suspended bool)
	// ArrivalRecorded fires for every frame appended to the arrival log.
	ArrivalRecorded(now time.Duration, a energy.Arrival)
}

// Station is the client entity. Create with New, Associate via the AP,
// then call Join with the assigned AID.
type Station struct {
	cfg Config
	eng *sim.Engine
	med medium.Channel
	aid dot11.AID

	ports []uint16 // the sorted open-port list

	listening bool // radio held on for a group-frame burst
	suspended bool
	wlExpiry  time.Duration
	suspendEv sim.Handle

	awaitingACK bool
	retries     int
	ackTimer    sim.Handle
	synced      bool   // the current AP acknowledged a port message
	txBuf       []byte // port-message encode buffer; Transmit never keeps it

	associated   bool
	assocRetries int
	assocTimer   sim.Handle
	beaconSeq    int

	crashed       bool
	rng           *sim.RNG
	lastBeaconAt  time.Duration // last heard beacon (zero until one is heard)
	beaconGap     time.Duration // advertised in the last heard beacon (zero until one is heard)
	lastTimestamp uint64        // last heard TSF timestamp (restart detection)
	haveTimestamp bool
	lastSyncAt    time.Duration // last acknowledged port sync

	arrivals []energy.Arrival
	stats    Stats
	obs      Observer

	// Bound once in New so the rearm-heavy paths (suspend checks fire
	// per arrival, ACK timers per port message) do not allocate a fresh
	// method-value closure per schedule.
	trySuspendFn sim.Event
	ackTimeoutFn sim.Event
}

var _ medium.Node = (*Station)(nil)

// New creates a station attached to the medium.
func New(eng *sim.Engine, med medium.Channel, cfg Config) *Station {
	cfg = cfg.normalized()
	s := &Station{
		cfg: cfg,
		eng: eng,
		med: med,
		rng: sim.NewRNG(cfg.Seed ^ addrSeed(cfg.Addr)),
	}
	s.trySuspendFn = s.trySuspend
	s.ackTimeoutFn = s.ackTimeout
	med.Attach(cfg.Addr, s)
	return s
}

// addrSeed folds the MAC address into an RNG seed so stations sharing
// a Config.Seed still jitter independently.
func addrSeed(a dot11.MACAddr) uint64 {
	var s uint64
	for _, b := range a {
		s = s<<8 | uint64(b)
	}
	return s | 1
}

// Join records the AID assigned by the AP. The station starts in
// active mode (association just happened) and immediately walks the
// suspend path, which for a HIDE station sends the initial UDP Port
// Message — the sync that seeds the AP's Client UDP Port Table.
func (s *Station) Join(aid dot11.AID) error {
	if !aid.Valid() {
		return fmt.Errorf("station: invalid AID %d", aid)
	}
	s.aid = aid
	s.associated = true
	s.setSuspended(false)
	s.wlExpiry = s.eng.Now()
	s.scheduleSuspendCheck()
	return nil
}

// Associated reports whether the station has completed association.
func (s *Station) Associated() bool { return s.associated }

// Associating reports whether an association or reassociation exchange
// is under way: a request is out and its retry timer armed. A station
// that exhausted its retry budget is unassociated but not associating.
func (s *Station) Associating() bool { return !s.associated && s.assocTimer.Pending() }

// StartAssociation performs the frame-level association exchange: the
// station sends an AssocRequest — carrying its Open UDP Ports element
// when in HIDE mode — and retries until the AP's AssocResponse arrives
// or the retry budget is exhausted. On success the station behaves as
// if Join had been called with the assigned AID.
func (s *Station) StartAssociation(ssid string) {
	if s.associated {
		return
	}
	s.startExchange(false, ssid, dot11.MACAddr{})
}

// startExchange begins a (re)association exchange: it clamps the
// SSID, resets the retry budget, and sends the first attempt.
func (s *Station) startExchange(reassoc bool, ssid string, currentAP dot11.MACAddr) {
	if len(ssid) > 32 {
		// 802.11 SSID limit; clamping keeps marshalling infallible.
		ssid = ssid[:32]
	}
	s.assocRetries = 0
	s.sendAssocRequest(reassoc, ssid, currentAP)
}

// sendAssocRequest transmits one (re)association attempt and arms the
// retry timer. A HIDE station's association request carries its open
// ports; its reassociation request deliberately carries an empty
// element: a firmware roam does not resend application state, which
// is exactly what makes the cold-handoff resync window real.
func (s *Station) sendAssocRequest(reassoc bool, ssid string, currentAP dot11.MACAddr) {
	req := &dot11.AssocRequest{
		Header: dot11.MACHeader{
			Addr1: s.cfg.BSSID, Addr2: s.cfg.Addr, Addr3: s.cfg.BSSID,
			FC: dot11.FrameControl{Retry: s.assocRetries > 0},
		},
		Reassoc:   reassoc,
		CurrentAP: currentAP,
		SSID:      ssid,
	}
	if s.cfg.Mode == HIDE {
		req.HIDECapable = true
		if !reassoc {
			req.Ports = s.ports
		}
	}
	raw, err := req.Marshal()
	if err != nil {
		panic(fmt.Sprintf("station: assoc request marshal: %v", err))
	}
	s.med.Transmit(s.cfg.Addr, raw, dot11.BasicRate)
	if reassoc {
		s.stats.ReassocRequests++
	} else {
		s.stats.AssocRequests++
	}
	s.assocTimer.Cancel()
	s.assocTimer = s.eng.MustScheduleAfter(s.cfg.AckTimeout, func(time.Duration) {
		if s.associated {
			return
		}
		s.assocRetries++
		if s.assocRetries > maxRetries {
			return // give up; the station stays unassociated
		}
		s.sendAssocRequest(reassoc, ssid, currentAP)
	})
}

// Leave sends a disassociation frame and detaches from the BSS: the
// AP clears the station's port-table entries, and the station stops
// processing traffic until it associates again.
func (s *Station) Leave(reason uint16) {
	if !s.associated {
		return
	}
	d := &dot11.Disassoc{
		Header: dot11.MACHeader{Addr1: s.cfg.BSSID, Addr2: s.cfg.Addr, Addr3: s.cfg.BSSID},
		Reason: reason,
	}
	s.med.Transmit(s.cfg.Addr, d.Marshal(), dot11.BasicRate)
	s.detach()
}

// Migrate moves the station to another engine and medium shard at a
// barrier instant (both engines idle at the same virtual time) and
// retargets its BSSID — the mechanics of an ESS roam. Call it after
// Leave, when no timers are pending and the station is detached from
// its BSS; Reassociate then performs the frame-level exchange on the
// new shard. The sync bookkeeping is reset: the new AP has not
// acknowledged this station's ports, and the new AP's TSF is
// unrelated to the old one's, so the restart detector must not read
// the first foreign beacon as a timestamp regression. The timer
// handles are dropped with the old engine: its goroutine recycles the
// pooled events they point at, so even a no-op Cancel through them
// from the new shard would race.
func (s *Station) Migrate(eng *sim.Engine, med medium.Channel, bssid dot11.MACAddr) {
	s.assocTimer.Cancel()
	s.suspendEv, s.ackTimer, s.assocTimer = sim.Handle{}, sim.Handle{}, sim.Handle{}
	if om, ok := s.med.(interface{ Detach(dot11.MACAddr) }); ok {
		om.Detach(s.cfg.Addr)
	}
	s.eng = eng
	s.med = med
	s.cfg.BSSID = bssid
	s.synced = false
	s.haveTimestamp = false
	med.Attach(s.cfg.Addr, s)
}

// Reassociate performs the frame-level reassociation exchange toward
// the current BSSID (retargeted by Migrate), naming the AP the
// station roamed away from. The handoff is firmware-level: the host
// stays suspended throughout, so no pre-suspend port sync fires — on
// a cold handoff the new AP's Client UDP Port Table stays empty for
// this client until the next UDP Port Message (the resync window),
// unless the distribution system replicated the entry (warm).
func (s *Station) Reassociate(ssid string, currentAP dot11.MACAddr) {
	if s.associated || s.crashed {
		return
	}
	s.startExchange(true, ssid, currentAP)
}

// Rejoin records the AID assigned on reassociation without waking the
// host — the firmware-level counterpart of Join. The station stays
// suspended; its next port sync (pre-suspend message after a wake, or
// the PortRefresh piggyback on a heard DTIM beacon) is what closes a
// cold handoff's resync window.
func (s *Station) Rejoin(aid dot11.AID) error {
	if !aid.Valid() {
		return fmt.Errorf("station: invalid AID %d", aid)
	}
	s.aid = aid
	s.associated = true
	s.setSuspended(true)
	return nil
}

// Synced reports whether the station's current AP has acknowledged a
// copy of its open-port set. Migrate resets it: the roam-target AP
// has acknowledged nothing, so a false value after a roam marks the
// cold-handoff resync window.
func (s *Station) Synced() bool { return s.synced }

// ListensOn reports whether a UDP port is open on the station.
func (s *Station) ListensOn(p uint16) bool {
	_, ok := slices.BinarySearch(s.ports, p)
	return ok
}

// handleAssocResponse completes a (re)association exchange with the
// AP that answered, which becomes the BSSID. An association response
// joins and wakes the host; a reassociation response completes a roam
// without waking it.
func (s *Station) handleAssocResponse(raw []byte) {
	resp, err := dot11.UnmarshalAssocResponse(raw)
	if err != nil || s.associated {
		return
	}
	if resp.Status != dot11.StatusSuccess || !resp.AID.Valid() {
		return
	}
	s.assocTimer.Cancel()
	s.cfg.BSSID = resp.Header.Addr2
	// Neither Join nor Rejoin can fail here: the AID was just validated.
	if resp.Reassoc {
		err = s.Rejoin(resp.AID)
		s.stats.Reassociations++
	} else {
		err = s.Join(resp.AID)
	}
	if err != nil {
		panic(fmt.Sprintf("station: join after assoc response: %v", err))
	}
}

// AID returns the association ID.
func (s *Station) AID() dot11.AID { return s.aid }

// Addr returns the station's MAC address.
func (s *Station) Addr() dot11.MACAddr { return s.cfg.Addr }

// BSSID returns the AP the station associates with (Config.BSSID).
func (s *Station) BSSID() dot11.MACAddr { return s.cfg.BSSID }

// Stats returns the protocol counters.
func (s *Station) Stats() Stats { return s.stats }

// SetObserver installs the lifecycle observer (nil disables it).
func (s *Station) SetObserver(o Observer) { s.obs = o }

// setSuspended flips the host suspend state, notifying the observer on
// actual transitions only.
func (s *Station) setSuspended(v bool) {
	if s.suspended == v {
		return
	}
	s.suspended = v
	if s.obs != nil {
		s.obs.StateChanged(s.eng.Now(), v)
	}
}

// Arrivals returns a copy of the recorded radio arrivals for energy
// analysis. They are in time order as recorded: each is logged at its
// engine time, which only grows, across an ESS roam too, since shards
// meet at the same barrier instant.
func (s *Station) Arrivals() []energy.Arrival {
	return append([]energy.Arrival(nil), s.arrivals...)
}

// Energy prices the recorded arrivals with the Section IV model over
// duration, at the beacon interval the station heard (BeaconInterval)
// and its listen interval. With withOverhead it adds HIDE's protocol
// overhead Eo (energy.DefaultOverhead).
func (s *Station) Energy(dev energy.Profile, duration time.Duration, withOverhead bool) (energy.Breakdown, error) {
	cfg := energy.Config{
		Device:               dev,
		Duration:             duration,
		BeaconInterval:       s.BeaconInterval(),
		BeaconListenInterval: s.cfg.ListenInterval,
	}
	if withOverhead {
		cfg.Overhead = energy.DefaultOverhead()
	}
	return energy.Compute(s.Arrivals(), cfg)
}

// Suspended reports whether the host is in suspend mode.
func (s *Station) Suspended() bool { return s.suspended }

// OpenPort registers a listening UDP port (an application socket).
func (s *Station) OpenPort(p uint16) {
	if i, ok := slices.BinarySearch(s.ports, p); !ok {
		s.ports = slices.Concat(s.ports[:i], []uint16{p}, s.ports[i:]) // a new list
	}
}

// ClosePort removes a listening UDP port.
func (s *Station) ClosePort(p uint16) {
	if i, ok := slices.BinarySearch(s.ports, p); ok {
		s.ports = slices.Concat(s.ports[:i], s.ports[i+1:]) // a new list
	}
}

// OpenPorts returns a copy of the sorted open-port set.
func (s *Station) OpenPorts() []uint16 {
	return append(make([]uint16, 0, len(s.ports)), s.ports...)
}

// Crash models a client that dies without deregistering: the radio
// goes silent instantly — no disassociation, no final port message —
// leaving the AP with stale Client UDP Port Table entries that only a
// TTL (ap.Config.PortTTL) can clear. The station ignores all traffic
// from here on; its suspend timeline closes in the suspended state.
func (s *Station) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.listening = false
	s.awaitingACK = false
	s.ackTimer.Cancel()
	s.assocTimer.Cancel()
	s.suspendEv.Cancel()
	s.setSuspended(true)
}

// Crashed reports whether Crash was called.
func (s *Station) Crashed() bool { return s.crashed }

// Receive implements medium.Node: it dispatches on the kind the
// channel read and hands a beacon's reading, not its bytes, to
// handleBeacon.
func (s *Station) Receive(f *medium.Frame, now time.Duration) {
	if s.crashed {
		return
	}
	switch f.Kind {
	case dot11.KindAssocResponse, dot11.KindReassocResponse:
		s.handleAssocResponse(f.Raw)
	case dot11.KindBeacon:
		if s.associated && f.BeaconOK {
			s.handleBeacon(&f.Beacon, now)
		}
	case dot11.KindData:
		if s.associated {
			s.handleData(f.Raw, f.Rate, now)
		}
	case dot11.KindACK:
		s.handleACK(now)
	case dot11.KindDisassoc:
		if s.associated {
			s.handleDisassoc(f.Raw)
		}
	}
}

// handleDisassoc processes an AP-initiated disassociation (drain
// fan-out, liveness eviction): the station detaches locally — no frame
// goes back; the AP has already dropped the association. Frames not
// from this BSS, or addressed to another station, are ignored.
func (s *Station) handleDisassoc(raw []byte) {
	d, err := dot11.UnmarshalDisassoc(raw)
	if err != nil {
		return
	}
	if d.Header.Addr2 != s.cfg.BSSID {
		return
	}
	if d.Header.Addr1 != s.cfg.Addr && !d.Header.Addr1.IsMulticast() {
		return
	}
	s.stats.DisassocsReceived++
	s.detach()
}

// Abandon detaches from the BSS without transmitting anything — the
// client-side teardown for an AP that is already gone (a reconnecting
// daemon gives up on a dead AP and starts a fresh association). The
// station can associate again afterwards; compare Leave, which sends
// a disassociation frame first, and Crash, which is terminal.
func (s *Station) Abandon() {
	if !s.associated {
		return
	}
	s.detach()
}

// detach drops the association and quiesces all protocol timers; the
// suspend timeline closes in the suspended state.
func (s *Station) detach() {
	s.associated = false
	s.aid = 0
	s.listening = false
	s.awaitingACK = false
	s.ackTimer.Cancel()
	s.assocTimer.Cancel()
	s.suspendEv.Cancel()
	s.setSuspended(true)
}

// LastBeaconAt returns the virtual time the station last heard a
// beacon (zero before the first), and whether one has been heard since
// association. Supervisors use it to detect a silent AP.
func (s *Station) LastBeaconAt() (time.Duration, bool) {
	return s.lastBeaconAt, s.lastBeaconAt > 0
}

// BeaconInterval returns the interval the last heard beacon advertised,
// or dot11.DefaultBeaconInterval (100 TU) before the first. It inlines
// into the asleep fast path.
func (s *Station) BeaconInterval() time.Duration {
	if s.beaconGap > 0 {
		return s.beaconGap
	}
	return dot11.DefaultBeaconInterval
}

// handleBeacon processes TIM/BTIM indications. The radio wakes for
// every beacon regardless of host state (Section II). b is the
// channel's reading of the beacon, shared with every other receiver
// of the frame: it is only read, and not kept past this call.
func (s *Station) handleBeacon(b *dot11.BeaconReading, now time.Duration) {
	// Listen interval: the radio sleeps through all but every LI-th
	// beacon. Skipped DTIMs may hide group indications.
	s.beaconSeq++
	if s.cfg.ListenInterval > 1 && (s.beaconSeq-1)%s.cfg.ListenInterval != 0 {
		s.stats.BeaconsSkipped++
		if b.HasTIM && b.TIM.DTIMCount == 0 {
			s.stats.DTIMsSkipped++
		}
		return
	}
	s.stats.BeaconsHeard++
	s.observeBeacon(b, now)

	// Group bursts never span beacons: if the end-of-burst frame was
	// lost (MoreData never cleared), the beacon ends the listen window
	// so the radio does not stay on indefinitely.
	if s.listening {
		s.listening = false
		if !s.suspended && !s.awaitingACK {
			s.scheduleSuspendCheck()
		}
	}

	// Unicast indication: poll for each buffered frame.
	if b.HasTIM && b.TIM.UnicastBuffered(s.aid) {
		s.sendPSPoll()
	}

	// Group indication: HIDE stations trust their BTIM bit; legacy and
	// client-side stations obey the standard broadcast bit. A HIDE
	// station whose beacon lacks a BTIM (legacy AP) falls back to the
	// standard behaviour, preserving coexistence in both directions.
	isDTIM := b.HasTIM && b.TIM.DTIMCount == 0
	if !isDTIM {
		return
	}
	switch {
	case s.cfg.Mode == HIDE && b.HasBTIM:
		if b.BTIM.UsefulBroadcastBuffered(s.aid) {
			s.listening = true
		}
	default:
		if b.TIM.Broadcast {
			s.listening = true
		}
	}

	// TTL refresh: a heard DTIM beacon is a wakeful instant the radio
	// already has, so piggyback the port-table refresh on it when the
	// last acknowledged sync has gone stale.
	if s.cfg.PortRefresh > 0 && s.cfg.Mode == HIDE && !s.awaitingACK &&
		now-s.lastSyncAt >= s.cfg.PortRefresh {
		s.retries = 0
		s.stats.PortMsgRefreshes++
		s.sendPortMessage(now)
	}
}

// observeBeacon tracks beacon cadence and the AP's TSF timestamp. A
// timestamp regression means the AP restarted and lost its soft state,
// so a HIDE station re-registers its open ports instead of trusting a
// Client UDP Port Table that no longer exists.
func (s *Station) observeBeacon(b *dot11.BeaconReading, now time.Duration) {
	s.lastBeaconAt = now
	if gap := time.Duration(b.BeaconInterval) * dot11.TU; gap > 0 {
		s.beaconGap = gap
	}
	restarted := s.haveTimestamp && b.Timestamp < s.lastTimestamp
	s.lastTimestamp = b.Timestamp
	s.haveTimestamp = true
	if restarted {
		s.stats.APRestartsSeen++
		s.synced = false
		if s.cfg.Mode == HIDE && !s.awaitingACK {
			s.retries = 0
			s.sendPortMessage(now)
		}
	}
}

// handleData receives group or unicast data frames.
func (s *Station) handleData(raw []byte, rate dot11.Rate, now time.Duration) {
	// Asleep fast path: a group frame reaching a PS-mode radio between
	// listen windows is dropped after reading only its receiver
	// address, before the header parse and the slow path's checks —
	// the dominant delivery at large scale. Neither path allocates:
	// ReadDataFrame reads in place. The outcome matches the
	// slow path exactly: not ours, multicast, not listening, beacon not
	// overdue → return with no state change (and a frame the full parse
	// would reject changes no state on either path).
	if !s.listening {
		if addr1, ok := dot11.Receiver(raw); ok && addr1 != s.cfg.Addr && addr1.IsMulticast() && !s.beaconOverdue(now) {
			return
		}
	}
	var df dot11.DataFrame
	if err := dot11.ReadDataFrame(raw, &df); err != nil {
		return
	}
	if df.Header.Addr1 == s.cfg.Addr {
		// Buffered unicast retrieved via PS-Poll.
		s.stats.UnicastReceived++
		s.recordArrival(raw, rate, now, df.Header.FC.MoreData, energy.Tau)
		if df.Header.FC.MoreData {
			s.sendPSPoll()
		}
		return
	}
	if !df.Header.Addr1.IsMulticast() {
		// A unicast frame for someone else.
		return
	}
	if !s.listening {
		if !s.beaconOverdue(now) {
			// Radio asleep for this frame (PS mode between beacons).
			return
		}
		// Fail safe: group traffic is flowing but the beacon that
		// should have announced it never arrived — the DTIM beacon
		// carrying our BTIM bit was lost. Receive the burst at DTIM
		// cadence rather than sleep through traffic we may have wanted:
		// fail to awake, never to deaf.
		s.listening = true
		s.stats.FailSafeBursts++
	}
	s.stats.GroupReceived++
	// Like a kernel, the driver hands only a whole datagram to a socket.
	useful := false
	if d, err := dot11.ParseUDP(df.Payload); err == nil {
		useful = s.ListensOn(d.DstPort)
	}
	wl := energy.Tau
	switch s.cfg.Mode {
	case ClientSide:
		if !useful {
			wl = energy.DriverWakelock
		}
	case HIDE:
		// The BTIM said something useful is in this burst; frames for
		// other clients still ride along and the driver drops them.
		if !useful {
			wl = 0
		}
	}
	if useful {
		s.stats.GroupUseful++
	} else {
		s.stats.GroupDropped++
	}
	s.recordArrival(raw, rate, now, df.Header.FC.MoreData, wl)
	if !df.Header.FC.MoreData {
		s.listening = false
	}
}

// beaconOverdue reports whether the beacon a just-arrived group frame
// rode behind is missing. Group bursts immediately follow a DTIM
// beacon, so when a group frame arrives, the last heard beacon should
// be under ListenInterval beacon intervals old; beyond that (minus a
// quarter-interval margin for burst airtime and channel-busy beacon
// delays) the announcing beacon was lost. A station that has heard no
// beacon at all measures from time zero, so losing the very first
// beacon also fails safe. Used by the MissedBeaconFailSafe hardening.
func (s *Station) beaconOverdue(now time.Duration) bool {
	if !s.cfg.MissedBeaconFailSafe || s.cfg.Mode != HIDE {
		return false
	}
	gap := s.BeaconInterval()
	window := gap*time.Duration(s.cfg.ListenInterval) - gap/4
	return now-s.lastBeaconAt > window
}

// recordArrival logs a radio arrival and drives the suspend machine.
func (s *Station) recordArrival(raw []byte, rate dot11.Rate, now time.Duration, moreData bool, wl time.Duration) {
	a := energy.Arrival{
		At:       now,
		Length:   len(raw),
		Rate:     rate,
		MoreData: moreData,
		Wakelock: wl,
	}
	s.arrivals = append(s.arrivals, a)
	if s.obs != nil {
		s.obs.ArrivalRecorded(now, a)
	}
	if s.suspended {
		s.setSuspended(false)
		s.stats.Wakeups++
	}
	if exp := now + wl; exp > s.wlExpiry {
		s.wlExpiry = exp
	}
	s.scheduleSuspendCheck()
}

// scheduleSuspendCheck (re)arms the wakelock-expiry event.
func (s *Station) scheduleSuspendCheck() {
	s.suspendEv.Cancel()
	at := s.wlExpiry
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	s.suspendEv = s.eng.MustScheduleAt(at, s.trySuspendFn)
}

// trySuspend initiates suspend once all wakelocks have expired: a HIDE
// station first synchronizes its open ports with the AP and waits for
// the ACK (Figure 2's handshake).
func (s *Station) trySuspend(now time.Duration) {
	if s.suspended || s.awaitingACK || now < s.wlExpiry || s.listening {
		return
	}
	if s.cfg.Mode == HIDE {
		s.retries = 0
		s.sendPortMessage(now)
		return
	}
	s.completeSuspend()
}

// sendPortMessage transmits the UDP Port Message, encoded into the
// station's reused buffer, and arms the ACK timeout.
func (s *Station) sendPortMessage(now time.Duration) {
	msg := dot11.UDPPortMessage{
		Header: dot11.MACHeader{
			Addr1: s.cfg.BSSID, Addr2: s.cfg.Addr, Addr3: s.cfg.BSSID,
			FC: dot11.FrameControl{Retry: s.retries > 0},
		},
		Ports: s.ports,
	}
	s.txBuf = msg.AppendTo(s.txBuf[:0])
	s.med.Transmit(s.cfg.Addr, s.txBuf, dot11.BasicRate)
	s.stats.PortMsgsSent++
	if s.retries > 0 {
		s.stats.PortMsgRetries++
	}
	s.awaitingACK = true
	s.ackTimer.Cancel()
	s.ackTimer = s.eng.MustScheduleAfter(s.ackWait(), s.ackTimeoutFn)
}

// maxBackoffShift caps the exponential ACK-timeout backoff at 16× the
// base timeout.
const maxBackoffShift = 4

// ackWait returns the ACK timeout for the current attempt: the base
// timeout on the first try (drawing no randomness, preserving
// byte-identity for clean runs), then exponential backoff with ±25%
// jitter from the station's private RNG so retry storms from many
// stations desynchronize instead of colliding in lockstep.
func (s *Station) ackWait() time.Duration {
	if s.retries == 0 {
		return s.cfg.AckTimeout
	}
	shift := s.retries
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := s.cfg.AckTimeout << uint(shift)
	jitter := time.Duration((s.rng.Float64() - 0.5) * 0.5 * float64(d))
	return d + jitter
}

// ackTimeout retransmits the port message with backoff, or exhausts
// the retry budget, gives up, and suspends anyway (the AP will simply
// have stale — conservative — information until the next refresh).
func (s *Station) ackTimeout(now time.Duration) {
	if !s.awaitingACK {
		return
	}
	s.retries++
	if s.retries > maxRetries {
		s.awaitingACK = false
		s.stats.PortMsgGivenUp++
		if now >= s.wlExpiry && !s.listening {
			s.completeSuspend()
		}
		return
	}
	s.sendPortMessage(now)
}

// handleACK completes the suspend handshake.
func (s *Station) handleACK(now time.Duration) {
	if !s.awaitingACK {
		return
	}
	s.awaitingACK = false
	s.ackTimer.Cancel()
	s.stats.ACKsReceived++
	s.synced = true
	s.lastSyncAt = now
	if now >= s.wlExpiry && !s.listening {
		s.completeSuspend()
	}
}

// completeSuspend puts the host into suspend mode.
func (s *Station) completeSuspend() {
	if s.suspended {
		return
	}
	s.setSuspended(true)
	s.stats.Suspends++
}

// sendPSPoll requests one buffered unicast frame.
func (s *Station) sendPSPoll() {
	poll := &dot11.PSPoll{AID: s.aid, BSSID: s.cfg.BSSID, TA: s.cfg.Addr}
	s.med.Transmit(s.cfg.Addr, poll.Marshal(), dot11.BasicRate)
	s.stats.PSPollsSent++
}
