package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/station"
	"repro/internal/trace"
)

// Network assembles the full protocol simulation: one AP and a set of
// stations on an emulated channel, with a broadcast trace replayed
// through the AP's group-frame queue. It cross-validates the analytic
// pipeline: the stations exchange real marshalled frames, and their
// recorded arrivals feed the same Section IV energy model.
type Network struct {
	Engine  *sim.Engine
	Medium  *medium.Medium
	AP      *ap.AP
	BSSID   dot11.MACAddr
	SSID    string
	entries []*station.Station
	cohorts []*station.CohortStation
	capture *Capture // fed by tap
	monitor *Monitor // fed by tap

	seed          uint64
	harden        bool
	portRefresh   time.Duration // station-side TTL refresh cadence when hardened
	refreshJitter float64       // per-station refresh desynchronization factor
	used          int           // highest station number attached (cohort members included)
}

// NetworkConfig configures NewNetwork.
type NetworkConfig struct {
	// SSID names the network (default "hide-sim").
	SSID string
	// DTIMPeriod is in beacon intervals (default ap.DefaultDTIMPeriod).
	// Beacons go out every dot11.DefaultBeaconInterval.
	DTIMPeriod int
	// HIDE enables the AP's HIDE extensions.
	HIDE bool
	// FilterUnicast enables the AP-side unicast filtering extension
	// (paper §I): unicast UDP frames to a HIDE client's closed ports
	// are dropped at the AP.
	FilterUnicast bool
	// Loss is the medium's independent per-delivery loss probability,
	// in [0, 1).
	Loss float64
	// Fault installs a composable fault plan on the medium, consulted
	// once per delivery (after the Loss knob, when both are set). Nil
	// leaves the channel pristine — byte-identical to fault-free
	// builds.
	Fault fault.Plan
	// Harden enables the protocol hardening the fault subsystem
	// motivates: the AP expires Client UDP Port Table entries after a
	// TTL of 8 DTIM periods, stations refresh their entries every 3
	// DTIM periods and arm the missed-beacon fail-safe. Off, the
	// protocol behaves exactly as the paper describes (and as the
	// golden figures record).
	Harden bool
	// RefreshJitter desynchronizes the hardened port-refresh cadence:
	// each station's PortRefresh interval is stretched by a
	// deterministic per-station factor drawn uniformly from
	// [1, 1+RefreshJitter]. All stations join at t=0 and share the
	// same refresh period, so without jitter every refresh round lands
	// in the same beacon interval — the N≳500 congestion collapse the
	// million-client experiments record, where refresh traffic alone
	// saturates the channel. Values around 1.0 (a full period of
	// spread) break the phase lock. Zero keeps the synchronized
	// cadence and is byte-identical to builds without the knob.
	// Ignored unless Harden is set (legacy stations never refresh).
	RefreshJitter float64
	// Seed drives the medium's fault RNG and the stations' jitter RNGs.
	Seed uint64
	// BSSID overrides the AP's MAC address (zero selects the default).
	// ESS shards use it to give every AP a distinct address while
	// shard 0 keeps the single-AP default, so a K=1 ESS is
	// byte-identical to a plain Network.
	BSSID dot11.MACAddr
}

// Validate reports the first setting NewNetwork rejects: a loss
// probability outside [0, 1), or a RefreshJitter that is negative,
// NaN, or stretches the hardened refresh period past what a
// time.Duration holds.
func (cfg NetworkConfig) Validate() error {
	if !(cfg.Loss >= 0 && cfg.Loss < 1) {
		return fmt.Errorf("core: loss probability %v outside [0, 1)", cfg.Loss)
	}
	refresh := cfg.portRefresh()
	if !(cfg.RefreshJitter >= 0 && float64(refresh)*(1+cfg.RefreshJitter) < math.MaxInt64) {
		return fmt.Errorf("core: RefreshJitter %v is negative, NaN, or stretches the %v port-refresh period past time.Duration", cfg.RefreshJitter, refresh)
	}
	return nil
}

// NewNetwork builds an engine, medium, and AP.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SSID == "" {
		cfg.SSID = "hide-sim"
	}
	eng := sim.New()
	med := newMedium(eng, cfg.Seed+1, cfg.Loss, cfg.Fault)

	var portTTL time.Duration
	if cfg.Harden {
		portTTL = 8 * cfg.dtimSpan()
	}

	bssid := cfg.BSSID
	if bssid == (dot11.MACAddr{}) {
		bssid = dot11.MACAddr{0x02, 0x1d, 0xe0, 0x00, 0x00, 0x01}
	}
	a := ap.New(eng, med, ap.Config{
		BSSID:         bssid,
		SSID:          cfg.SSID,
		DTIMPeriod:    cfg.DTIMPeriod,
		HIDE:          cfg.HIDE,
		FilterUnicast: cfg.FilterUnicast,
		PortTTL:       portTTL,
	})
	return &Network{
		Engine: eng, Medium: med, AP: a, BSSID: bssid, SSID: cfg.SSID,
		seed: cfg.Seed, harden: cfg.Harden, portRefresh: cfg.portRefresh(),
		refreshJitter: cfg.RefreshJitter,
	}, nil
}

// dtimSpan is the time between DTIM beacons: the DTIM period
// (ap.DefaultDTIMPeriod when unset) times the beacon interval.
func (cfg NetworkConfig) dtimSpan() time.Duration {
	period := cfg.DTIMPeriod
	if period <= 0 {
		period = ap.DefaultDTIMPeriod
	}
	return time.Duration(period) * dot11.DefaultBeaconInterval
}

// portRefresh is the hardened stations' port-refresh cadence before
// jitter. Hardening cadences derive from the DTIM span: stations
// refresh their port-table entries every 3 DTIM periods and the AP
// expires entries not refreshed within 8 — room for two whole refresh
// rounds (each with its own retry budget) to be lost before a live
// client's entry can age out.
func (cfg NetworkConfig) portRefresh() time.Duration { return 3 * cfg.dtimSpan() }

// newMedium builds a medium on eng with its fault RNG seeded by seed:
// a positive loss installs fault.Loss, and plan is composed after it.
// With neither the channel is pristine. NewNetwork and the windowed
// groups both build their media here, with a loss NewNetwork has
// validated.
func newMedium(eng *sim.Engine, seed uint64, loss float64, plan fault.Plan) *medium.Medium {
	if loss > 0 {
		if plan == nil {
			plan = fault.Loss{P: loss}
		} else {
			plan = fault.Compose(fault.Loss{P: loss}, plan)
		}
	}
	med := medium.New(eng, seed)
	med.SetFaultPlan(plan)
	return med
}

// AddStation creates and attaches a station with the given open ports
// and starts the frame-level association exchange: the AssocRequest —
// carrying the Open UDP Ports element for HIDE stations — goes over
// the medium and the AP assigns the AID in its response. Association
// completes within the first milliseconds of the simulation run.
func (n *Network) AddStation(mode station.Mode, openPorts []uint16) (*station.Station, error) {
	return n.AddStationAt(n.used+1, mode, openPorts, 1)
}

// Replay schedules every frame of the trace as a group datagram
// arriving at the AP from the distribution system, starts the AP's
// beacon loop, and runs the simulation to ReplayEnd(tr).
func (n *Network) Replay(tr *trace.Trace) error {
	if err := n.ScheduleReplay(tr); err != nil {
		return err
	}
	n.Engine.RunUntil(ReplayEnd(tr))
	return nil
}

// ReplayEnd is the instant every replay of tr runs to: the trace
// duration plus one beacon interval of drain time. Every execution
// mode and every check that prices or inspects a replay reads it.
func ReplayEnd(tr *trace.Trace) time.Duration {
	return tr.Duration + dot11.DefaultBeaconInterval
}

// ScheduleReplay is Replay without the run: it validates the trace,
// starts the beacon loop, and queues the trace's first frame (a
// one-pass StartReplay from time 0), leaving the engine untouched so
// the caller drives it — the ESS advances all shard engines in
// lockstep windows instead of one RunUntil. A plain Replay is
// ScheduleReplay followed by RunUntil(ReplayEnd(tr)), and the ESS's
// final window lands on exactly that deadline, which is what makes a
// roam-free K=1 ESS byte-identical.
func (n *Network) ScheduleReplay(tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	n.AP.Start()
	_, err := StartReplay(n.Engine, n.AP, tr, 0, false)
	return err
}

// Replayer is a trace replay in progress on one engine, the walker
// behind Network.ScheduleReplay and hided's scenario loop. Only one
// replay event is queued at a time: each frame's event schedules the
// next frame before handing its own to the AP. A pass's frame 0 takes
// an ordinary slot and its frame i fires at that slot's offset i, so
// frame i sorts where it would if every frame of the pass had been
// queued up front (consecutive seqs from frame 0's): ties with
// beacons, deliveries and timers fire in the same order. The walker
// carries no per-frame closure, and frames are read in place from the
// (immutable, shared) trace, whose Datagram shares its padding.
type Replayer struct {
	eng    *sim.Engine
	ap     *ap.AP
	frames []trace.Frame
	loop   time.Duration // pass length when looping, 0 for one pass
	base   time.Duration // the current pass's start
	next   int           // index of the frame whose event is queued
	slot   sim.Slot      // the pass's frame 0 slot; frame i fires at its offset i
	ev     sim.Handle    // the queued frame event
	fireFn sim.Event
}

// StartReplay replays tr on eng from time from: each frame reaches a
// as a group datagram from the distribution system at from plus its
// offset. With loop set the walk starts over every tr.Duration until
// Stop; otherwise it ends after one pass. It neither validates the
// trace nor starts the AP's beacon loop.
func StartReplay(eng *sim.Engine, a *ap.AP, tr *trace.Trace, from time.Duration, loop bool) (*Replayer, error) {
	r := &Replayer{eng: eng, ap: a, frames: tr.Frames, base: from}
	if loop && tr.Duration > 0 {
		r.loop = tr.Duration
	}
	r.fireFn = r.fire
	if len(r.frames) == 0 {
		return r, nil
	}
	if err := r.startPass(); err != nil {
		return nil, fmt.Errorf("core: scheduling trace frame: %w", err)
	}
	return r, nil
}

// startPass queues frame 0 of the pass starting at r.base in a fresh
// slot.
func (r *Replayer) startPass() (err error) {
	r.next = 0
	r.ev, err = r.eng.ScheduleAt(r.base+r.frames[0].At, r.fireFn)
	r.slot, _ = r.ev.Slot()
	return err
}

// fire queues the next frame, then hands this one to the AP.
func (r *Replayer) fire(time.Duration) {
	f := &r.frames[r.next]
	r.next++
	switch {
	case r.next < len(r.frames):
		r.ev = r.eng.MustScheduleAtSlot(r.base+r.frames[r.next].At, r.slot.Offset(r.next), r.fireFn)
	case r.loop > 0:
		r.base += r.loop
		if err := r.startPass(); err != nil {
			panic(err) // the next pass starts after this frame, never in the past
		}
	}
	r.ap.EnqueueGroup(f.Datagram(), f.Rate)
}

// Stop cancels the replay's queued event: no further frame of the
// trace reaches the AP. It runs on the engine.
func (r *Replayer) Stop() { r.ev.Cancel() }

// Stations returns the attached stations in attachment order.
func (n *Network) Stations() []*station.Station {
	return append([]*station.Station(nil), n.entries...)
}

// StationEnergy evaluates the Section IV model over a station's
// recorded arrivals (station.Station.Energy).
func (n *Network) StationEnergy(st *station.Station, dev energy.Profile, duration time.Duration, withOverhead bool) (energy.Breakdown, error) {
	return st.Energy(dev, duration, withOverhead)
}

// stationBase anchors the station MAC address space: station (or
// cohort member) number idx — 1-based — lives at AddrAdd(stationBase,
// idx), which reproduces the historical {0x02,0x1d,0xe0,0x01,hi,lo}
// layout for the first 65535 stations and extends it contiguously
// through the 24-bit block for million-member cohorts.
var stationBase = dot11.MACAddr{0x02, 0x1d, 0xe0, 0x01, 0x00, 0x00}

// stationConfig assembles the station.Config for station number idx,
// applying the network's hardening knobs.
func (n *Network) stationConfig(idx int, mode station.Mode, li int) station.Config {
	scfg := station.Config{
		Addr:           dot11.AddrAdd(stationBase, idx),
		BSSID:          n.BSSID,
		Mode:           mode,
		ListenInterval: li,
		Seed:           n.seed,
	}
	//lint:ignore rngdraw harden is fixed per-run config, so the guard is constant for the whole run and every station draws the same count; the jitter RNG is constructed per station, not shared
	if n.harden {
		scfg.PortRefresh = n.portRefresh
		//lint:ignore rngdraw RefreshJitter is fixed per-run config, so the guard is constant for the whole run and every station draws the same count; the stream is station-indexed, not shared
		if n.refreshJitter > 0 {
			// A per-station factor in [1, 1+jitter] drawn from a
			// station-indexed stream: deterministic for a given
			// (Seed, idx) no matter how many stations exist or in
			// what order they attach.
			u := sim.NewRNG(n.seed ^ (0x9e3779b97f4a7c15 * uint64(idx))).Float64()
			scfg.PortRefresh = time.Duration(float64(n.portRefresh) * (1 + n.refreshJitter*u))
		}
		scfg.MissedBeaconFailSafe = true
	}
	return scfg
}

// AddStationListenInterval is AddStation with an 802.11 listen
// interval: the station's radio wakes only for every li-th beacon.
func (n *Network) AddStationListenInterval(mode station.Mode, openPorts []uint16, li int) (*station.Station, error) {
	return n.AddStationAt(n.used+1, mode, openPorts, li)
}

// AddStationAt is AddStationListenInterval for station number idx
// (1-based, the numbering AddStation counts up), from which the
// station's address, RNG and refresh jitter derive. The ESS attaches
// every station to its shard's Network under an ESS-wide number, so
// addresses stay unique across shards while each station is built
// exactly as a plain Network would build it.
func (n *Network) AddStationAt(idx int, mode station.Mode, openPorts []uint16, li int) (*station.Station, error) {
	return n.attachStation(attachment{idx: idx, eng: n.Engine, med: n.Medium}, mode, openPorts, li)
}

// AddCohort attaches count identical stations as one scheduled entity
// (station.CohortStation): one representative behind one association
// (ap.AssociateAggregate) stands for every member, so populations of
// 10⁵–10⁶ clients fit the AID space. A population that must be exact
// is attached as stations.
func (n *Network) AddCohort(mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error) {
	return n.AddCohortAt(n.used+1, mode, openPorts, count, li)
}

// AddCohortAt is AddCohort for the block of station numbers
// [idx, idx+count), the cohort counterpart of AddStationAt.
func (n *Network) AddCohortAt(idx int, mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error) {
	return n.attachCohort(attachment{idx: idx, eng: n.Engine, med: n.Medium}, mode, openPorts, count, li)
}

// attachment says where a station or cohort attaches: the station
// number of its first member, and the engine and medium it runs on —
// the network's own, or a windowed group's replica.
type attachment struct {
	idx    int
	eng    *sim.Engine
	med    *medium.Medium
	direct bool // associate out of band instead of by frame exchange
	// ackTimeout overrides station.DefaultAckTimeout when positive.
	ackTimeout time.Duration
}

// admit checks that the station numbers [at.idx, at.idx+count) fit
// the station address space and that an AID is still free — the AP's,
// minus those owed to attached stations not yet associated — and
// returns the first member's configuration.
func (n *Network) admit(at attachment, count int, mode station.Mode, li int) (station.Config, error) {
	if at.idx < 1 || at.idx+count-1+0x010000 >= dot11.MaxAddrBlock {
		return station.Config{}, fmt.Errorf("core: stations %d..%d exceed the station address space", at.idx, at.idx+count-1)
	}
	free := n.AP.FreeAIDs()
	for _, st := range n.entries {
		if !st.Associated() {
			free--
		}
	}
	if free < 1 {
		return station.Config{}, fmt.Errorf("core: association space exhausted")
	}
	scfg := n.stationConfig(at.idx, mode, li)
	scfg.AckTimeout = at.ackTimeout
	return scfg, nil
}

// attachStation is the one path that attaches a station: it admits the
// station, builds it on at's engine and medium with its ports open, and
// associates it — by frame exchange, or out of band when at.direct.
func (n *Network) attachStation(at attachment, mode station.Mode, openPorts []uint16, li int) (*station.Station, error) {
	scfg, err := n.admit(at, 1, mode, li)
	if err != nil {
		return nil, err
	}
	st := station.New(at.eng, at.med, scfg)
	for _, p := range openPorts {
		st.OpenPort(p)
	}
	if at.direct {
		aid, err := n.AP.Associate(scfg.Addr, mode == station.HIDE)
		if err != nil {
			return nil, err
		}
		if err := st.Join(aid); err != nil {
			return nil, err
		}
	} else {
		st.StartAssociation(n.SSID)
	}
	n.used = max(n.used, at.idx)
	n.entries = append(n.entries, st)
	return st, nil
}

// attachCohort is the one path that attaches a cohort: its
// representative associates out of band, behind one AID.
func (n *Network) attachCohort(at attachment, mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error) {
	scfg, err := n.admit(at, count, mode, li)
	if err != nil {
		return nil, err
	}
	c, err := station.NewCohort(at.eng, at.med, station.CohortConfig{Config: scfg, Count: count})
	if err != nil {
		return nil, err
	}
	for _, p := range openPorts {
		c.OpenPort(p)
	}
	aid, err := n.AP.AssociateAggregate(scfg.Addr, count, mode == station.HIDE)
	if err != nil {
		return nil, err
	}
	if err := c.Join(aid); err != nil {
		return nil, err
	}
	n.used = max(n.used, at.idx+count-1)
	n.cohorts = append(n.cohorts, c)
	return c, nil
}

// Cohorts returns the attached cohorts in attachment order.
func (n *Network) Cohorts() []*station.CohortStation {
	return append([]*station.CohortStation(nil), n.cohorts...)
}

// CohortEnergy evaluates the Section IV model over the cohort's
// representative (station.Station.Energy) and returns both the
// per-member breakdown and the cohort-wide aggregate (per-member
// scaled by the cohort's count).
func (n *Network) CohortEnergy(c *station.CohortStation, dev energy.Profile, duration time.Duration, withOverhead bool) (member, total energy.Breakdown, err error) {
	member, err = c.Template().Energy(dev, duration, withOverhead)
	if err != nil {
		return energy.Breakdown{}, energy.Breakdown{}, err
	}
	return member, member.Scale(c.Count()), nil
}
