// Package ess assembles an Extended Service Set: K HIDE-capable APs,
// each owning its own medium shard and event loop, joined by a
// distribution-system (DS) channel, with clients that roam between
// the APs via disassociation/reassociation frames.
//
// # Execution model
//
// Each AP shard is a complete single-BSS simulation — an engine, a
// medium, an AP, and the stations currently homed there — built from
// the same core.Network assembly the single-AP runs use. Time is cut
// into windows of one beacon interval, and every shard's engine runs
// to each window's barrier instant in turn (one goroutine per shard,
// bounded by Config.Workers). The shards halt together only at a
// stop: a barrier where the mobility schedule, drawn before the first
// event, has a hit; the barrier after a stop that left a roamed
// station's reassociation under way; and the run's end. Between two
// stops, in a span, each shard runs through the barriers on its own
// and shares nothing mutable: it appends to its own DS queue, and the
// directory is written only at stops. At a stop the DS records are merged
// window by window and, inside a window, shard by shard, and the
// roams are applied in client index order — the order a merge at
// every barrier would take. The one directory read that must see
// every record merged before it, the roam-target AP's port lookup,
// is served only in a window that begins at a stop, and a lookup
// anywhere else fails the run. So the run is byte-identical for any
// worker count, and a roam-free K=1 ESS replays exactly the event
// sequence of a plain core.Network — the equivalence the check
// package proves.
//
// # Roaming
//
// Mobility is seed-driven: at each barrier every client tosses a
// deterministic RNG against the per-window roam probability and, on a
// hit, moves to a uniformly chosen other AP. The tosses read no
// simulation state, so the whole run's schedule is drawn up front;
// only whether a hit client can move (it must be associated and not
// crashed) is decided at its stop. The handoff is firmware-level —
// the host stays suspended — so the station's open ports are NOT
// re-sent in the reassociation request. What happens to
// the Client UDP Port Table distinguishes the two policies under
// study:
//
//   - Cold (Replicate false): the new AP knows nothing about the
//     client's ports. Its BTIM bits stay clear until the client's
//     next port sync (the hardened TTL-refresh piggyback, or the next
//     host wake) — the resync window, during which every wanted
//     broadcast frame is silently hidden from the client.
//   - Replicated (Replicate true): every port set an AP learns from
//     the air is exported to the DS and merged at the next stop, and
//     the roam-target AP seeds its table from the replicated directory
//     at reassociation time — no resync window, at the cost of DS
//     traffic.
//
// Stats counts both the wanted-frame misses and the subset
// attributable to resync windows, so the energy/miss cost of cold
// versus replicated handoffs can be quantified across churn rates.
package ess

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/station"
	"repro/internal/trace"
)

// essBSSIDBase anchors shard BSSIDs: AP k lives at AddrAdd(base, k+1),
// so shard 0 owns the single-AP default {..., 0x00, 0x01} and a K=1
// ESS keeps the exact BSSID a plain core.Network would use.
var essBSSIDBase = dot11.MACAddr{0x02, 0x1d, 0xe0, 0x00, 0x00, 0x00}

// barrierEvery is the window between barriers: one beacon interval.
// Roams and DS merges happen only at the barriers that are stops.
const barrierEvery = dot11.DefaultBeaconInterval

// maxAPs keeps the BSSID block clear of the station address space,
// which starts 0x010000 addresses above the AP base.
const maxAPs = 0xfffe

// Config configures New.
type Config struct {
	// APs is the number of access points K (default 1).
	APs int
	// Network is the per-shard assembly template. Shard k derives its
	// seed as Network.Seed+k and its BSSID from the ESS block; the
	// SSID, DTIM cadence, HIDE/Harden knobs, and loss probability are
	// shared by every AP of the ESS. Network.Fault must stay nil when
	// APs > 1: plans may be stateful and a single instance cannot be
	// shared across shard goroutines.
	Network core.NetworkConfig
	// Replicate selects the warm-handoff policy: port tables are
	// proactively replicated over the DS and seeded into the
	// roam-target AP at reassociation time. False leaves handoffs
	// cold — BTIM filtering resumes only after the client's next UDP
	// Port Message.
	Replicate bool
	// RoamRate is the expected number of roams per client per minute.
	// Zero disables mobility; New rejects a negative or non-finite
	// rate.
	RoamRate float64
	// RoamSeed drives the mobility and DS-loss RNGs.
	RoamSeed uint64
	// DSLoss is the probability, in [0, 1], that one replicated record
	// is lost in the distribution system (dropped at the merge) — the
	// chaos knob the roam-under-fault suite targets.
	DSLoss float64
	// Workers bounds the shard parallelism: 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the sequential path. Each span
	// between two stops is one fan-out, in which every shard runs
	// through all of the span's barriers on its own. The result is
	// byte-identical for any value.
	Workers int
}

// Stats aggregates ESS-level protocol activity.
type Stats struct {
	// Roams counts completed handoffs. CohortRoams is always 0:
	// cohorts stand for their members behind one association and stay
	// on the AP they attached to. The field keeps recorded outputs in
	// shape.
	Roams       int
	CohortRoams int
	// RoamsDeferred counts mobility hits that could not move the
	// client this window (crashed or unassociated stations).
	RoamsDeferred int
	// Reassociations sums the reassociation exchanges served by all
	// APs (retries make it ≥ Roams for station roams).
	Reassociations int
	// DSRecordsReplicated and DSRecordsDropped count port-table
	// records merged into, and lost on the way to, the DS directory.
	DSRecordsReplicated int
	DSRecordsDropped    int
	// PortsSeededOnRoam counts port-table entries seeded at
	// reassociation time from the replicated directory.
	PortsSeededOnRoam int
	// WantedMisses counts buffered group frames a HIDE client
	// listening on the frame's port slept through because its BTIM
	// bit was clear; ResyncWindowMisses is the subset incurred while
	// the client's current AP had no acknowledged copy of its ports —
	// the cold-handoff cost.
	WantedMisses       int
	ResyncWindowMisses int
}

// dsRecord is one replicated port-table entry in flight to the DS.
type dsRecord struct {
	addr  dot11.MACAddr
	ports []uint16
}

// homedStation pairs a station with its mode for the miss observer.
type homedStation struct {
	st   *station.Station
	mode station.Mode
}

// Shard is one AP's slice of the ESS: a complete single-BSS assembly
// plus the DS queue and miss counters local to its event loop.
type Shard struct {
	// Net is the shard's single-BSS assembly (engine, medium, AP). Its
	// Stations and Cohorts list the clients attached to this shard;
	// stations stay listed wherever they have roamed since.
	Net *core.Network

	idx     int
	dsQueue []dsRecord
	// marks holds len(dsQueue) at each barrier the shard has passed
	// since the last stop, so the merge can fold the queue window by
	// window.
	marks    []int
	stations []homedStation // clients homed here; mutated only at stops

	// atStop is set while the shard runs a window that began at a
	// stop, where the DS directory holds every record merged before
	// the window; staleLookup records a roam lookup served in any
	// other window.
	atStop      bool
	staleLookup bool

	wantedMisses int
	resyncMisses int
}

// BeaconBuilt implements ap.Observer: on every DTIM with buffered
// group traffic it charges a wanted-frame miss for each HIDE station
// homed on this shard that listens on a buffered frame's port but
// whose BTIM bit is clear. It runs on the shard's event loop and
// touches only shard-local clients, so spans stay race-free.
func (sh *Shard) BeaconBuilt(now time.Duration, v ap.BeaconView) {
	if !v.IsDTIM || len(v.BufferedPorts) == 0 || v.Beacon.BTIM == nil {
		return
	}
	btim := v.Beacon.BTIM
	for _, h := range sh.stations {
		if h.mode != station.HIDE || !h.st.Associated() || h.st.Crashed() {
			continue
		}
		wanted := 0
		for _, p := range v.BufferedPorts {
			if h.st.ListensOn(p) {
				wanted++
			}
		}
		if wanted == 0 || btim.UsefulBroadcastBuffered(h.st.AID()) {
			continue
		}
		sh.wantedMisses += wanted
		if !h.st.Synced() {
			sh.resyncMisses += wanted
		}
	}
}

// member is one roamable station in global attachment order.
type member struct {
	st    *station.Station
	mode  station.Mode
	shard int
}

// ESS is the multi-AP assembly. Create with New, populate with
// AddStation/AddCohort, then drive with RunContext.
type ESS struct {
	cfg     Config
	shards  []*Shard
	members []*member
	dir     map[dot11.MACAddr][]uint16 // DS directory; written only at stops
	roamRng *sim.RNG
	dsRng   *sim.RNG
	stats   Stats
	used    int // station addresses consumed (cohort members included)
	placed  int // Add* calls, for round-robin shard placement
	now     time.Duration
	// roaming lists the stations moved at a stop whose reassociation
	// exchange was still under way at the last stop; while it is not
	// empty, the next barrier is a stop.
	roaming []*member
}

// toss is one hit of the mobility schedule: at barrier number barrier
// of the run, m moves to the pick-th of the other APs.
type toss struct {
	barrier int
	m       *member
	pick    int
}

// validate reports the first setting New rejects, the shards'
// network template included.
func (cfg Config) validate() error {
	k := max(cfg.APs, 1)
	switch {
	case k > maxAPs:
		return fmt.Errorf("ess: %d APs exceeds the BSSID block (max %d)", k, maxAPs)
	case k > 1 && cfg.Network.Fault != nil:
		return fmt.Errorf("ess: Network.Fault cannot be shared across %d shards", k)
	case cfg.Network.BSSID != (dot11.MACAddr{}):
		return fmt.Errorf("ess: shard BSSIDs are assigned from the ESS block; Network.BSSID must be zero")
	case !(cfg.RoamRate >= 0 && cfg.RoamRate <= math.MaxFloat64):
		return fmt.Errorf("ess: RoamRate %v is not a finite rate ≥ 0", cfg.RoamRate)
	case !(cfg.DSLoss >= 0 && cfg.DSLoss <= 1):
		return fmt.Errorf("ess: DSLoss %v outside [0, 1]", cfg.DSLoss)
	}
	return cfg.Network.Validate()
}

// New builds K AP shards from the shared network template.
func New(cfg Config) (*ESS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := max(cfg.APs, 1)
	e := &ESS{
		cfg:     cfg,
		dir:     make(map[dot11.MACAddr][]uint16),
		roamRng: sim.NewRNG(cfg.RoamSeed ^ 0x9e3779b97f4a7c15),
		dsRng:   sim.NewRNG(cfg.RoamSeed ^ 0xd1b54a32d192ed03),
	}
	for i := 0; i < k; i++ {
		ncfg := cfg.Network
		ncfg.Seed += uint64(i)
		ncfg.BSSID = dot11.AddrAdd(essBSSIDBase, i+1)
		n, err := core.NewNetwork(ncfg)
		if err != nil {
			return nil, fmt.Errorf("ess: shard %d: %w", i, err)
		}
		sh := &Shard{Net: n, idx: i}
		if cfg.Replicate {
			n.AP.SetPortSync(func(addr dot11.MACAddr, ports []uint16) {
				// Directory values are never written into, so a record
				// of an unchanged set shares the directory's slice. The
				// directory changes only at stops, so this read is
				// race-free; a stale entry only costs a copy.
				rec := e.dir[addr]
				if !slices.Equal(rec, ports) {
					rec = append([]uint16(nil), ports...)
				}
				sh.dsQueue = append(sh.dsQueue, dsRecord{addr: addr, ports: rec})
			})
			n.AP.SetRoamPortLookup(func(addr dot11.MACAddr) []uint16 {
				if !sh.atStop {
					sh.staleLookup = true
				}
				return e.dir[addr]
			})
		}
		n.AP.AddObserver(sh)
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

// Shards returns the AP shards in index order.
func (e *ESS) Shards() []*Shard { return e.shards }

// Now returns the time of the last stop, which is the run's end once
// RunContext has returned. Between stops the shards' own clocks run
// ahead of it.
func (e *ESS) Now() time.Duration { return e.now }

// AddStation attaches a station to the next shard (round-robin)
// through the shard Network's AddStationAt, under the next ESS-wide
// station number so addresses stay unique across shards: it is built,
// configured and associated by frame exchange exactly as a plain
// core.Network would attach it.
func (e *ESS) AddStation(mode station.Mode, openPorts []uint16, li int) (*station.Station, error) {
	sh := e.shards[e.placed%len(e.shards)]
	st, err := sh.Net.AddStationAt(e.used+1, mode, openPorts, li)
	if err != nil {
		return nil, err
	}
	e.used++
	e.placed++
	sh.stations = append(sh.stations, homedStation{st: st, mode: mode})
	e.members = append(e.members, &member{st: st, mode: mode, shard: sh.idx})
	return st, nil
}

// AddCohort attaches a cohort to the next shard (round-robin) through
// the shard Network's AddCohortAt. A cohort stands for its members
// behind one association and does not roam.
func (e *ESS) AddCohort(mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error) {
	sh := e.shards[e.placed%len(e.shards)]
	c, err := sh.Net.AddCohortAt(e.used+1, mode, openPorts, count, li)
	if err != nil {
		return nil, err
	}
	e.used += count
	e.placed++
	return c, nil
}

// Stations returns the individually-modeled stations in global
// attachment order, regardless of which shard they currently home on.
func (e *ESS) Stations() []*station.Station {
	out := make([]*station.Station, len(e.members))
	for i, m := range e.members {
		out[i] = m.st
	}
	return out
}

// StationEnergy prices a station's recorded arrivals with the Section
// IV model (station.Station.Energy).
func (e *ESS) StationEnergy(st *station.Station, dev energy.Profile, duration time.Duration, withOverhead bool) (energy.Breakdown, error) {
	return st.Energy(dev, duration, withOverhead)
}

// RunContext replays the broadcast trace through every AP (the same
// upstream broadcast reaches each AP from the distribution system)
// and drives all shards to the trace end one span at a time: between
// two stops every shard runs through each barrier in turn, and at a
// stop the DS is merged and the schedule's roams are applied (see the
// package comment). The final window lands on exactly the deadline a
// plain core.Network.Replay would use, so a roam-free K=1 run is
// byte-identical to the single-AP path. ctx is checked before every
// window. The run fails if a roam lookup was served in a window that
// did not begin at a stop, so it never differs silently from a merge
// at every barrier.
func (e *ESS) RunContext(ctx context.Context, tr *trace.Trace) error {
	for _, sh := range e.shards {
		if err := sh.Net.ScheduleReplay(tr); err != nil {
			return err
		}
	}
	start, end := e.now, core.ReplayEnd(tr)
	barrier := func(i int) time.Duration { return min(start+time.Duration(i)*barrierEvery, end) }
	n := 0
	if end > start {
		n = int((end - start + barrierEvery - 1) / barrierEvery)
	}
	tosses := e.schedule(n)
	for done := 0; done < n; {
		stop := n
		switch {
		case len(e.roaming) > 0:
			stop = done + 1
		case len(tosses) > 0:
			stop = tosses[0].barrier
		}
		if err := e.span(ctx, done, stop, barrier); err != nil {
			return err
		}
		done, e.now = stop, barrier(stop)
		e.mergeDS()
		for len(tosses) > 0 && tosses[0].barrier == stop {
			e.roam(tosses[0].m, tosses[0].pick)
			tosses = tosses[1:]
		}
		e.roaming = slices.DeleteFunc(e.roaming, func(m *member) bool { return !m.st.Associating() })
	}
	return nil
}

// schedule draws the run's mobility before the first event: at each
// of the n barriers but the last, every member in attachment order
// tosses roamRng against the per-window roam probability and, on a
// hit, draws which of the other APs it moves to. The tosses read no
// simulation state, so this is the stream, in the order, that tossing
// at each barrier would draw — the same for any worker count.
func (e *ESS) schedule(n int) []toss {
	k := len(e.shards)
	if k < 2 || e.cfg.RoamRate == 0 {
		return nil
	}
	perWindow := min(e.cfg.RoamRate*barrierEvery.Minutes(), 1)
	var out []toss
	for b := 1; b < n; b++ {
		for _, m := range e.members {
			if e.roamRng.Float64() >= perWindow {
				continue
			}
			pick := min(int(e.roamRng.Float64()*float64(k-1)), k-2)
			out = append(out, toss{barrier: b, m: m, pick: pick})
		}
	}
	return out
}

// span runs every shard from barrier from to barrier to, one window
// at a time, recording where its DS queue stood at each barrier. It
// fails if a shard served a roam lookup after the span's first
// window, the only one that began at a stop.
func (e *ESS) span(ctx context.Context, from, to int, barrier func(int) time.Duration) error {
	err := engine.ForEach(ctx, e.cfg.Workers, len(e.shards), func(ctx context.Context, k int) error {
		sh := e.shards[k]
		for i := from + 1; i <= to; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sh.atStop = i == from+1
			sh.Net.Engine.RunUntil(barrier(i))
			sh.marks = append(sh.marks, len(sh.dsQueue))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, sh := range e.shards {
		if sh.staleLookup {
			return fmt.Errorf("ess: shard %d served a roam port lookup between the stops at %v and %v, in a window that did not begin at a stop", sh.idx, barrier(from), barrier(to))
		}
	}
	return nil
}

// mergeDS folds the shards' DS queues into the directory at a stop,
// window by window and, inside a window, in shard order: the order a
// merge at every barrier takes, so DSLoss drops the same records. A
// lost record leaves the directory holding the previous (possibly
// stale) entry.
func (e *ESS) mergeDS() {
	for w := range e.shards[0].marks {
		for _, sh := range e.shards {
			from := 0
			if w > 0 {
				from = sh.marks[w-1]
			}
			for _, r := range sh.dsQueue[from:sh.marks[w]] {
				//lint:ignore rngdraw DSLoss is fixed per-run config, so the short-circuit guard is constant for the whole run and the draw count per record cannot vary
				if e.cfg.DSLoss > 0 && e.dsRng.Float64() < e.cfg.DSLoss {
					e.stats.DSRecordsDropped++
					continue
				}
				e.dir[r.addr] = r.ports
				e.stats.DSRecordsReplicated++
			}
		}
	}
	for _, sh := range e.shards {
		sh.dsQueue, sh.marks = sh.dsQueue[:0], sh.marks[:0]
	}
}

// roam moves one station at a stop to the pick-th of the other
// shards: it leaves with a disassociation frame and reassociates on
// the new shard. An unassociated or crashed station stays where it
// is.
func (e *ESS) roam(m *member, pick int) {
	st := m.st
	if !st.Associated() || st.Crashed() {
		e.stats.RoamsDeferred++
		return
	}
	tgt := pick
	if tgt >= m.shard {
		tgt++
	}
	old, nw := e.shards[m.shard], e.shards[tgt]
	st.Leave(dot11.ReasonStationLeft)
	st.Migrate(nw.Net.Engine, nw.Net.Medium, nw.Net.BSSID)
	st.Reassociate(nw.Net.SSID, old.Net.BSSID)
	old.removeStation(st)
	nw.stations = append(nw.stations, homedStation{st: st, mode: m.mode})
	m.shard = tgt
	e.roaming = append(e.roaming, m)
	e.stats.Roams++
}

// removeStation drops a station from the shard's homed list,
// preserving order.
func (sh *Shard) removeStation(st *station.Station) {
	for i := range sh.stations {
		if sh.stations[i].st == st {
			sh.stations = append(sh.stations[:i], sh.stations[i+1:]...)
			return
		}
	}
}

// Stats sums the barrier-side counters with every shard's local miss
// and AP counters. Call it after RunContext returns (shard counters
// are not synchronized during windows).
func (e *ESS) Stats() Stats {
	s := e.stats
	for _, sh := range e.shards {
		s.WantedMisses += sh.wantedMisses
		s.ResyncWindowMisses += sh.resyncMisses
		as := sh.Net.AP.Stats()
		s.Reassociations += as.Reassociations
		s.PortsSeededOnRoam += as.PortsSeededOnRoam
	}
	return s
}
