package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/station"
	"repro/internal/trace"
)

// WindowedNetwork is the intra-run parallel execution mode of the
// single-BSS simulator: the ESS shard discipline (one event stream per
// partition, lockstep windows, serial barrier merges) pulled down into
// a single AP's run. The paper's own mechanism makes DTIM intervals
// natural barriers — stations only interact with each other through
// the AP's beacon — so the assembly splits into:
//
//   - the hub: the ordinary Network (engine, medium, AP, trace replay),
//     advanced serially. It owns everything stations share: the AP's
//     group-frame buffer, the Client UDP Port Table, TIM/BTIM flag
//     computation, and the contention/fault draws of the AP-side
//     channel. The beacon is built exactly once, from merged state.
//   - groups: each AddStation/AddCohort call gets its own engine and
//     medium replica, carrying only that entity's events (beacon
//     handling, suspend machine, wakelocks, ACK timers, downlink fault
//     draws from the group's private seeded RNG stream).
//
// One window (B_k, B_k+1] runs as: hub phase (serial) → downlink
// dispatch (serial: every hub transmission is mirrored into the groups
// at its exact recorded delivery instant) → group phase (parallel:
// each group drains its events through the window on a worker pool) →
// barrier merge (serial: uplink captured inside the groups replays
// onto the hub medium ordered by (recorded start, group index), so
// port-table updates land at the barrier in station-index order).
//
// Determinism: the partition is fixed by assembly order, the workers
// only bound how many group drains run concurrently, every RNG stream
// (hub medium, per-group media, per-station retry jitter) is private
// to one serially-executed event stream, and both dispatch and merge
// are sorted serial replays — so frame streams are byte-identical and
// energy bit-identical for ANY worker count (asserted by the windowed
// equivalence cells in internal/check). Relative to the serial
// Network, uplink reaches the AP only at barriers: the schedule is a
// different (coarser) but equally valid interleaving, which is why
// windowed runs are compared against windowed runs, never against the
// legacy path, and why station ACK timeouts are stretched by one
// window (station.DefaultAckTimeout's doc).
type WindowedNetwork struct {
	// Hub is the serial heart of the assembly: AP, port table, trace
	// replay, and the canonical air. Its accessors (Stations, Cohorts,
	// StationEnergy, CohortEnergy, AP stats) see every entity added
	// through the windowed Add methods. A tap installed on
	// Hub.Medium observes the canonical frame stream: group-local
	// mirrors are delivery machinery, not air.
	Hub *Network

	netCfg   NetworkConfig
	window   time.Duration
	workers  int
	faultFor func(group int) fault.Plan

	groups   []*windowGroup
	spans    []groupSpan // station-index ranges → owning group, in index order
	pendDown []airFrame  // hub transmissions awaiting dispatch, ordered by deliverAt
	merge    []mergedTx  // barrier-merge scratch
}

// windowGroup is one independent partition: a private engine and
// medium replica carrying one station's (or one cohort block's)
// events. up collects the group's own transmissions for the barrier.
type windowGroup struct {
	eng *sim.Engine
	med *medium.Medium
	up  []airFrame
}

// groupSpan maps the contiguous station-index range [first, first+count)
// to the group that owns it; unicast downlink routes through it.
type groupSpan struct {
	first, count, group int
}

// airFrame is one captured transmission: the shared immutable frame
// buffer plus its recorded start-of-airtime and delivery instants.
type airFrame struct {
	src       dot11.MACAddr
	raw       []byte
	rate      dot11.Rate
	start     time.Duration
	deliverAt time.Duration
}

// mergedTx tags a captured uplink frame with its group for the
// deterministic (start, group) barrier ordering.
type mergedTx struct {
	airFrame
	group int
}

// WindowConfig configures NewWindowedNetwork.
type WindowConfig struct {
	// Network configures the hub exactly like NewNetwork, except that
	// Network.Fault is rejected: one stateful plan cannot be consulted
	// from concurrently-draining groups. Use FaultFor instead.
	// Network.Loss (stateless per-delivery probability) applies to the
	// hub and to every group.
	Network NetworkConfig
	// Workers bounds how many groups drain a window concurrently: 0
	// selects runtime.GOMAXPROCS(0), 1 forces the sequential drain.
	// The output is byte-identical for any value.
	Workers int
	// FaultFor supplies each group's downlink fault plan by group
	// index (assembly order). Plans are per-group state, consulted only
	// from that group's serially-draining event stream. Nil leaves the
	// group channels pristine (beyond Network.Loss).
	FaultFor func(group int) fault.Plan
}

// NewWindowedNetwork builds the hub and an empty partition set.
func NewWindowedNetwork(cfg WindowConfig) (*WindowedNetwork, error) {
	if cfg.Network.Fault != nil {
		return nil, fmt.Errorf("core: windowed mode cannot share one stateful fault plan across concurrent groups; use WindowConfig.FaultFor")
	}
	hub, err := NewNetwork(cfg.Network)
	if err != nil {
		return nil, err
	}
	w := &WindowedNetwork{
		Hub:      hub,
		netCfg:   cfg.Network,
		window:   cfg.Network.dtimSpan(),
		workers:  cfg.Workers,
		faultFor: cfg.FaultFor,
	}
	// Downlink capture: every AP-sourced transmission is queued for
	// mirroring into the groups at its exact delivery instant. Frames
	// re-transmitted at the barrier merge carry their station source
	// and are skipped — no station ever receives another station's
	// uplink (port messages and PS-Polls are unicast to the AP), and
	// the groups already carried their own copies.
	hub.Medium.SetTxObserver(func(src dot11.MACAddr, raw []byte, rate dot11.Rate, start, deliverAt time.Duration) {
		if src != hub.BSSID {
			return
		}
		w.pendDown = append(w.pendDown, airFrame{src: src, raw: raw, rate: rate, start: start, deliverAt: deliverAt})
	})
	return w, nil
}

// Window returns the barrier spacing: one DTIM span, the finest window
// at which HIDE stations can react to the AP anyway.
func (w *WindowedNetwork) Window() time.Duration { return w.window }

// newGroup builds the next partition — a fresh engine and a medium
// replica with a group-indexed seed, the shared Loss knob, and the
// group's own fault plan, its transmissions captured for the barrier
// merge — and the attachment that puts the next station number on it.
// Stations in a group associate out of band (a frame-level handshake
// would span barriers for no modelling gain), and their ACK timeout is
// stretched by one window: uplink crosses to the AP only at barriers,
// so the handshake round trip grows by up to one window and the stock
// timeout would misread that latency as loss and retry.
func (w *WindowedNetwork) newGroup() (*windowGroup, attachment, error) {
	idx := len(w.groups)
	// Group-indexed derivation of the hub medium's seed (Seed+1), so a
	// group's fault stream is fixed by its position in assembly order —
	// never by worker count or scheduling.
	gseed := (w.netCfg.Seed + 1) ^ (0x9e3779b97f4a7c15 * uint64(idx+2))
	var plan fault.Plan
	if w.faultFor != nil {
		plan = w.faultFor(idx)
	}
	eng := sim.New()
	med := newMedium(eng, gseed, w.netCfg.Loss, plan)
	g := &windowGroup{eng: eng, med: med}
	med.SetTxObserver(func(src dot11.MACAddr, raw []byte, rate dot11.Rate, start, deliverAt time.Duration) {
		g.up = append(g.up, airFrame{src: src, raw: raw, rate: rate, start: start, deliverAt: deliverAt})
	})
	at := attachment{
		idx:        w.Hub.used + 1,
		eng:        eng,
		med:        med,
		direct:     true,
		ackTimeout: station.DefaultAckTimeout + w.window,
	}
	return g, at, nil
}

// addGroup joins an attached group to the partition set; it owns the
// station numbers [first, first+count) for unicast routing.
func (w *WindowedNetwork) addGroup(g *windowGroup, first, count int) {
	w.spans = append(w.spans, groupSpan{first: first, count: count, group: len(w.groups)})
	w.groups = append(w.groups, g)
}

// AddStation attaches a station in its own partition, associated with
// the hub AP out of band.
func (w *WindowedNetwork) AddStation(mode station.Mode, openPorts []uint16) (*station.Station, error) {
	return w.AddStationListenInterval(mode, openPorts, 1)
}

// AddStationListenInterval is AddStation with an 802.11 listen
// interval.
func (w *WindowedNetwork) AddStationListenInterval(mode station.Mode, openPorts []uint16, li int) (*station.Station, error) {
	g, at, err := w.newGroup()
	if err != nil {
		return nil, err
	}
	st, err := w.Hub.attachStation(at, mode, openPorts, li)
	if err != nil {
		return nil, err
	}
	w.addGroup(g, at.idx, 1)
	return st, nil
}

// AddCohort attaches count identical stations as one cohort in its own
// partition, built as Network.AddCohort builds it.
func (w *WindowedNetwork) AddCohort(mode station.Mode, openPorts []uint16, count, li int) (*station.CohortStation, error) {
	g, at, err := w.newGroup()
	if err != nil {
		return nil, err
	}
	c, err := w.Hub.attachCohort(at, mode, openPorts, count, li)
	if err != nil {
		return nil, err
	}
	w.addGroup(g, at.idx, count)
	return c, nil
}

// ReplayContext schedules the trace on the hub and drives the whole
// assembly through lockstep windows to the standard replay deadline
// (trace duration plus one beacon interval of drain).
func (w *WindowedNetwork) ReplayContext(ctx context.Context, tr *trace.Trace) error {
	if err := w.Hub.ScheduleReplay(tr); err != nil {
		return err
	}
	return w.RunUntilContext(ctx, ReplayEnd(tr))
}

// Replay is ReplayContext without cancellation.
func (w *WindowedNetwork) Replay(tr *trace.Trace) error {
	return w.ReplayContext(context.Background(), tr)
}

// RunUntilContext advances hub and groups in lockstep windows to end.
// On cancellation the assembly is torn mid-window and must be
// discarded — partial state is not meaningful.
func (w *WindowedNetwork) RunUntilContext(ctx context.Context, end time.Duration) error {
	// A cancelled context aborts in-flight group drains between events,
	// so even a million-member window returns promptly.
	interrupted := func() bool { return ctx.Err() != nil }
	for _, g := range w.groups {
		g.eng.SetInterrupt(interrupted)
	}
	defer func() {
		for _, g := range w.groups {
			g.eng.SetInterrupt(nil)
		}
	}()
	for now := w.Hub.Engine.Now(); now < end; {
		next := now + w.window
		if next > end {
			next = end
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Hub phase: beacons tick, the AP reacts to the uplink merged at
		// the previous barrier (port-table updates, ACKs, PS-Poll
		// service), trace frames enqueue.
		w.Hub.Engine.RunUntil(next)
		// Serial dispatch: mirror every AP transmission due in this
		// window into the groups at its exact delivery instant.
		if err := w.dispatchDown(next); err != nil {
			return err
		}
		// Parallel group phase.
		if err := w.advanceGroups(ctx, next); err != nil {
			return err
		}
		// Serial barrier merge, in (recorded start, group index) order.
		w.mergeUp()
		now = next
	}
	return nil
}

// dispatchDown injects every pending hub transmission delivering at or
// before the barrier into the groups that can hear it: multicast to
// all, unicast to the owning group (resolved through the station-index
// spans). Frames delivering beyond the barrier stay queued — a
// congested hub channel can push deliveries windows into the future.
func (w *WindowedNetwork) dispatchDown(until time.Duration) error {
	n := 0
	for n < len(w.pendDown) && w.pendDown[n].deliverAt <= until {
		n++
	}
	for i := 0; i < n; i++ {
		f := &w.pendDown[i]
		dst, ok := dot11.Receiver(f.raw)
		if !ok {
			continue
		}
		if dst.IsMulticast() {
			for _, g := range w.groups {
				if err := g.med.InjectAt(f.src, f.raw, f.rate, f.deliverAt); err != nil {
					return err
				}
			}
			continue
		}
		if g := w.groupFor(dst); g != nil {
			if err := g.med.InjectAt(f.src, f.raw, f.rate, f.deliverAt); err != nil {
				return err
			}
		}
	}
	w.pendDown = w.pendDown[:copy(w.pendDown, w.pendDown[n:])]
	return nil
}

// groupFor resolves a unicast destination to its owning group via
// binary search over the contiguous station-index spans.
func (w *WindowedNetwork) groupFor(dst dot11.MACAddr) *windowGroup {
	off, ok := dot11.AddrOffset(stationBase, dst)
	if !ok || off == 0 {
		return nil
	}
	i := sort.Search(len(w.spans), func(i int) bool { return w.spans[i].first > off }) - 1
	if i < 0 {
		return nil
	}
	sp := w.spans[i]
	if off >= sp.first+sp.count {
		return nil
	}
	return w.groups[sp.group]
}

// advanceGroups drains every group's events through the window on the
// engine worker pool. The worker count bounds concurrency only: each
// group is one serial event stream, and no worker outlives the window.
func (w *WindowedNetwork) advanceGroups(ctx context.Context, until time.Duration) error {
	return engine.ForEach(ctx, w.workers, len(w.groups), func(_ context.Context, k int) error {
		w.groups[k].eng.RunUntil(until)
		return nil
	})
}

// mergeUp replays the window's captured group transmissions onto the
// hub medium, ordered by (recorded start, group index) with capture
// order preserved within a group — station-index order at equal
// instants, because groups are created in station-index order. The hub
// medium re-applies its own FIFO contention from the barrier instant,
// so merged uplink serializes exactly as if the stations had
// transmitted on the shared channel at the barrier; the AP processes
// the deliveries in its next phase and the following beacon is built
// from the fully-merged table.
func (w *WindowedNetwork) mergeUp() {
	w.merge = w.merge[:0]
	for gi, g := range w.groups {
		for _, f := range g.up {
			w.merge = append(w.merge, mergedTx{airFrame: f, group: gi})
		}
		g.up = g.up[:0]
	}
	sort.SliceStable(w.merge, func(i, j int) bool {
		if w.merge[i].start != w.merge[j].start {
			return w.merge[i].start < w.merge[j].start
		}
		return w.merge[i].group < w.merge[j].group
	})
	for i := range w.merge {
		w.Hub.Medium.Transmit(w.merge[i].src, w.merge[i].raw, w.merge[i].rate)
		w.merge[i].raw = nil
	}
}
