package ess

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/station"
	"repro/internal/trace"
)

// lockstepRun is the loop RunContext replaced, kept as its reference:
// every shard runs to every barrier, then the DS queues are merged in
// shard order, then every member tosses roamRng and each hit roams.
// Every window begins at a merged barrier, so the directory is never
// stale and the lookup guard has nothing to catch.
func lockstepRun(e *ESS, tr *trace.Trace) error {
	for _, sh := range e.shards {
		if err := sh.Net.ScheduleReplay(tr); err != nil {
			return err
		}
	}
	end := core.ReplayEnd(tr)
	k := len(e.shards)
	perWindow := min(e.cfg.RoamRate*barrierEvery.Minutes(), 1)
	for e.now < end {
		next := min(e.now+barrierEvery, end)
		err := engine.ForEach(context.Background(), e.cfg.Workers, k, func(_ context.Context, i int) error {
			e.shards[i].atStop = true
			e.shards[i].Net.Engine.RunUntil(next)
			return nil
		})
		if err != nil {
			return err
		}
		e.now = next
		for _, sh := range e.shards {
			for _, r := range sh.dsQueue {
				if e.cfg.DSLoss > 0 && e.dsRng.Float64() < e.cfg.DSLoss {
					e.stats.DSRecordsDropped++
					continue
				}
				e.dir[r.addr] = r.ports
				e.stats.DSRecordsReplicated++
			}
			sh.dsQueue = sh.dsQueue[:0]
		}
		if next < end && k > 1 && e.cfg.RoamRate > 0 {
			for _, m := range e.members {
				if e.roamRng.Float64() >= perWindow {
					continue
				}
				e.roam(m, min(int(e.roamRng.Float64()*float64(k-1)), k-2))
			}
		}
	}
	return nil
}

// outcome is everything a run is compared on: the ESS counters, every
// shard's air fingerprint and every station's energy.
type outcome struct {
	stats  Stats
	frames []int
	air    []uint64
	energy []energy.Breakdown
}

// portFlipper is an ap.Observer that flips port 5353 on every fifth
// beacon for each station homed on its shard, so the port sets the DS
// replicates change during a run and which record a merge keeps shows
// at the next roam. It touches only the shard's own stations, on the
// shard's event loop.
type portFlipper struct{ sh *Shard }

func (f portFlipper) BeaconBuilt(now time.Duration, _ ap.BeaconView) {
	beacon := int(now / barrierEvery)
	for i, h := range f.sh.stations {
		switch {
		case (beacon+i)%5 != 0:
		case h.st.ListensOn(5353):
			h.st.ClosePort(5353)
		default:
			h.st.OpenPort(5353)
		}
	}
}

// runOutcome builds an ESS of two stations per AP whose port sets
// change during the run, runs it with RunContext (or lockstepRun) and
// collects its outcome.
func runOutcome(t *testing.T, cfg Config, tr *trace.Trace, lockstep bool) outcome {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := tapShards(e)
	for _, sh := range e.Shards() {
		sh.Net.AP.AddObserver(portFlipper{sh})
	}
	for i := 0; i < 2*len(e.Shards()); i++ {
		if _, err := e.AddStation(station.HIDE, []uint16{53, 5353}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if lockstep {
		err = lockstepRun(e, tr)
	} else {
		err = e.RunContext(context.Background(), tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{stats: e.Stats()}
	for _, d := range ds {
		out.frames = append(out.frames, d.frames)
		out.air = append(out.air, d.h.Sum64())
	}
	for _, st := range e.Stations() {
		b, err := e.StationEnergy(st, energy.NexusOne, e.Now(), true)
		if err != nil {
			t.Fatal(err)
		}
		out.energy = append(out.energy, b)
	}
	return out
}

// equalOutcomes reports the first difference between two outcomes, or
// "" when every count, fingerprint and energy is equal.
func equalOutcomes(a, b outcome) string {
	if a.stats != b.stats {
		return "stats"
	}
	for i := range a.air {
		if a.frames[i] != b.frames[i] || a.air[i] != b.air[i] {
			return "shard air"
		}
	}
	for i := range a.energy {
		if a.energy[i] != b.energy[i] {
			return "station energy"
		}
	}
	return ""
}

// TestStopsMatchLockstep: halting the shards only at stops changes
// nothing. Over lossy media, lossy DS merges, cold and replicated
// handoffs and a churn high enough that reassociations retry across
// barriers, RunContext at 1 and 4 workers equals the merge at every
// barrier in every counter, shard fingerprint and station energy.
func TestStopsMatchLockstep(t *testing.T) {
	tr := testTrace(t, trace.Classroom, 20*time.Second)
	var total Stats
	for _, k := range []int{2, 3, 8} {
		for _, loss := range []float64{0, 0.3, 0.6} {
			for _, dsLoss := range []float64{0, 0.3} {
				for _, replicate := range []bool{false, true} {
					for seed := uint64(1); seed <= 3; seed++ {
						cfg := Config{
							APs:       k,
							Network:   core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Loss: loss, Seed: seed},
							Replicate: replicate,
							RoamRate:  20,
							RoamSeed:  seed * 0x9e37,
							DSLoss:    dsLoss,
						}
						want := runOutcome(t, cfg, tr, true)
						for _, workers := range []int{1, 4} {
							cfg.Workers = workers
							if diff := equalOutcomes(runOutcome(t, cfg, tr, false), want); diff != "" {
								t.Fatalf("K=%d loss %v DS loss %v replicate %v seed %d workers %d: %s differ from the lockstep loop",
									k, loss, dsLoss, replicate, seed, workers, diff)
							}
						}
						total.Roams += want.stats.Roams
						total.RoamsDeferred += want.stats.RoamsDeferred
						total.DSRecordsDropped += want.stats.DSRecordsDropped
						total.PortsSeededOnRoam += want.stats.PortsSeededOnRoam
						total.ResyncWindowMisses += want.stats.ResyncWindowMisses
					}
				}
			}
		}
	}
	t.Logf("%+v", total)
	if total.Roams == 0 || total.RoamsDeferred == 0 || total.DSRecordsDropped == 0 ||
		total.PortsSeededOnRoam == 0 || total.ResyncWindowMisses == 0 {
		t.Fatalf("the grid left a mechanism unexercised: %+v", total)
	}
}

// cancelAt is an ap.Observer that cancels a context at the first
// beacon built at or after a time.
type cancelAt struct {
	at     time.Duration
	cancel context.CancelFunc
}

func (c cancelAt) BeaconBuilt(now time.Duration, _ ap.BeaconView) {
	if now >= c.at {
		c.cancel()
	}
}

// TestCancelInsideSpan: a roam-free run is one span from the start to
// the trace end, and a cancellation inside it stops every shard within
// a window instead of at the run's end.
func TestCancelInsideSpan(t *testing.T) {
	tr := testTrace(t, trace.Classroom, 10*time.Minute)
	end := core.ReplayEnd(tr)
	const at = time.Minute
	for _, workers := range []int{1, 4} {
		e, err := New(Config{
			APs:     4,
			Network: core.NetworkConfig{DTIMPeriod: 1, HIDE: true, Harden: true, Seed: 5},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if _, err := e.AddStation(station.HIDE, []uint16{53, 5353}, 1); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.Shards()[0].Net.AP.AddObserver(cancelAt{at: at, cancel: cancel})
		err = e.RunContext(ctx, tr)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: RunContext returned %v, want context.Canceled", workers, err)
		}
		if e.Now() != 0 {
			t.Fatalf("workers %d: the run reached a stop at %v", workers, e.Now())
		}
		for i, sh := range e.Shards() {
			now := sh.Net.Engine.Now()
			if workers == 1 && now > at+barrierEvery {
				t.Errorf("workers 1: shard %d ran to %v, past the cancellation at %v plus one window", i, now, at)
			}
			if now >= end {
				t.Errorf("workers %d: shard %d ran to the trace end", workers, i)
			}
		}
	}
}
