package porttable

import (
	"slices"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// The timing procedure's shape (Section VI-B): measureRuns runs of up
// to measureOps operations of each kind.
const (
	measureRuns = 10
	measureOps  = 100
)

// pair is one stored (port, client) entry of the listener index.
type pair struct {
	port uint16
	aid  dot11.AID
}

// Measure reproduces the paper's timing procedure (Section VI-B) on
// this machine's table implementation: initialize the table with
// N * 50% * portsPerClient random (port, AID) pairs, then time 10
// repeated runs of 100 delete, insert, and lookup operations and
// return the mean per-operation durations.
//
// Each run deletes 100 distinct stored pairs and puts them back
// through the per-port steps UpdateAt runs, then looks their ports up
// with OrListeners, as Algorithm 1 does; a table holding fewer pairs
// times that many per run, and one holding none times nothing and
// returns zero durations.
//
// A modern CPU is far faster than the router-class hardware the paper
// measured, so figure reproduction uses CalibratedARM() by default;
// Measure exists to exercise the real implementation (and to let users
// on actual AP hardware measure their own constants).
func Measure(n int, portsPerClient int, seed uint64) OpTimings {
	t, batches := measureSetup(n, portsPerClient, seed)
	return t.measure(batches)
}

// measureSetup fills a table as Measure does and draws, before any
// timing so RNG time stays out of the measured loops, the stored
// pairs each run touches: distinct within a run.
func measureSetup(n, portsPerClient int, seed uint64) (*Table, [][]pair) {
	r := sim.NewRNG(seed)
	t := New()
	var stored []pair
	for c := 1; c <= max(n/2, 1); c++ {
		aid := dot11.AID(c)
		ports := make([]uint16, portsPerClient)
		for i := range ports {
			ports[i] = uint16(1024 + r.Intn(60000))
		}
		t.Update(aid, ports)
		for _, p := range t.clients[aid].ports {
			stored = append(stored, pair{port: p, aid: aid})
		}
	}
	k := min(measureOps, len(stored))
	batches := make([][]pair, measureRuns)
	for run := range batches {
		for j := 0; j < k; j++ {
			i := j + r.Intn(len(stored)-j)
			stored[j], stored[i] = stored[i], stored[j]
		}
		batches[run] = slices.Clone(stored[:k])
	}
	return t, batches
}

// measure times every batch: deleting its pairs, inserting them back,
// then looking their ports up. It returns the mean per-operation
// durations and leaves every view of the table as it found it.
func (t *Table) measure(batches [][]pair) OpTimings {
	var del, ins, lp time.Duration
	var flags dot11.VirtualBitmap
	ops := 0
	for _, batch := range batches {
		start := time.Now()
		for _, p := range batch {
			t.unlisten(p.port, p.aid)
		}
		del += time.Since(start)

		start = time.Now()
		for _, p := range batch {
			t.listen(p.port, p.aid)
		}
		ins += time.Since(start)

		start = time.Now()
		for _, p := range batch {
			t.OrListeners(p.port, &flags)
		}
		lp += time.Since(start)
		ops += len(batch)
	}
	if ops == 0 {
		return OpTimings{}
	}
	return OpTimings{
		Delete: del / time.Duration(ops),
		Insert: ins / time.Duration(ops),
		Lookup: lp / time.Duration(ops),
	}
}
