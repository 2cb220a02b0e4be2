package policy

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// timeDuration aliases time.Duration to keep the convert helper terse.
type timeDuration = time.Duration

// receiveAll implements the stock "receive-all" solution.
type receiveAll struct{}

var _ Policy = receiveAll{}

// Kind identifies the policy.
func (receiveAll) Kind() Kind { return ReceiveAll }

// appendArrivals passes every frame with the full τ wakelock. The
// usefulness vector is validated but otherwise ignored: the stock
// system cannot tell useful frames apart.
func (receiveAll) appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	if err := checkLen(tr, useful); err != nil {
		return nil, err
	}
	dst = growArrivals(dst, len(tr.Frames))
	for _, f := range tr.Frames {
		dst = append(dst, convert(f, energy.Tau))
	}
	return dst, nil
}

// ClientSidePolicy implements the lower bound of the client-side
// driver filter [6]: every frame is still received (radio cost);
// useless frames are dropped in the driver under the short
// energy.DriverWakelock and the system re-suspends, paying the
// state-transfer cost ("the overhead of this solution is more frequent
// state transfers"). energy.ComputeSweep prices the same arrivals at
// other driver wakelocks.
type ClientSidePolicy struct{}

var _ Policy = ClientSidePolicy{}

// Kind identifies the policy.
func (ClientSidePolicy) Kind() Kind { return ClientSide }

// appendArrivals passes every frame; useless frames get the driver
// wakelock.
func (ClientSidePolicy) appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	if err := checkLen(tr, useful); err != nil {
		return nil, err
	}
	dst = growArrivals(dst, len(tr.Frames))
	for i, f := range tr.Frames {
		wl := energy.DriverWakelock
		if useful[i] {
			wl = energy.Tau
		}
		dst = append(dst, convert(f, wl))
	}
	return dst, nil
}

// hidePolicy implements the paper's AP-side filter: useless frames are
// hidden by the AP, so the client receives only useful frames, each
// with the full τ wakelock.
type hidePolicy struct{}

var _ Policy = hidePolicy{}

// Kind identifies the policy.
func (hidePolicy) Kind() Kind { return HIDE }

// appendArrivals passes only useful frames.
func (hidePolicy) appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	if err := checkLen(tr, useful); err != nil {
		return nil, err
	}
	for i, f := range tr.Frames {
		if useful[i] {
			dst = append(dst, convert(f, energy.Tau))
		}
	}
	return dst, nil
}

// growArrivals ensures dst can take n more appends without reallocating.
func growArrivals(dst []energy.Arrival, n int) []energy.Arrival {
	if cap(dst)-len(dst) < n {
		g := make([]energy.Arrival, len(dst), len(dst)+n)
		copy(g, dst)
		return g
	}
	return dst
}

// CombinedPolicy is the paper's future-work combination (§VIII): HIDE
// filtering at the AP plus the client-side driver filter behind it.
// With a perfectly fresh port table it degenerates to HIDE; with a
// stale table, a fraction of frames the AP forwards as "useful" are in
// fact useless by the time they arrive, and the driver filter catches
// them (zero wakelock instead of a full τ wake-up).
type CombinedPolicy struct {
	// Staleness is the probability that a forwarded "useful" frame is
	// actually useless on arrival (port closed since the last UDP Port
	// Message). Zero means a perfectly synchronized table.
	Staleness float64
	// Seed makes the staleness draw reproducible.
	Seed uint64
}

var _ Policy = CombinedPolicy{}

// Kind identifies the policy.
func (CombinedPolicy) Kind() Kind { return Combined }

// appendArrivals passes only frames the AP forwards; stale ones get a
// zero wakelock from the driver filter.
func (p CombinedPolicy) appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	if err := checkLen(tr, useful); err != nil {
		return nil, err
	}
	if !(p.Staleness >= 0 && p.Staleness <= 1) {
		return nil, fmt.Errorf("policy: staleness %v outside [0, 1]", p.Staleness)
	}
	r := sim.NewRNG(p.Seed)
	for i, f := range tr.Frames {
		if !useful[i] {
			continue
		}
		wl := energy.Tau
		if p.Staleness > 0 && r.Float64() < p.Staleness {
			wl = 0
		}
		dst = append(dst, convert(f, wl))
	}
	return dst, nil
}
