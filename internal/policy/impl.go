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

// tau is the per-frame WiFi wakelock duration of the receive-all and
// useful-frame paths — one second, per [6] and Table I.
const tau = time.Second

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
		dst = append(dst, convert(f, tau))
	}
	return dst, nil
}

// DefaultDriverWakelock is the short wakelock the client-side filter
// holds while the driver classifies and drops a useless frame. Dropping
// with a literally zero wakelock makes the device suspend-churn — on
// dense traffic it re-enters the suspend operation after every frame,
// and because the suspend operation's power (Esp/Tsp: ~205 mW Nexus
// One, ~520 mW Galaxy S4) exceeds the active-idle power, that costs
// more than simply staying awake. A ~100 ms driver wakelock batches
// back-to-back useless frames into one suspend attempt, which is what
// a deployable driver filter does and what keeps the client-side
// solution's lower bound at or below receive-all.
const DefaultDriverWakelock = 100 * time.Millisecond

// ClientSidePolicy implements the lower bound of the client-side
// driver filter [6]: every frame is still received (radio cost);
// useless frames are dropped in the driver under a short processing
// wakelock and the system re-suspends, paying the state-transfer cost
// ("the overhead of this solution is more frequent state transfers").
type ClientSidePolicy struct {
	// DriverWakelock is the wakelock held to drop a useless frame.
	// Zero means drop instantly (the pathological churn regime).
	DriverWakelock time.Duration
}

var _ Policy = ClientSidePolicy{}

// Kind identifies the policy.
func (ClientSidePolicy) Kind() Kind { return ClientSide }

// appendArrivals passes every frame; useless frames get the driver
// wakelock.
func (p ClientSidePolicy) appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	if err := checkLen(tr, useful); err != nil {
		return nil, err
	}
	dst = growArrivals(dst, len(tr.Frames))
	for i, f := range tr.Frames {
		wl := p.DriverWakelock
		if useful[i] {
			wl = tau
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
			dst = append(dst, convert(f, tau))
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
	if p.Staleness < 0 || p.Staleness > 1 {
		return nil, fmt.Errorf("policy: staleness %v outside [0, 1]", p.Staleness)
	}
	r := sim.NewRNG(p.Seed)
	for i, f := range tr.Frames {
		if !useful[i] {
			continue
		}
		wl := tau
		if p.Staleness > 0 && r.Float64() < p.Staleness {
			wl = 0
		}
		dst = append(dst, convert(f, wl))
	}
	return dst, nil
}
