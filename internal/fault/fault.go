// Package fault is the deterministic fault-injection subsystem: a
// composable description of what an unreliable channel does to frame
// deliveries. The medium judges every delivery by its Plan (Judge) and
// applies the outcome — drop, corrupt, or duplicate — so every
// protocol layer can be exercised against bursty loss, targeted
// classifier drops, and garbled frames without touching protocol code.
//
// All randomness flows from the single seeded sim.RNG the medium owns:
// a plan never keeps its own entropy source, so a run replays
// byte-identically from one uint64 seed. Plans with per-delivery
// randomness draw a fixed number of values per consultation regardless
// of outcome, keeping the stream stable under composition.
//
// Entity-level faults — a client that crashes without deregistering
// (station.Crash) and an AP power-cycle that wipes the Client UDP Port
// Table (ap.Restart) — mutate protocol state rather than deliveries,
// so they are scheduled as simulation events by the chaos harness
// (internal/check); their channel-visible footprint ("node goes deaf
// at t") is expressible here with To + Window + Loss.
package fault

import (
	"fmt"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// Delivery describes one pending frame delivery: the medium builds one
// per (frame, receiver) pair, so a broadcast frame is judged
// independently for every station — exactly how independent radios
// experience a shared channel. Plans must treat Raw as read-only; the
// medium applies corruption itself, to a private copy.
type Delivery struct {
	// Raw is the marshalled frame.
	Raw []byte
	// Kind is the frame's classification (beacon, port message, ACK, …).
	Kind dot11.FrameKind
	// Src is the transmitter's MAC address.
	Src dot11.MACAddr
	// Dst is the addressed receiver (the broadcast address for group
	// frames).
	Dst dot11.MACAddr
	// Rcv is the node this copy is being delivered to.
	Rcv dot11.MACAddr
	// At is the delivery's virtual time.
	At time.Duration
}

// Verdict is a plan's decision about one delivery. Drop wins over the
// other effects; Corrupt garbles the receiver's copy; Duplicate
// delivers the frame twice (as after a lost ACK at the MAC layer).
type Verdict struct {
	Drop      bool
	Corrupt   bool
	Duplicate bool
}

// Faulty reports whether the verdict perturbs the delivery at all.
func (v Verdict) Faulty() bool { return v.Drop || v.Corrupt || v.Duplicate }

// merge ORs two verdicts.
func (v Verdict) merge(o Verdict) Verdict {
	return Verdict{
		Drop:      v.Drop || o.Drop,
		Corrupt:   v.Corrupt || o.Corrupt,
		Duplicate: v.Duplicate || o.Duplicate,
	}
}

// Plan decides the fate of deliveries. Implementations may keep
// evolution state (channel models are stateful) but must source all
// randomness from the rng argument.
type Plan interface {
	Deliver(d Delivery, rng *sim.RNG) Verdict
}

// Outcome is a judged delivery: the plan's verdict and, when the
// verdict corrupts, the index in Raw of the byte the receiver's copy
// has flipped (-1 otherwise). Equal outcomes treat a copy identically.
type Outcome struct {
	Verdict
	Byte int
}

// Judge is the one verdict rule of every air, the emulated medium and
// the UDP hub alike: the plan's verdict on d, then, whenever it
// corrupts (even alongside Drop), one draw for the corrupted byte. The
// draw count depends on the verdicts alone, so a block judged member
// by member, a per-receiver walk and the hub's per-peer fan-out
// consume one RNG stream alike.
func Judge(p Plan, d Delivery, rng *sim.RNG) Outcome {
	v := p.Deliver(d, rng)
	if !v.Corrupt {
		return Outcome{Verdict: v, Byte: -1}
	}
	return Outcome{Verdict: v, Byte: rng.Intn(len(d.Raw))}
}

// Loss drops each delivery independently with probability P — the
// medium's historical lossProb knob expressed as a Plan. It draws
// exactly one value per delivery, preserving byte-identity with runs
// recorded before the fault subsystem existed.
type Loss struct{ P float64 }

// Deliver implements Plan.
func (l Loss) Deliver(_ Delivery, rng *sim.RNG) Verdict {
	return Verdict{Drop: rng.Float64() < l.P}
}

// Corrupt garbles each delivery independently with probability P: the
// medium flips one byte of the receiver's copy, modelling a frame that
// passes the radio but fails semantic checks (the FCS abstraction here
// lets garbage reach the parser, which must stay robust to it).
type Corrupt struct{ P float64 }

// Deliver implements Plan.
func (c Corrupt) Deliver(_ Delivery, rng *sim.RNG) Verdict {
	return Verdict{Corrupt: rng.Float64() < c.P}
}

// Duplicate delivers each frame twice with probability P, the
// receive-side view of a MAC retransmission whose ACK was lost.
type Duplicate struct{ P float64 }

// Deliver implements Plan.
func (d Duplicate) Deliver(_ Delivery, rng *sim.RNG) Verdict {
	return Verdict{Duplicate: rng.Float64() < d.P}
}

// GilbertElliott is the classic two-state bursty-loss channel: a good
// state with light loss and a bad state with heavy loss, switching
// between them per delivery. It draws exactly two values per delivery
// (transition, then loss) regardless of state, so composed plans
// replay identically.
type GilbertElliott struct {
	pGoodBad float64 // P(good → bad) per delivery
	pBadGood float64 // P(bad → good) per delivery
	lossGood float64
	lossBad  float64
	bad      bool
}

// NewGilbertElliott validates the transition and per-state loss
// probabilities and returns the channel, starting in the good state.
func NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad float64) (*GilbertElliott, error) {
	for _, p := range []float64{pGoodBad, pBadGood, lossGood, lossBad} {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("fault: probability %v outside [0, 1]", p)
		}
	}
	return &GilbertElliott{pGoodBad: pGoodBad, pBadGood: pBadGood, lossGood: lossGood, lossBad: lossBad}, nil
}

// Deliver implements Plan.
func (g *GilbertElliott) Deliver(_ Delivery, rng *sim.RNG) Verdict {
	flip := g.pGoodBad
	if g.bad {
		flip = g.pBadGood
	}
	if rng.Float64() < flip {
		g.bad = !g.bad
	}
	loss := g.lossGood
	if g.bad {
		loss = g.lossBad
	}
	return Verdict{Drop: rng.Float64() < loss}
}

// only restricts a plan to specific frame kinds.
type only struct {
	inner Plan
	kinds map[dot11.FrameKind]bool
}

// Only restricts inner to deliveries of the listed frame kinds — the
// targeted classifier drops (beacons only, port messages only, ACKs
// only) that isolate one protocol mechanism at a time. Other
// deliveries pass untouched and consume no randomness.
func Only(inner Plan, kinds ...dot11.FrameKind) Plan {
	set := make(map[dot11.FrameKind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return only{inner: inner, kinds: set}
}

// Deliver implements Plan.
func (o only) Deliver(d Delivery, rng *sim.RNG) Verdict {
	if !o.kinds[d.Kind] {
		return Verdict{}
	}
	return o.inner.Deliver(d, rng)
}

// to restricts a plan to one receiver.
type to struct {
	rcv   dot11.MACAddr
	inner Plan
}

// To restricts inner to deliveries received by addr — per-station
// faults on a shared channel (one client behind an obstacle, one
// client's radio going deaf).
func To(addr dot11.MACAddr, inner Plan) Plan { return to{rcv: addr, inner: inner} }

// Deliver implements Plan.
func (t to) Deliver(d Delivery, rng *sim.RNG) Verdict {
	if d.Rcv != t.rcv {
		return Verdict{}
	}
	return t.inner.Deliver(d, rng)
}

// Window restricts Inner to deliveries in [From, To); a zero To leaves
// the window open-ended. The chaos harness windows every channel fault
// to end with the trace so post-recovery convergence can be asserted
// on a clean channel.
type Window struct {
	From  time.Duration
	To    time.Duration
	Inner Plan
}

// Deliver implements Plan.
func (w Window) Deliver(d Delivery, rng *sim.RNG) Verdict {
	if d.At < w.From || (w.To > 0 && d.At >= w.To) {
		return Verdict{}
	}
	return w.Inner.Deliver(d, rng)
}

// compose merges several plans.
type compose struct{ plans []Plan }

// Compose consults every plan on every delivery and ORs the verdicts.
// All plans are always consulted — even after one already voted to
// drop — so each plan's randomness consumption is independent of the
// others' decisions and a composed run replays identically.
func Compose(plans ...Plan) Plan { return compose{plans: plans} }

// Deliver implements Plan.
func (c compose) Deliver(d Delivery, rng *sim.RNG) Verdict {
	var v Verdict
	for _, p := range c.plans {
		v = v.merge(p.Deliver(d, rng))
	}
	return v
}

// Silence makes one node deaf from time from onward — the channel
// footprint of a crashed radio, composable with other plans.
func Silence(addr dot11.MACAddr, from time.Duration) Plan {
	return Window{From: from, Inner: To(addr, Loss{P: 1})}
}

// Recorder wraps a plan and tallies its verdicts so a harness can
// bound protocol damage by the faults actually injected ("no wanted
// broadcast lost beyond the faulted frame itself"). It adds no
// randomness of its own.
type Recorder struct {
	inner   Plan
	dataRcv map[dot11.MACAddr]int // data-frame drops+corruptions per receiver
	total   int
}

// NewRecorder wraps inner.
func NewRecorder(inner Plan) *Recorder {
	return &Recorder{
		inner:   inner,
		dataRcv: make(map[dot11.MACAddr]int),
	}
}

// Deliver implements Plan.
func (r *Recorder) Deliver(d Delivery, rng *sim.RNG) Verdict {
	v := r.inner.Deliver(d, rng)
	if !v.Faulty() {
		return v
	}
	if d.Kind == dot11.KindData && (v.Drop || v.Corrupt) {
		r.dataRcv[d.Rcv]++
	}
	r.total++
	return v
}

// DataFaults returns how many data-frame deliveries to rcv were
// dropped or corrupted — the per-receiver bound on legitimately lost
// wanted frames.
func (r *Recorder) DataFaults(rcv dot11.MACAddr) int { return r.dataRcv[rcv] }

// Total returns the number of faulted deliveries of any kind.
func (r *Recorder) Total() int { return r.total }
