package energy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dot11"
)

// Arrival is one broadcast frame as seen by a client's radio, together
// with the wakelock it triggers. Policies produce these: receive-all
// passes every trace frame with the full τ wakelock; the client-side
// filter passes every frame but gives useless ones a zero wakelock
// (drop in driver, re-suspend immediately); HIDE passes only useful
// frames.
type Arrival struct {
	// At is the frame's arrival time from trace start (the paper's t_i).
	At time.Duration
	// Length is the MAC frame length in bytes (l_i).
	Length int
	// Rate is the PHY data rate (r_i).
	Rate dot11.Rate
	// MoreData is the frame's more-data bit (d_more(i), Eq. 10).
	MoreData bool
	// Wakelock is the wakelock duration this frame acquires in the WiFi
	// driver (τ for frames the host must process, 0 for frames dropped
	// in the driver).
	Wakelock time.Duration
}

// rxDuration returns l_i/r_i, the frame's transmission time (Eq. 8).
func (a Arrival) rxDuration() time.Duration {
	if a.Rate <= 0 {
		return 0
	}
	return time.Duration(float64(8*a.Length) / float64(a.Rate) * float64(time.Second))
}

// endTime returns t_i + l_i/r_i.
func (a Arrival) endTime() time.Duration { return a.At + a.rxDuration() }

// Overhead parameterizes the HIDE protocol overhead (Eqs. 15-19).
// The zero value means no overhead (non-HIDE policies).
type Overhead struct {
	// PortMsgInterval is 1/f, the period between UDP Port Messages.
	PortMsgInterval time.Duration
	// PortsPerMsg is N_i, the number of 2-byte UDP ports per message.
	PortsPerMsg int
	// PortMsgRate is the rate port messages are sent at (the paper uses
	// the lowest rate, 1 Mb/s).
	PortMsgRate dot11.Rate
	// BTIMBytes is the added BTIM element length per beacon (element
	// header + offset + partial virtual bitmap).
	BTIMBytes int
}

// DefaultOverhead returns the evaluation settings of Section VI-A2:
// port messages every 10 s at 1 Mb/s carrying 100 ports ("smartphones
// in heavy usage"), and a small BTIM in every beacon.
func DefaultOverhead() Overhead {
	return Overhead{
		PortMsgInterval: 10 * time.Second,
		PortsPerMsg:     100,
		PortMsgRate:     dot11.Rate1Mbps,
		BTIMBytes:       5, // elem ID + length + offset + 2 bitmap octets
	}
}

// PortMsgBytes returns L^m of Eq. 19: PHY preamble/header + MAC header
// + 2 fixed bytes + 2 bytes per port.
func (o Overhead) PortMsgBytes(phy dot11.PHY) int {
	lphy := phy.PreambleHeaderBits / 8
	return lphy + dot11.MACHeaderLen + 2 + 2*o.PortsPerMsg
}

// beaconRate is the rate beacons, and so their BTIM bytes, arrive at.
const beaconRate = dot11.Rate1Mbps

// Config drives one model evaluation.
type Config struct {
	// Device is the Table I profile to charge energy against.
	Device Profile
	// Duration is the total observation window T (the trace duration).
	Duration time.Duration
	// BeaconInterval is T_b (default 100 TU if zero).
	BeaconInterval time.Duration
	// Overhead enables HIDE protocol overhead when non-zero.
	Overhead Overhead
	// BeaconListenInterval divides the beacon-reception energy: a
	// station with listen interval N wakes for one in N beacons
	// (default 1 — the paper's model, every beacon received).
	BeaconListenInterval int
}

// normalized fills in defaults.
func (c Config) normalized() Config {
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = dot11.DefaultBeaconInterval
	}
	if c.BeaconListenInterval <= 0 {
		c.BeaconListenInterval = 1
	}
	return c
}

// Breakdown is the result of one model evaluation: the five components
// of Eq. 2 plus the suspend-time fraction used by Figure 9.
type Breakdown struct {
	// EbJ is beacon reception energy (Eq. 6).
	EbJ float64
	// EfJ is broadcast reception + idle listening energy (Eq. 7).
	EfJ float64
	// EwlJ is system-idle energy under wakelocks (Eq. 12).
	EwlJ float64
	// EstJ is suspend/resume state-transfer energy (Eq. 13).
	EstJ float64
	// EoJ is HIDE protocol overhead energy (Eq. 15).
	EoJ float64
	// SuspendFraction is the fraction of the window spent in completed
	// suspend mode (Figure 9's metric).
	SuspendFraction float64
	// Duration is the observation window the energies accrued over.
	Duration time.Duration
	// Received is the number of frames the radio received.
	Received int
	// Resumes is the number of suspend→active transitions (Σ 1-s(i)).
	Resumes int
	// AbortedSuspends is the count of suspend operations aborted by a
	// frame arrival (non-zero y(i) terms of Eq. 14).
	AbortedSuspends int
}

// TotalJ returns E of Eq. 2.
func (b Breakdown) TotalJ() float64 { return b.EbJ + b.EfJ + b.EwlJ + b.EstJ + b.EoJ }

// Scale returns the breakdown for n stations that each accrued exactly
// b — the cohort aggregation step. Energies and event counts multiply;
// the per-station ratios (SuspendFraction, Duration, and therefore
// AvgPowerW) are intensive and stay put. Each component is a single
// float64 multiply, so Scale(n) is bit-identical to what IEEE-754
// summation of n identical addends would round to only when n is a
// power of two; comparisons therefore use per-member breakdowns, and
// Scale is the reporting convenience.
func (b Breakdown) Scale(n int) Breakdown {
	f := float64(n)
	b.EbJ *= f
	b.EfJ *= f
	b.EwlJ *= f
	b.EstJ *= f
	b.EoJ *= f
	b.Received *= n
	b.Resumes *= n
	b.AbortedSuspends *= n
	return b
}

// AvgPowerW returns the average power over the window in watts — the
// y-axis of Figures 7 and 8.
func (b Breakdown) AvgPowerW() float64 {
	if b.Duration <= 0 {
		return 0
	}
	return b.TotalJ() / b.Duration.Seconds()
}

// ComponentPowersW returns the five stacked-bar components of Figures
// 7-8 in mW-friendly watts: Eb/T, Ef/T, Est/T, Ewl/T, Eo/T.
func (b Breakdown) ComponentPowersW() (eb, ef, est, ewl, eo float64) {
	if b.Duration <= 0 {
		return
	}
	t := b.Duration.Seconds()
	return b.EbJ / t, b.EfJ / t, b.EstJ / t, b.EwlJ / t, b.EoJ / t
}

// Compute evaluates the Section IV model over the received-frame
// sequence. Frames must be sorted by arrival time.
func Compute(frames []Arrival, cfg Config) (Breakdown, error) {
	cfg = cfg.normalized()
	if err := cfg.Device.Validate(); err != nil {
		return Breakdown{}, err
	}
	if cfg.Duration <= 0 {
		return Breakdown{}, fmt.Errorf("energy: non-positive duration %v", cfg.Duration)
	}

	dev := cfg.Device
	b := Breakdown{Duration: cfg.Duration, Received: len(frames)}

	// --- Eq. 6: beacon reception. A PS client receives every
	// BeaconListenInterval-th beacon regardless of policy.
	numBeacons := int(cfg.Duration / cfg.BeaconInterval)
	b.EbJ = dev.EBeaconJ * float64(numBeacons/cfg.BeaconListenInterval)

	// --- Eqs. 3-5, 14: reconstruct wakelock starts, durations, states.
	//
	// The paper's recursion assumes every frame holds the same wakelock
	// τ, so "renewal" always extends the expiry. With per-frame
	// wakelocks (the client-side filter gives useless frames a zero
	// wakelock) renewal must not shorten an already-held wakelock, so
	// the expiry is the running maximum of tr(i)+Wakelock(i). A frame
	// arriving between expiry and expiry+Tsp lands mid-suspend and
	// aborts it (Eq. 14); later arrivals find the system suspended
	// (Eq. 5) and pay a full resume+suspend cycle (Eq. 13).
	// The wakelock recursion, the ordering validation, and the Eq. 7
	// receive/idle accounting all walk the frames in order with
	// independent accumulators, so they share one pass (and one
	// rxDuration evaluation per frame). Each accumulator sees exactly
	// the operation sequence the separate loops produced, keeping every
	// float result bit-identical.
	n := len(frames)
	var sumWakelock time.Duration   // total time wakelocks held (Σ twl)
	var sumAbortedY float64         // Σ y(i) for Eq. 13
	var suspendedTime time.Duration // completed-suspend time for Fig. 9
	var expiry time.Duration        // current wakelock expiry
	var tr time.Duration            // wakelock start of the current frame
	var rxTime time.Duration        // Σ tt(i) (Eq. 8)
	var idleTime time.Duration      // Σ td(i) + Σ tf(i) (Eqs. 9-10)
	seenInterval := int64(-1)
	for i, f := range frames {
		if i > 0 && f.At < frames[i-1].At {
			return Breakdown{}, fmt.Errorf("energy: frames out of order at index %d", i)
		}
		rx := f.rxDuration()
		rxEnd := f.At + rx

		// --- Eq. 7 terms: radio receive + idle listening.
		rxTime += rx
		iv := int64(f.At / cfg.BeaconInterval)
		// tf: idle from the interval's beacon to its first frame (Eq. 9).
		if iv != seenInterval {
			seenInterval = iv
			idleTime += f.At - time.Duration(iv)*cfg.BeaconInterval
		}
		// td: post-frame listening while more-data is set (Eq. 10).
		if f.MoreData {
			next := time.Duration(iv+1) * cfg.BeaconInterval
			if i+1 < n && frames[i+1].At < next {
				next = frames[i+1].At
			}
			if d := next - rxEnd; d > 0 {
				idleTime += d
			}
		}

		// --- Eqs. 3-5, 14 terms: the wakelock machine.
		prevTr := tr
		if i == 0 || rxEnd >= expiry+dev.Tsp {
			// Suspended on arrival (the paper assumes s(1)=0): resume.
			tr = rxEnd + dev.Trm
			b.Resumes++
			if i == 0 {
				suspendedTime += rxEnd
			} else {
				suspendedTime += rxEnd - (expiry + dev.Tsp)
			}
			sumWakelock += f.Wakelock
			expiry = tr + f.Wakelock
			continue
		}
		// Active, resuming, or suspending on arrival (s(i)=1).
		tr = maxDur(rxEnd, prevTr)
		if tr > expiry {
			// Eq. 14: arrival mid-suspend aborts the partial suspend.
			sumAbortedY += float64(tr-expiry) / float64(dev.Tsp)
			b.AbortedSuspends++
		}
		if newExpiry := tr + f.Wakelock; newExpiry > expiry {
			sumWakelock += newExpiry - maxDur(expiry, tr)
			expiry = newExpiry
		}
	}
	if n > 0 {
		if end := expiry + dev.Tsp; end < cfg.Duration {
			suspendedTime += cfg.Duration - end
		}
	} else {
		suspendedTime = cfg.Duration
	}
	b.SuspendFraction = math.Max(0, math.Min(1, float64(suspendedTime)/float64(cfg.Duration)))
	b.EfJ = dev.PrW*rxTime.Seconds() + dev.PidleW*idleTime.Seconds()

	// --- Eq. 12: system idle under wakelocks.
	b.EwlJ = dev.PsaW * sumWakelock.Seconds()

	// --- Eq. 13: state transfers (full cycles + aborted suspends).
	b.EstJ = (dev.ErmJ+dev.EspJ)*float64(b.Resumes) + dev.EspJ*sumAbortedY

	// --- Eqs. 15-19: HIDE overhead.
	if cfg.Overhead != (Overhead{}) {
		o := cfg.Overhead
		// E1: extra BTIM bytes in every received beacon, at the beacon
		// rate with the radio in receive state.
		btimTime := float64(8*o.BTIMBytes) / float64(beaconRate) * float64(numBeacons/cfg.BeaconListenInterval)
		e1 := dev.PrW * btimTime
		// E2: UDP Port Message transmissions (Eqs. 17-19).
		var e2 float64
		if o.PortMsgInterval > 0 {
			m := float64(cfg.Duration) / float64(o.PortMsgInterval) // Eq. 18
			lm := o.PortMsgBytes(dot11.DefaultPHY())
			rate := o.PortMsgRate
			if rate <= 0 {
				rate = dot11.Rate1Mbps
			}
			e2 = dev.PtW * m * float64(8*lm) / float64(rate)
		}
		b.EoJ = e1 + e2
	}
	return b, nil
}

// maxDur returns the larger duration.
func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
