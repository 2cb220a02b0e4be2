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
	// BTIMBytes is the added BTIM element length per beacon (element
	// header + offset + partial virtual bitmap).
	BTIMBytes int
}

// DefaultOverhead returns the evaluation settings of Section VI-A2:
// port messages every 10 s carrying 100 ports ("smartphones in heavy
// usage"), and a small BTIM in every beacon. Port messages and beacons,
// and so their BTIM bytes, go out at the basic rate (dot11.BasicRate).
func DefaultOverhead() Overhead {
	return Overhead{
		PortMsgInterval: 10 * time.Second,
		PortsPerMsg:     100,
		BTIMBytes:       5, // elem ID + length + offset + 2 bitmap octets
	}
}

// PortMsgBytes returns L^m of Eq. 19: PHY preamble/header + MAC header
// + 2 fixed bytes + 2 bytes per port.
func (o Overhead) PortMsgBytes() int {
	return dot11.PLCPBits/8 + dot11.MACHeaderLen + 2 + 2*o.PortsPerMsg
}

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
// sequence, each frame holding its own Wakelock. Frames must be sorted
// by arrival time. It is ComputeSweep's one-candidate case.
func Compute(frames []Arrival, cfg Config) (Breakdown, error) {
	var out [1]Breakdown
	err := walk(frames, nil, nil, cfg, out[:])
	return out[0], err
}

// MaxCandidates is the most driver wakelocks one ComputeSweep prices.
const MaxCandidates = 8

// ComputeSweep evaluates the model once per candidate driver wakelock
// in one walk over frames: out[k] is Compute over frames with every
// useless frame (useful[i] false, a frame the driver drops) holding
// wakelocks[k] and every other frame its own Wakelock. The ordering
// check, the reception times and the Eq. 7 terms are shared; only the
// wakelock machine runs once per candidate. useful indexes frames 1:1,
// and out holds exactly one result per candidate, at most
// MaxCandidates of them. It allocates nothing.
func ComputeSweep(frames []Arrival, useful []bool, wakelocks []time.Duration, cfg Config, out []Breakdown) error {
	if len(useful) != len(frames) {
		return fmt.Errorf("energy: %d usefulness flags for %d frames", len(useful), len(frames))
	}
	if len(wakelocks) < 1 || len(wakelocks) > MaxCandidates || len(out) != len(wakelocks) {
		return fmt.Errorf("energy: %d candidate wakelocks into %d results, want 1..%d of each", len(wakelocks), len(out), MaxCandidates)
	}
	return walk(frames, useful, wakelocks, cfg, out)
}

// machine is the wakelock machine of Eqs. 3-5, 13 and 14 for one
// wakelock assignment.
//
// The paper's recursion assumes every frame holds the same wakelock τ,
// so "renewal" always extends the expiry. With per-frame wakelocks (the
// client-side filter gives useless frames a shorter one) renewal must
// not shorten an already-held wakelock, so the expiry is the running
// maximum of tr(i)+Wakelock(i). A frame arriving between expiry and
// expiry+Tsp lands mid-suspend and aborts it (Eq. 14); later arrivals
// find the system suspended (Eq. 5) and pay a full resume+suspend
// cycle (Eq. 13).
type machine struct {
	expiry        time.Duration // current wakelock expiry
	tr            time.Duration // wakelock start of the current frame
	sumWakelock   time.Duration // total time wakelocks held (Σ twl)
	suspendedTime time.Duration // completed-suspend time for Fig. 9
	sumAbortedY   float64       // Σ y(i) for Eq. 13
	resumes       int           // Σ 1-s(i)
	aborted       int           // non-zero y(i) terms
}

// run advances the machine over a run of frames whose receptions end
// at ends; each holds its own Wakelock, or drop where useful is false.
// first marks a run that opens the trace. The state lives in locals
// for the run, so the loop keeps it in registers.
func (m *machine) run(frames []Arrival, ends []time.Duration, useful []bool, drop time.Duration, first bool, dev *Profile) {
	tsp, trm := dev.Tsp, dev.Trm
	expiry, tr := m.expiry, m.tr
	sumWakelock, suspendedTime, sumAbortedY := m.sumWakelock, m.suspendedTime, m.sumAbortedY
	resumes, aborted := m.resumes, m.aborted
	frames, useful = frames[:len(ends)], useful[:len(ends)]
	for i, rxEnd := range ends {
		wl := frames[i].Wakelock
		if !useful[i] {
			wl = drop
		}
		if first || rxEnd >= expiry+tsp {
			// Suspended on arrival (the paper assumes s(1)=0): resume.
			if first {
				first = false
				suspendedTime += rxEnd
			} else {
				suspendedTime += rxEnd - (expiry + tsp)
			}
			tr = rxEnd + trm
			resumes++
			sumWakelock += wl
			expiry = tr + wl
			continue
		}
		// Active, resuming, or suspending on arrival (s(i)=1).
		tr = maxDur(rxEnd, tr)
		if tr > expiry {
			// Eq. 14: arrival mid-suspend aborts the partial suspend.
			sumAbortedY += float64(tr-expiry) / float64(tsp)
			aborted++
		}
		if newExpiry := tr + wl; newExpiry > expiry {
			sumWakelock += newExpiry - maxDur(expiry, tr)
			expiry = newExpiry
		}
	}
	m.expiry, m.tr = expiry, tr
	m.sumWakelock, m.suspendedTime, m.sumAbortedY = sumWakelock, suspendedTime, sumAbortedY
	m.resumes, m.aborted = resumes, aborted
}

// chunk is how many frames' reception ends walk holds at a time.
const chunk = 256

// keepAll is Compute's usefulness mask for one chunk: every frame
// holds its own wakelock.
var keepAll = func() (m [chunk]bool) {
	for i := range m {
		m[i] = true
	}
	return m
}()

// walk is the one model kernel behind Compute and ComputeSweep. It
// runs len(out) wakelock machines side by side over frames; machine k
// gives a frame wakelocks[k] when useful is non-nil and marks it
// useless, and the frame's own Wakelock otherwise. It takes the frames
// a chunk at a time: the ordering check and the Eq. 7 receive/idle
// terms of the chunk first, recording each reception end, then every
// machine over the chunk. Each machine and each accumulator sees
// exactly the operation sequence of a separate pass, so every float
// result is bit-identical to one.
func walk(frames []Arrival, useful []bool, wakelocks []time.Duration, cfg Config, out []Breakdown) error {
	cfg = cfg.normalized()
	if err := cfg.Device.Validate(); err != nil {
		return err
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("energy: non-positive duration %v", cfg.Duration)
	}
	dev := cfg.Device
	var machines [MaxCandidates]machine
	ms := machines[:len(out)]

	n := len(frames)
	var ends [chunk]time.Duration
	var rxTime time.Duration   // Σ tt(i) (Eq. 8)
	var idleTime time.Duration // Σ td(i) + Σ tf(i) (Eqs. 9-10)
	seenInterval := int64(-1)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		for i := lo; i < hi; i++ {
			f := &frames[i]
			if i > 0 && f.At < frames[i-1].At {
				return fmt.Errorf("energy: frames out of order at index %d", i)
			}
			rx := f.rxDuration()
			rxEnd := f.At + rx
			ends[i-lo] = rxEnd

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
		}

		// --- Eqs. 3-5, 14: one wakelock machine per candidate.
		u := keepAll[:hi-lo]
		if useful != nil {
			u = useful[lo:hi]
		}
		for k := range ms {
			var drop time.Duration
			if useful != nil {
				drop = wakelocks[k]
			}
			ms[k].run(frames[lo:hi], ends[:hi-lo], u, drop, lo == 0, &dev)
		}
	}

	// The candidate-independent components.
	var b Breakdown
	b.Duration = cfg.Duration
	b.Received = n
	// --- Eq. 6: beacon reception. A PS client receives every
	// BeaconListenInterval-th beacon regardless of policy.
	numBeacons := int(cfg.Duration / cfg.BeaconInterval)
	b.EbJ = dev.EBeaconJ * float64(numBeacons/cfg.BeaconListenInterval)
	b.EfJ = dev.PrW*rxTime.Seconds() + dev.PidleW*idleTime.Seconds()
	// --- Eqs. 15-19: HIDE overhead.
	if cfg.Overhead != (Overhead{}) {
		o := cfg.Overhead
		// E1: extra BTIM bytes in every received beacon, at the basic
		// rate with the radio in receive state.
		btimTime := float64(8*o.BTIMBytes) / float64(dot11.BasicRate) * float64(numBeacons/cfg.BeaconListenInterval)
		e1 := dev.PrW * btimTime
		// E2: UDP Port Message transmissions (Eqs. 17-19).
		var e2 float64
		if o.PortMsgInterval > 0 {
			m := float64(cfg.Duration) / float64(o.PortMsgInterval) // Eq. 18
			lm := o.PortMsgBytes()
			e2 = dev.PtW * m * float64(8*lm) / float64(dot11.BasicRate)
		}
		b.EoJ = e1 + e2
	}

	for k := range ms {
		m := &ms[k]
		suspendedTime := m.suspendedTime
		if n > 0 {
			if end := m.expiry + dev.Tsp; end < cfg.Duration {
				suspendedTime += cfg.Duration - end
			}
		} else {
			suspendedTime = cfg.Duration
		}
		out[k] = b
		out[k].SuspendFraction = math.Max(0, math.Min(1, float64(suspendedTime)/float64(cfg.Duration)))
		out[k].Resumes = m.resumes
		out[k].AbortedSuspends = m.aborted
		// --- Eq. 12: system idle under wakelocks.
		out[k].EwlJ = dev.PsaW * m.sumWakelock.Seconds()
		// --- Eq. 13: state transfers (full cycles + aborted suspends).
		out[k].EstJ = (dev.ErmJ+dev.EspJ)*float64(m.resumes) + dev.EspJ*m.sumAbortedY
	}
	return nil
}

// maxDur returns the larger duration.
func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
