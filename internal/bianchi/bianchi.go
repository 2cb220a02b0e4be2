// Package bianchi implements Bianchi's saturation-throughput model of
// the 802.11 distributed coordination function ("Performance analysis
// of the IEEE 802.11 distributed coordination function", JSAC 2000),
// which the HIDE paper borrows (via Wu et al. [15]'s 802.11b
// configuration, Table II) to quantify how UDP Port Messages reduce
// network capacity (Section V-A, Eqs. 20-24, Figure 10).
//
// The model finds the per-station transmission probability τ and the
// conditional collision probability p as the fixed point of
//
//	τ = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m))
//	p = 1 - (1-τ)^(n-1)
//
// and from them the normalized throughput Φ — the fraction of time the
// channel carries payload bits.
package bianchi

import (
	"fmt"
	"math"
	"time"
)

// Config holds the 802.11 network configuration of Table II. All frame
// portions are transmitted at the channel data rate, matching the
// paper's simplified accounting (Table II expresses even the PHY
// preamble in bits).
type Config struct {
	// CWMin and CWMax bound the contention window (W and 2^m * W).
	CWMin, CWMax int
	// SlotTime, SIFS, DIFS are MAC timings.
	SlotTime time.Duration
	SIFS     time.Duration
	DIFS     time.Duration
	// PropDelay is the propagation delay δ.
	PropDelay time.Duration
	// DataRate is the channel data rate in bits/s.
	DataRate float64
	// MACHeaderBits and PHYHeaderBits are per-frame header sizes.
	MACHeaderBits int
	PHYHeaderBits int
	// ACKBits is the ACK frame body size (the PHY header is added).
	ACKBits int
	// PayloadBits is the average data payload size E[P].
	PayloadBits int
}

// TableII returns the configuration of the paper's Table II.
func TableII() Config {
	return Config{
		CWMin: 32, CWMax: 1024,
		SlotTime:      20 * time.Microsecond,
		SIFS:          10 * time.Microsecond,
		DIFS:          50 * time.Microsecond,
		PropDelay:     1 * time.Microsecond,
		DataRate:      11e6,
		MACHeaderBits: 224, PHYHeaderBits: 192,
		ACKBits:     112,
		PayloadBits: 1000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.CWMin < 2 || c.CWMax < c.CWMin:
		return fmt.Errorf("bianchi: invalid contention window [%d, %d]", c.CWMin, c.CWMax)
	case c.SlotTime <= 0 || c.SIFS <= 0 || c.DIFS <= 0:
		return fmt.Errorf("bianchi: non-positive MAC timings")
	case c.DataRate <= 0:
		return fmt.Errorf("bianchi: non-positive data rate %v", c.DataRate)
	case c.PayloadBits <= 0:
		return fmt.Errorf("bianchi: non-positive payload size %d", c.PayloadBits)
	}
	return nil
}

// stages returns the number of backoff stages m (CWMax = 2^m CWMin).
func (c Config) stages() int {
	m := 0
	for w := c.CWMin; w < c.CWMax; w *= 2 {
		m++
	}
	return m
}

// bitsDur returns the transmission time of n bits at the channel rate.
func (c Config) bitsDur(n int) time.Duration {
	return time.Duration(float64(n) / c.DataRate * float64(time.Second))
}

// Result holds the model outputs for one network size.
type Result struct {
	// N is the number of saturated stations.
	N int
	// Tau is the per-slot transmission probability.
	Tau float64
	// P is the conditional collision probability.
	P float64
	// Phi is the normalized saturation throughput (fraction of time the
	// channel carries payload bits).
	Phi float64
	// CapacityBps is S = Φ · r (Eq. 20).
	CapacityBps float64
}

// Solve computes the fixed point and throughput for n stations under
// basic (non-RTS/CTS) access.
func Solve(cfg Config, n int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("bianchi: need at least one station, got %d", n)
	}
	w := float64(cfg.CWMin)
	m := float64(cfg.stages())

	// Fixed point by bisection on p in [0, 1): tauOf(p) is decreasing
	// and pOf(tau, n) is increasing in tau, so g(p) = pOf(tauOf(p)) - p
	// is decreasing and has a unique root.
	tauOf := func(p float64) float64 {
		if p == 0.5 {
			// The closed form has a removable singularity at p = 1/2.
			p += 1e-12
		}
		num := 2 * (1 - 2*p)
		den := (1-2*p)*(w+1) + p*w*(1-math.Pow(2*p, m))
		return num / den
	}
	pOf := func(tau float64) float64 {
		return 1 - math.Pow(1-tau, float64(n-1))
	}
	var p, tau float64
	if n == 1 {
		// A lone station never collides.
		p, tau = 0, tauOf(0)
	} else {
		lo, hi := 0.0, 0.999999
		for i := 0; i < 200; i++ {
			p = (lo + hi) / 2
			tau = tauOf(p)
			if pOf(tau) > p {
				lo = p
			} else {
				hi = p
			}
		}
		tau = tauOf(p)
	}

	// Slot-time accounting (Bianchi Eq. 13, basic access).
	ptr := 1 - math.Pow(1-tau, float64(n))
	var ps float64
	if ptr > 0 {
		ps = float64(n) * tau * math.Pow(1-tau, float64(n-1)) / ptr
	}
	tp := cfg.bitsDur(cfg.PayloadBits)
	hdr := cfg.bitsDur(cfg.MACHeaderBits + cfg.PHYHeaderBits)
	ack := cfg.bitsDur(cfg.ACKBits + cfg.PHYHeaderBits)
	ts := hdr + tp + cfg.SIFS + cfg.PropDelay + ack + cfg.DIFS + cfg.PropDelay
	tc := hdr + tp + cfg.DIFS + cfg.PropDelay

	sigma := cfg.SlotTime.Seconds()
	num := ps * ptr * tp.Seconds()
	den := (1-ptr)*sigma + ptr*ps*ts.Seconds() + ptr*(1-ps)*tc.Seconds()
	phi := 0.0
	if den > 0 {
		phi = num / den
	}
	return Result{
		N: n, Tau: tau, P: p, Phi: phi,
		CapacityBps: phi * cfg.DataRate,
	}, nil
}

// OverheadParams parameterizes the HIDE capacity-overhead calculation
// (Eqs. 21-24).
type OverheadParams struct {
	// HIDEFraction is p, the fraction of stations with HIDE enabled.
	HIDEFraction float64
	// PortMsgInterval is 1/f, the period between UDP Port Messages.
	PortMsgInterval time.Duration
	// PortsPerMsg is the number of UDP ports per message (50 in the
	// paper's overhead analysis).
	PortsPerMsg int
}

// SectionVDefaults returns the paper's overhead-analysis settings:
// UDP Port Messages every 10 s carrying 50 ports.
func SectionVDefaults() OverheadParams {
	return OverheadParams{
		HIDEFraction:    0.5,
		PortMsgInterval: 10 * time.Second,
		PortsPerMsg:     50,
	}
}

// portMsgBits returns the UDP Port Message length L^m in bits
// (Eq. 19: PHY + MAC headers + 2 fixed bytes + 2 bytes per port).
func (o OverheadParams) portMsgBits(cfg Config) int {
	return cfg.PHYHeaderBits + cfg.MACHeaderBits + 8*(2+2*o.PortsPerMsg)
}

// CapacityOverhead computes the fractional decrease in network
// capacity c = 1 - S2/S1 (Eq. 24) for n stations.
func CapacityOverhead(cfg Config, o OverheadParams, n int) (float64, error) {
	if !(o.HIDEFraction >= 0 && o.HIDEFraction <= 1) {
		return 0, fmt.Errorf("bianchi: HIDE fraction %v outside [0, 1]", o.HIDEFraction)
	}
	if o.PortMsgInterval <= 0 {
		return 0, fmt.Errorf("bianchi: non-positive port message interval %v", o.PortMsgInterval)
	}
	base, err := Solve(cfg, n)
	if err != nil {
		return 0, err
	}
	s1 := base.CapacityBps
	if s1 <= 0 {
		return 0, fmt.Errorf("bianchi: degenerate capacity %v", s1)
	}
	f := 1 / o.PortMsgInterval.Seconds()
	nu := float64(n) * o.HIDEFraction * f // Eq. 21
	nd := s1 / float64(cfg.PayloadBits)   // Eq. 22
	// Eq. 23: each port message displaces ⌊Lm/L⌋ data frames.
	displaced := math.Floor(float64(o.portMsgBits(cfg)) / float64(cfg.PayloadBits))
	if displaced < 1 {
		displaced = 1 // a message occupies at least one frame slot
	}
	s2 := (nd - nu*displaced) * float64(cfg.PayloadBits)
	if s2 < 0 {
		s2 = 0
	}
	return 1 - s2/s1, nil // Eq. 24
}

// Figure10Point is one (N, p) cell of Figure 10.
type Figure10Point struct {
	N            int
	HIDEFraction float64
	Overhead     float64 // fractional capacity decrease
}

// Figure10 sweeps the paper's Figure 10 grid: N in {5,10,20,30,40,50}
// and HIDE fractions {5%, 25%, 50%, 75%}.
func Figure10(cfg Config) ([]Figure10Point, error) {
	ns := []int{5, 10, 20, 30, 40, 50}
	ps := []float64{0.05, 0.25, 0.50, 0.75}
	var out []Figure10Point
	for _, p := range ps {
		for _, n := range ns {
			o := SectionVDefaults()
			o.HIDEFraction = p
			c, err := CapacityOverhead(cfg, o, n)
			if err != nil {
				return nil, err
			}
			out = append(out, Figure10Point{N: n, HIDEFraction: p, Overhead: c})
		}
	}
	return out, nil
}
