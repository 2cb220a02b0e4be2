package trace

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// Scenario identifies one of the paper's five capture environments.
type Scenario int

// The five trace scenarios of the paper's evaluation (Figure 6).
const (
	Classroom Scenario = iota
	CSDept
	WML // college library
	Starbucks
	WRL // city public library
)

// Scenarios lists all five scenarios in the paper's presentation order.
var Scenarios = []Scenario{Classroom, CSDept, WML, Starbucks, WRL}

// String returns the scenario name as the paper labels it.
func (s Scenario) String() string {
	switch s {
	case Classroom:
		return "Classroom"
	case CSDept:
		return "CS_Dept"
	case WML:
		return "WML"
	case Starbucks:
		return "Starbucks"
	case WRL:
		return "WRL"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ScenarioByName resolves a scenario by its String name, ignoring
// case.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown scenario %q", name)
}

// PortMix is a weighted set of destination UDP ports appearing in
// broadcast traffic.
type PortMix struct {
	Ports   []uint16
	Weights []float64 // same length; need not sum to 1
}

// DefaultPortMix reflects the protocol composition typical of campus
// and public WiFi broadcast traffic: NetBIOS name/datagram service,
// SSDP, mDNS, DHCP, LLMNR, Dropbox LanSync, and printer discovery —
// the kinds of service-discovery chatter the paper calls useless to
// most phones.
func DefaultPortMix() PortMix {
	return PortMix{
		Ports:   []uint16{137, 138, 1900, 5353, 67, 68, 5355, 17500, 631, 9956},
		Weights: []float64{0.24, 0.16, 0.18, 0.16, 0.06, 0.02, 0.08, 0.05, 0.03, 0.02},
	}
}

// Pick draws a port from the mix.
func (m PortMix) Pick(r *sim.RNG) uint16 {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range m.Weights {
		x -= w
		if x < 0 {
			return m.Ports[i]
		}
	}
	return m.Ports[len(m.Ports)-1]
}

// GenConfig parameterizes the synthetic trace generator. The generator
// uses a two-state (quiet/burst) modulated Poisson process: broadcast
// traffic in the wild is bursty — service-discovery protocols send
// trains of packets — which is what gives Figure 6 its long tails.
type GenConfig struct {
	Name     string
	Duration time.Duration
	// MeanFPS is the target average frames per second (the black
	// squares of Figure 6).
	MeanFPS float64
	// BurstFactor is the ratio of burst-state rate to the mean rate
	// (>= 1). Larger values produce heavier CDF tails.
	BurstFactor float64
	// BurstFraction is the fraction of time spent in the burst state.
	BurstFraction float64
	// MeanFrameBytes is the mean MAC frame length; lengths are drawn
	// from a shifted exponential clamped to [60, 1534].
	MeanFrameBytes int
	// MoreDataFraction is the probability a frame has the more-data
	// bit set (another group frame follows in the same DTIM burst).
	MoreDataFraction float64
	// Rates and RateWeights give the PHY rate distribution. Broadcast
	// frames go out at basic rates.
	Rates       []dot11.Rate
	RateWeights []float64
	// Mix is the destination-port composition.
	Mix PortMix
	// Seed makes generation reproducible.
	Seed uint64
}

// ScenarioConfig returns the calibrated generator configuration for a
// scenario. Mean rates are calibrated to Figure 6's marked averages:
// Classroom and WML are the heavy traces (the paper notes receive-all
// suspends <20% of the time there), Starbucks is the lightest.
func ScenarioConfig(s Scenario) GenConfig {
	cfg := GenConfig{
		Name:             s.String(),
		Duration:         45 * time.Minute,
		MeanFrameBytes:   220,
		MoreDataFraction: 0.35,
		Rates:            []dot11.Rate{dot11.Rate1Mbps, dot11.Rate2Mbps, dot11.Rate55Mbps, dot11.Rate11Mbps},
		RateWeights:      []float64{0.45, 0.25, 0.15, 0.15},
		Mix:              DefaultPortMix(),
		Seed:             0x41d3 + uint64(s),
	}
	// Densities are calibrated to the regime the paper's figures imply.
	// Classroom and WML are the heavy traces: with τ = 1 s wakelocks,
	// receive-all suspends <20% of the time there (Fig. 9) and HIDE:10%
	// still keeps the device awake often enough to land at the low end
	// of the savings ranges (34% Nexus One / 18% Galaxy S4). Starbucks
	// is the lightest trace, where savings peak. Means span Figure 6's
	// 0-50 frames/s axis with bursty tails.
	switch s {
	case Classroom:
		cfg.MeanFPS = 12
		cfg.BurstFactor = 3.0
		cfg.BurstFraction = 0.25
		cfg.Duration = 40 * time.Minute
	case CSDept:
		cfg.MeanFPS = 2.5
		cfg.BurstFactor = 5.0
		cfg.BurstFraction = 0.12
		cfg.Duration = 60 * time.Minute
	case WML:
		cfg.MeanFPS = 15
		cfg.BurstFactor = 2.5
		cfg.BurstFraction = 0.30
		cfg.Duration = 45 * time.Minute
	case Starbucks:
		cfg.MeanFPS = 0.35
		cfg.BurstFactor = 6.0
		cfg.BurstFraction = 0.08
		cfg.Duration = 30 * time.Minute
	case WRL:
		cfg.MeanFPS = 5
		cfg.BurstFactor = 4.0
		cfg.BurstFraction = 0.15
		cfg.Duration = 50 * time.Minute
	}
	return cfg
}

// Generate produces a synthetic trace from the configuration.
func Generate(cfg GenConfig) (*Trace, error) {
	if cfg.MeanFPS <= 0 {
		return nil, fmt.Errorf("trace: MeanFPS %v must be positive", cfg.MeanFPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: Duration %v must be positive", cfg.Duration)
	}
	if cfg.BurstFactor < 1 {
		return nil, fmt.Errorf("trace: BurstFactor %v must be >= 1", cfg.BurstFactor)
	}
	if cfg.BurstFraction < 0 || cfg.BurstFraction >= 1 {
		return nil, fmt.Errorf("trace: BurstFraction %v must be in [0, 1)", cfg.BurstFraction)
	}
	if len(cfg.Rates) == 0 || len(cfg.Rates) != len(cfg.RateWeights) {
		return nil, fmt.Errorf("trace: rates/weights mismatch (%d vs %d)", len(cfg.Rates), len(cfg.RateWeights))
	}
	if len(cfg.Mix.Ports) == 0 || len(cfg.Mix.Ports) != len(cfg.Mix.Weights) {
		return nil, fmt.Errorf("trace: port mix malformed")
	}
	r := sim.NewRNG(cfg.Seed)

	// Solve for the two state rates so the long-run mean is MeanFPS:
	// mean = fq*(1-bf) + fq*factor*bf  =>  fq = mean / (1-bf+factor*bf).
	quietRate := cfg.MeanFPS / (1 - cfg.BurstFraction + cfg.BurstFactor*cfg.BurstFraction)
	burstRate := quietRate * cfg.BurstFactor

	// Alternate exponentially-distributed sojourns; mean sojourn 20 s
	// split by the burst fraction.
	const meanCycle = 20.0 // seconds
	meanBurst := meanCycle * cfg.BurstFraction
	meanQuiet := meanCycle - meanBurst

	tr := &Trace{Name: cfg.Name, Duration: cfg.Duration}
	now := 0.0
	end := cfg.Duration.Seconds()
	inBurst := false
	for now < end {
		var sojourn, rate float64
		if inBurst {
			sojourn = r.ExpFloat64() * meanBurst
			rate = burstRate
		} else {
			sojourn = r.ExpFloat64() * meanQuiet
			rate = quietRate
		}
		stateEnd := now + sojourn
		if stateEnd > end {
			stateEnd = end
		}
		// Poisson arrivals within the state.
		t := now
		for rate > 0 {
			t += r.ExpFloat64() / rate
			if t >= stateEnd {
				break
			}
			tr.Frames = append(tr.Frames, Frame{
				At:       time.Duration(t * float64(time.Second)),
				Length:   frameLength(r, cfg.MeanFrameBytes),
				Rate:     pickRate(r, cfg.Rates, cfg.RateWeights),
				DstPort:  cfg.Mix.Pick(r),
				MoreData: r.Float64() < cfg.MoreDataFraction,
			})
		}
		now = stateEnd
		inBurst = !inBurst
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// GenerateScenario generates the calibrated trace for a scenario.
func GenerateScenario(s Scenario) (*Trace, error) {
	return Generate(ScenarioConfig(s))
}

// frameLength draws a MAC frame length: header + shifted-exponential
// body, clamped to valid 802.11 sizes.
func frameLength(r *sim.RNG, mean int) int {
	const min, max = 60, 1534
	body := float64(mean-min) * r.ExpFloat64()
	n := min + int(body)
	if n > max {
		n = max
	}
	return n
}

// pickRate draws a PHY rate from the weighted set.
func pickRate(r *sim.RNG, rates []dot11.Rate, weights []float64) dot11.Rate {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return rates[i]
		}
	}
	return rates[len(rates)-1]
}
