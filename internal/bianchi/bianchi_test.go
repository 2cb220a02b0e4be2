package bianchi

import (
	"math"
	"testing"
	"time"
)

func TestTableIIValid(t *testing.T) {
	if err := TableII().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := TableII().stages(); got != 5 {
		t.Errorf("backoff stages = %d, want 5 (32→1024)", got)
	}
}

func TestValidateCatchesBadConfig(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.CWMin = 1 },
		func(c *Config) { c.CWMax = c.CWMin - 1 },
		func(c *Config) { c.SlotTime = 0 },
		func(c *Config) { c.DataRate = 0 },
		func(c *Config) { c.PayloadBits = 0 },
	}
	for i, m := range mutations {
		cfg := TableII()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestSolveFixedPointConsistency(t *testing.T) {
	cfg := TableII()
	for _, n := range []int{1, 2, 5, 10, 20, 50} {
		r, err := Solve(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tau <= 0 || r.Tau >= 1 {
			t.Errorf("n=%d: tau = %v outside (0, 1)", n, r.Tau)
		}
		if r.P < 0 || r.P >= 1 {
			t.Errorf("n=%d: p = %v outside [0, 1)", n, r.P)
		}
		// The fixed point must satisfy p = 1 - (1-tau)^(n-1).
		want := 1 - math.Pow(1-r.Tau, float64(n-1))
		if math.Abs(r.P-want) > 1e-6 {
			t.Errorf("n=%d: fixed point violated: p=%v vs %v", n, r.P, want)
		}
		if r.Phi <= 0 || r.Phi >= 1 {
			t.Errorf("n=%d: phi = %v outside (0, 1)", n, r.Phi)
		}
	}
}

func TestSolveSingleStationNoCollisions(t *testing.T) {
	r, err := Solve(TableII(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 0 {
		t.Errorf("single station collision probability = %v, want 0", r.P)
	}
}

func TestCollisionProbabilityGrowsWithN(t *testing.T) {
	cfg := TableII()
	prev := -1.0
	for _, n := range []int{2, 5, 10, 20, 30, 40, 50} {
		r, err := Solve(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.P <= prev {
			t.Errorf("p(n=%d) = %v not greater than previous %v", n, r.P, prev)
		}
		prev = r.P
	}
}

func TestCapacityDropsSlowlyWithN(t *testing.T) {
	// The paper: "the original network capacity drops only slightly
	// when the number of nodes increases from 5 to 50."
	cfg := TableII()
	r5, err := Solve(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := Solve(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r50.CapacityBps >= r5.CapacityBps {
		t.Errorf("capacity should decrease with N: %v vs %v", r50.CapacityBps, r5.CapacityBps)
	}
	if drop := 1 - r50.CapacityBps/r5.CapacityBps; drop > 0.30 {
		t.Errorf("capacity drop 5→50 nodes = %.1f%%, want slight", drop*100)
	}
}

func TestSolveRejectsBadN(t *testing.T) {
	if _, err := Solve(TableII(), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestCapacityOverheadPaperHeadline(t *testing.T) {
	// Paper: "With 50 nodes in the network and 75% of the nodes with
	// HIDE enabled, the decrease of network capacity is only 0.13%."
	o := SectionVDefaults()
	o.HIDEFraction = 0.75
	c, err := CapacityOverhead(TableII(), o, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.0005 || c > 0.003 {
		t.Errorf("overhead at N=50, p=75%% = %.4f%%, want ~0.13%%", c*100)
	}
}

func TestCapacityOverheadMonotoneInNAndP(t *testing.T) {
	cfg := TableII()
	// Monotone in N for fixed p.
	prev := -1.0
	for _, n := range []int{5, 10, 20, 30, 40, 50} {
		o := SectionVDefaults()
		c, err := CapacityOverhead(cfg, o, n)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Errorf("overhead(N=%d) = %v not greater than previous", n, c)
		}
		prev = c
	}
	// Monotone in p for fixed N.
	prev = -1.0
	for _, p := range []float64{0.05, 0.25, 0.50, 0.75} {
		o := SectionVDefaults()
		o.HIDEFraction = p
		c, err := CapacityOverhead(cfg, o, 30)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Errorf("overhead(p=%v) = %v not greater than previous", p, c)
		}
		prev = c
	}
}

func TestCapacityOverheadNegligible(t *testing.T) {
	// The paper's conclusion: under 0.5% everywhere on the Figure 10
	// grid.
	points, err := Figure10(TableII())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("Figure 10 grid has %d points, want 24", len(points))
	}
	for _, pt := range points {
		if pt.Overhead < 0 || pt.Overhead > 0.005 {
			t.Errorf("N=%d p=%v: overhead %.4f%% outside (0, 0.5%%]", pt.N, pt.HIDEFraction, pt.Overhead*100)
		}
	}
}

func TestCapacityOverheadValidation(t *testing.T) {
	o := SectionVDefaults()
	o.HIDEFraction = 1.5
	if _, err := CapacityOverhead(TableII(), o, 10); err == nil {
		t.Error("HIDE fraction > 1 accepted")
	}
	o.HIDEFraction = math.NaN()
	if _, err := CapacityOverhead(TableII(), o, 10); err == nil {
		t.Error("NaN HIDE fraction accepted")
	}
	o = SectionVDefaults()
	o.PortMsgInterval = 0
	if _, err := CapacityOverhead(TableII(), o, 10); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestHigherRateLowersOverheadShare(t *testing.T) {
	// The paper notes newer 802.11 versions have even less overhead:
	// raising the channel rate raises capacity, so the fixed port
	// message load displaces a smaller fraction.
	cfg := TableII()
	base, err := CapacityOverhead(cfg, SectionVDefaults(), 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataRate = 54e6
	faster, err := CapacityOverhead(cfg, SectionVDefaults(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if faster >= base {
		t.Errorf("54 Mb/s overhead %v not below 11 Mb/s overhead %v", faster, base)
	}
}

func TestPortMsgBits(t *testing.T) {
	o := OverheadParams{PortsPerMsg: 50}
	// 192 + 224 + 8*(2 + 100) = 1232 bits.
	if got := o.portMsgBits(TableII()); got != 1232 {
		t.Errorf("portMsgBits = %d, want 1232", got)
	}
}

func TestSolveTimings(t *testing.T) {
	// Ts > Tc > payload time sanity via a capacity bound: at most the
	// payload/(payload+overhead) share of the channel.
	cfg := TableII()
	r, err := Solve(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	tp := time.Duration(float64(cfg.PayloadBits) / cfg.DataRate * float64(time.Second))
	hdr := time.Duration(float64(cfg.MACHeaderBits+cfg.PHYHeaderBits) / cfg.DataRate * float64(time.Second))
	upper := tp.Seconds() / (tp + hdr + cfg.SIFS + cfg.DIFS).Seconds()
	if r.Phi >= upper {
		t.Errorf("phi %v exceeds physical upper bound %v", r.Phi, upper)
	}
}
