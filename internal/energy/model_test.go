package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/dot11"
)

// approx reports whether got is within rel of want (or both ~0).
func approx(got, want, rel float64) bool {
	if math.Abs(want) < 1e-12 {
		return math.Abs(got) < 1e-12
	}
	return math.Abs(got-want)/math.Abs(want) <= rel
}

func cfgNexus(d time.Duration) Config {
	return Config{Device: NexusOne, Duration: d}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("Galaxy S4")
	if err != nil || p.Name != "Galaxy S4" {
		t.Fatalf("ProfileByName: %v %v", p, err)
	}
	// The command-line spellings name the same profiles.
	for name, want := range map[string]string{"nexusone": "Nexus One", "GalaxyS4": "Galaxy S4", "nexus one": "Nexus One"} {
		if p, err := ProfileByName(name); err != nil || p.Name != want {
			t.Errorf("ProfileByName(%q) = %q, %v; want %q", name, p.Name, err, want)
		}
	}
	for _, bad := range []string{"iPhone", "", "nexus"} {
		if _, err := ProfileByName(bad); err == nil {
			t.Errorf("unknown profile %q accepted", bad)
		}
	}
}

func TestProfileValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Tau = 0 },
		func(p *Profile) { p.Trm = 0 },
		func(p *Profile) { p.ErmJ = -1 },
		func(p *Profile) { p.PrW = 0 },
		func(p *Profile) { p.PssW = p.PsaW },
	}
	for i, m := range mutations {
		p := NexusOne
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: invalid profile validated", i)
		}
	}
}

func TestProfileRejectsAnotherTau(t *testing.T) {
	// Policies and stations hold every processed frame at the one
	// constant Tau, so a profile claiming another τ would be priced at
	// Tau anyway: it must be rejected, not silently accepted.
	for _, dev := range Profiles {
		for _, tau := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
			p := dev
			p.Tau = tau
			if err := p.Validate(); err == nil {
				t.Errorf("%s with τ = %v validated", p.Name, tau)
			}
			if _, err := Compute(nil, Config{Device: p, Duration: time.Minute}); err == nil {
				t.Errorf("%s with τ = %v priced", p.Name, tau)
			}
		}
	}
}

func TestEmptyTraceOnlyBeacons(t *testing.T) {
	b, err := Compute(nil, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	numBeacons := int(10 * time.Second / dot11.DefaultBeaconInterval)
	wantEb := NexusOne.EBeaconJ * float64(numBeacons)
	if !approx(b.EbJ, wantEb, 1e-9) {
		t.Errorf("Eb = %v, want %v", b.EbJ, wantEb)
	}
	if b.EfJ != 0 || b.EwlJ != 0 || b.EstJ != 0 || b.EoJ != 0 {
		t.Errorf("non-beacon components non-zero: %+v", b)
	}
	if b.SuspendFraction != 1 {
		t.Errorf("suspend fraction = %v, want 1", b.SuspendFraction)
	}
}

func TestSingleFrameHandComputed(t *testing.T) {
	frames := []Arrival{{
		At: time.Second, Length: 1250, Rate: dot11.Rate1Mbps, Wakelock: time.Second,
	}}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Rx: 1250 B = 10 ms at 1 Mb/s.
	if !approx(b.EfJ, 0.530*0.010+0.245*0.0784, 1e-6) {
		// tf = 1 s - 9*102.4 ms = 78.4 ms idle until the first frame.
		t.Errorf("Ef = %v", b.EfJ)
	}
	if !approx(b.EwlJ, 0.125*1.0, 1e-9) {
		t.Errorf("Ewl = %v, want 125 mJ", b.EwlJ)
	}
	if !approx(b.EstJ, 18.26e-3+17.66e-3, 1e-9) {
		t.Errorf("Est = %v, want 35.92 mJ", b.EstJ)
	}
	if b.Resumes != 1 || b.AbortedSuspends != 0 {
		t.Errorf("Resumes=%d Aborted=%d, want 1, 0", b.Resumes, b.AbortedSuspends)
	}
	// Suspended: [0, 1.01 s] plus [2.142 s, 10 s].
	wantFrac := (1.010 + (10 - 2.142)) / 10
	if !approx(b.SuspendFraction, wantFrac, 1e-6) {
		t.Errorf("suspend fraction = %v, want %v", b.SuspendFraction, wantFrac)
	}
}

func TestWakelockRenewal(t *testing.T) {
	// Two small frames 500 ms apart: the second renews the wakelock, so
	// there is exactly one resume and the first wakelock is truncated.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 1500 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 (renewal)", b.Resumes)
	}
	// tr1 = 1.001+0.046 = 1.047; tr2 = 1.501; twl1 = 0.454; twl2 = 1.
	if !approx(b.EwlJ, 0.125*(0.454+1.0), 1e-6) {
		t.Errorf("Ewl = %v, want %v", b.EwlJ, 0.125*1.454)
	}
	if b.AbortedSuspends != 0 {
		t.Errorf("AbortedSuspends = %d, want 0", b.AbortedSuspends)
	}
}

func TestTwoSeparateWakeups(t *testing.T) {
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 5 * time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.Resumes != 2 {
		t.Errorf("Resumes = %d, want 2", b.Resumes)
	}
	if !approx(b.EstJ, 2*(18.26e-3+17.66e-3), 1e-9) {
		t.Errorf("Est = %v, want two full cycles", b.EstJ)
	}
	if !approx(b.EwlJ, 0.125*2.0, 1e-9) {
		t.Errorf("Ewl = %v, want 250 mJ", b.EwlJ)
	}
}

func TestAbortedSuspend(t *testing.T) {
	// Second frame arrives 54 ms into the 86 ms suspend operation.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 2100 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 (suspend aborted, no resume)", b.Resumes)
	}
	if b.AbortedSuspends != 1 {
		t.Errorf("AbortedSuspends = %d, want 1", b.AbortedSuspends)
	}
	// y = (2.101 - 1.047 - 1) / 0.086 = 0.054/0.086.
	wantEst := (18.26e-3 + 17.66e-3) + 17.66e-3*(0.054/0.086)
	if !approx(b.EstJ, wantEst, 1e-6) {
		t.Errorf("Est = %v, want %v", b.EstJ, wantEst)
	}
}

func TestZeroWakelockClientSideSemantics(t *testing.T) {
	// A useless frame under the client-side filter: zero wakelock, so
	// the device starts suspending right after the (instant) handling,
	// and a frame 50 ms later aborts that suspend.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: 0},
		{At: 1050 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: 0},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.EwlJ != 0 {
		t.Errorf("Ewl = %v, want 0 for zero wakelocks", b.EwlJ)
	}
	if b.Resumes != 1 || b.AbortedSuspends != 1 {
		t.Errorf("Resumes=%d Aborted=%d, want 1 and 1", b.Resumes, b.AbortedSuspends)
	}
}

func TestMoreDataIdleListening(t *testing.T) {
	base := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 1020 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	noMore, err := Compute(base, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	withMore := []Arrival{base[0], base[1]}
	withMore[0].MoreData = true
	got, err := Compute(withMore, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Extra idle: from frame-1 end (1.001 s) to frame-2 start (1.020 s).
	wantExtra := 0.245 * 0.019
	if !approx(got.EfJ-noMore.EfJ, wantExtra, 1e-6) {
		t.Errorf("more-data idle delta = %v, want %v", got.EfJ-noMore.EfJ, wantExtra)
	}
}

func TestMoreDataCappedAtBeaconInterval(t *testing.T) {
	// A lone more-data frame listens only to the end of its beacon
	// interval, not forever.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, MoreData: true, Wakelock: time.Second},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Interval 9 ends at 10*102.4 ms = 1.024 s; frame ends at 1.001 s.
	wantIdle := 0.245 * ((1.0 - 0.9216) + (1.024 - 1.001))
	wantEf := 0.530*0.001 + wantIdle
	if !approx(b.EfJ, wantEf, 1e-6) {
		t.Errorf("Ef = %v, want %v", b.EfJ, wantEf)
	}
}

func TestOverheadHandComputed(t *testing.T) {
	cfg := cfgNexus(100 * time.Second)
	cfg.Overhead = DefaultOverhead()
	b, err := Compute(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numBeacons := float64(int(100 * time.Second / dot11.DefaultBeaconInterval))
	// E1: 5 BTIM bytes = 40 bits = 40 µs at 1 Mb/s per beacon.
	e1 := 0.530 * 40e-6 * numBeacons
	// E2: M = 10 messages; Lm = 24 + 24 + 2 + 200 = 250 B = 2 ms at 1 Mb/s.
	e2 := 1.2 * 10 * 0.002
	if !approx(b.EoJ, e1+e2, 1e-6) {
		t.Errorf("Eo = %v, want %v", b.EoJ, e1+e2)
	}
}

func TestNoOverheadWhenZero(t *testing.T) {
	frames := []Arrival{{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second}}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.EoJ != 0 {
		t.Errorf("Eo = %v, want 0 without overhead config", b.EoJ)
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	if _, err := Compute(nil, Config{Device: NexusOne}); err == nil {
		t.Error("zero duration accepted")
	}
	bad := NexusOne
	bad.Tau = 0
	if _, err := Compute(nil, Config{Device: bad, Duration: time.Second}); err == nil {
		t.Error("invalid profile accepted")
	}
	frames := []Arrival{
		{At: 2 * time.Second, Length: 125, Rate: dot11.Rate1Mbps},
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps},
	}
	if _, err := Compute(frames, cfgNexus(10*time.Second)); err == nil {
		t.Error("out-of-order frames accepted")
	}
}

func TestSuspendFractionBounds(t *testing.T) {
	// Saturating traffic: frames every 100 ms for the whole window.
	var frames []Arrival
	for ms := 0; ms < 10000; ms += 100 {
		frames = append(frames, Arrival{
			At: time.Duration(ms) * time.Millisecond, Length: 125,
			Rate: dot11.Rate1Mbps, Wakelock: time.Second,
		})
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.SuspendFraction < 0 || b.SuspendFraction > 1 {
		t.Fatalf("suspend fraction %v outside [0, 1]", b.SuspendFraction)
	}
	if b.SuspendFraction > 0.01 {
		t.Errorf("suspend fraction = %v under saturating traffic, want ~0", b.SuspendFraction)
	}
	if b.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 under continuous renewal", b.Resumes)
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{EbJ: 1, EfJ: 2, EwlJ: 3, EstJ: 4, EoJ: 5, Duration: 10 * time.Second}
	if b.TotalJ() != 15 {
		t.Errorf("TotalJ = %v, want 15", b.TotalJ())
	}
	if b.AvgPowerW() != 1.5 {
		t.Errorf("AvgPowerW = %v, want 1.5", b.AvgPowerW())
	}
	eb, ef, est, ewl, eo := b.ComponentPowersW()
	if eb != 0.1 || ef != 0.2 || est != 0.4 || ewl != 0.3 || eo != 0.5 {
		t.Errorf("ComponentPowersW = %v %v %v %v %v", eb, ef, est, ewl, eo)
	}
	var zero Breakdown
	if zero.AvgPowerW() != 0 {
		t.Error("zero-duration AvgPowerW should be 0")
	}
}

func TestGalaxyS4StateTransferCostlier(t *testing.T) {
	// The S4's Erm+Esp is ~4x the Nexus One's — the root of the paper's
	// observation that client-side filtering barely helps the S4.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: 0},
		{At: 5 * time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: 0},
	}
	n1, err := Compute(frames, Config{Device: NexusOne, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Compute(frames, Config{Device: GalaxyS4, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s4.EstJ <= 3*n1.EstJ {
		t.Errorf("S4 Est = %v vs N1 %v: expected ~4x ratio", s4.EstJ, n1.EstJ)
	}
}

func TestBeaconListenIntervalDividesEb(t *testing.T) {
	cfg := cfgNexus(100 * time.Second)
	base, err := Compute(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BeaconListenInterval = 5
	li5, err := Compute(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 976 beacons at LI 1 vs 195 at LI 5.
	if !approx(li5.EbJ, base.EbJ/5, 0.02) {
		t.Errorf("Eb at LI=5: %v, want ~%v", li5.EbJ, base.EbJ/5)
	}
	// Overhead's BTIM component scales the same way.
	cfg = cfgNexus(100 * time.Second)
	cfg.Overhead = DefaultOverhead()
	baseO, err := Compute(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BeaconListenInterval = 5
	li5O, err := Compute(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if li5O.EoJ >= baseO.EoJ {
		t.Errorf("Eo did not shrink with listen interval: %v vs %v", li5O.EoJ, baseO.EoJ)
	}
}

func TestFrameDuringResumeDelaysWakelock(t *testing.T) {
	// Paper §IV.1: "If a UDP broadcast frame arrives during system
	// resume operation, activation of the WiFi wakelock will be delayed
	// until the resume operation is finished." Frame 2 arrives 20 ms
	// after frame 1 — inside frame 1's 46 ms resume — so both wakelocks
	// activate together at resume end and the union is exactly τ.
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 1020 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	b, err := Compute(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", b.Resumes)
	}
	// Both wakelocks start at tr = 1.047 s (resume end): union = 1 s.
	if !approx(b.EwlJ, 0.125*1.0, 1e-6) {
		t.Errorf("Ewl = %v, want exactly one τ worth", b.EwlJ)
	}
	if b.AbortedSuspends != 0 {
		t.Errorf("AbortedSuspends = %d, want 0", b.AbortedSuspends)
	}
}
