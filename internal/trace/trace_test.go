package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dot11"
)

func TestGenerateScenarioCalibration(t *testing.T) {
	for _, s := range Scenarios {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			tr, err := GenerateScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			cfg := ScenarioConfig(s)
			mean := tr.MeanFPS()
			// Within 15% of the Figure 6 calibration target.
			if math.Abs(mean-cfg.MeanFPS)/cfg.MeanFPS > 0.15 {
				t.Errorf("mean FPS = %.2f, want within 15%% of %.1f", mean, cfg.MeanFPS)
			}
			if tr.Duration < 30*time.Minute || tr.Duration > 60*time.Minute {
				t.Errorf("duration %v outside the paper's 30-60 min range", tr.Duration)
			}
		})
	}
}

func TestScenarioOrderingMatchesPaper(t *testing.T) {
	// Classroom and WML are the heavy traces; Starbucks the lightest.
	fps := map[Scenario]float64{}
	for _, s := range Scenarios {
		tr, err := GenerateScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		fps[s] = tr.MeanFPS()
	}
	if fps[Starbucks] >= fps[CSDept] || fps[Starbucks] >= fps[WRL] {
		t.Errorf("Starbucks (%.2f) should be the lightest trace: %v", fps[Starbucks], fps)
	}
	if fps[WML] <= fps[CSDept] || fps[Classroom] <= fps[CSDept] {
		t.Errorf("WML/Classroom should be heavier than CS_Dept: %v", fps)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := ScenarioConfig(Starbucks)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("same seed produced %d vs %d frames", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs between same-seed runs", i)
		}
	}
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Frames) == len(a.Frames) {
		same := true
		for i := range a.Frames {
			if a.Frames[i] != c.Frames[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	base := ScenarioConfig(Starbucks)
	cases := []func(*GenConfig){
		func(c *GenConfig) { c.MeanFPS = 0 },
		func(c *GenConfig) { c.Duration = 0 },
		func(c *GenConfig) { c.BurstFactor = 0.5 },
		func(c *GenConfig) { c.BurstFraction = 1.0 },
		func(c *GenConfig) { c.Rates = nil },
		func(c *GenConfig) { c.Mix = PortMix{} },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFrameLengthsInRange(t *testing.T) {
	tr, err := GenerateScenario(Classroom)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Frames {
		if f.Length < 60 || f.Length > 1534 {
			t.Fatalf("frame length %d outside [60, 1534]", f.Length)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Trace {
		return &Trace{
			Name: "t", Duration: 10 * time.Second,
			Frames: []Frame{
				{At: time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 53},
				{At: 2 * time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 53},
			},
		}
	}
	good := mk()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []func(*Trace){
		func(tr *Trace) { tr.Frames[0].At = -time.Second },
		func(tr *Trace) { tr.Frames[1].At = 11 * time.Second },
		func(tr *Trace) { tr.Frames[0].At, tr.Frames[1].At = tr.Frames[1].At, tr.Frames[0].At },
		func(tr *Trace) { tr.Frames[0].Length = 0 },
		func(tr *Trace) { tr.Frames[0].Rate = 0 },
	}
	for i, corrupt := range cases {
		tr := mk()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: corrupted trace validated", i)
		}
	}
}

func TestFramesPerSecond(t *testing.T) {
	tr := &Trace{
		Name: "t", Duration: 3 * time.Second,
		Frames: []Frame{
			{At: 0, Length: 100, Rate: dot11.Rate1Mbps},
			{At: 500 * time.Millisecond, Length: 100, Rate: dot11.Rate1Mbps},
			{At: 2500 * time.Millisecond, Length: 100, Rate: dot11.Rate1Mbps},
		},
	}
	counts := tr.FramesPerSecond()
	want := []int{2, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if got := tr.MeanFPS(); got != 1.0 {
		t.Errorf("MeanFPS = %v, want 1", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDFInts([]int{1, 2, 2, 3, 10})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.6 {
		t.Errorf("At(2) = %v, want 0.6", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if got := c.Mean(); math.Abs(got-3.6) > 1e-9 {
		t.Errorf("Mean = %v, want 3.6", got)
	}
	xs, ps := c.Points()
	if len(xs) != 4 || ps[len(ps)-1] != 1 {
		t.Errorf("Points = %v %v", xs, ps)
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 10 {
		t.Errorf("extreme quantiles wrong: %v %v", c.Quantile(0), c.Quantile(1))
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i%17) * 1.5
	}
	c := NewCDF(samples)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagUniform(t *testing.T) {
	tr, err := GenerateScenario(WML)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.02, 0.1, 0.5} {
		u := TagUniform(tr, p, 99)
		got := UsefulFraction(u)
		if math.Abs(got-p) > 0.02 {
			t.Errorf("TagUniform(%v) fraction = %v", p, got)
		}
	}
	// Deterministic.
	a := TagUniform(tr, 0.1, 7)
	b := TagUniform(tr, 0.1, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TagUniform not deterministic for fixed seed")
		}
	}
}

func TestTagByOpenPorts(t *testing.T) {
	tr, err := GenerateScenario(CSDept)
	if err != nil {
		t.Fatal(err)
	}
	open := map[uint16]bool{5353: true}
	u := TagByOpenPorts(tr, open)
	for i, f := range tr.Frames {
		if u[i] != (f.DstPort == 5353) {
			t.Fatalf("frame %d port %d tagged %v", i, f.DstPort, u[i])
		}
	}
}

func TestOpenPortsForFraction(t *testing.T) {
	tr, err := GenerateScenario(Classroom)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.02, 0.05, 0.1} {
		open := OpenPortsForFraction(tr, target)
		got := UsefulFraction(TagByOpenPorts(tr, open))
		if math.Abs(got-target) > 0.05 {
			t.Errorf("target %v: achieved fraction %v (ports %v)", target, got, open)
		}
	}
	if len(OpenPortsForFraction(tr, 0)) != 0 {
		t.Error("target 0 returned open ports")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := GenerateScenario(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func assertTracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name = %q, want %q", got.Name, want.Name)
	}
	if got.Duration != want.Duration {
		t.Errorf("duration = %v, want %v", got.Duration, want.Duration)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("frames = %d, want %d", len(got.Frames), len(want.Frames))
	}
	for i := range want.Frames {
		w, g := want.Frames[i], got.Frames[i]
		// Times round-trip at microsecond granularity.
		if w.At.Truncate(time.Microsecond) != g.At || w.Length != g.Length ||
			w.Rate != g.Rate || w.DstPort != g.DstPort || w.MoreData != g.MoreData {
			t.Fatalf("frame %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	const pre = "#name=x;duration_us=1000000\nat_us,length,rate_bps,dst_port,more_data\n"
	cases := []string{
		"",
		"at_us,length\n",
		"#name=x;duration_us=1000\nat_us,length,rate_bps,dst_port,more_data\nnot,a,valid,row,x\n",
		"#name=x;duration_us=1000\nwrong,header,entirely,here,now\n",
		// Rates must be finite, and no broadcast frame is 64 KiB long.
		pre + "0,100,NaN,5353,false\n",
		pre + "0,100,+Inf,5353,false\n",
		pre + "0,65537,1e6,5353,false\n",
		// Microsecond counts whose nanoseconds wrap to 384 ns.
		pre + "18446744073709552,100,1e6,5353,false\n",
		"#name=x;duration_us=18446744073709552\nat_us,length,rate_bps,dst_port,more_data\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: garbage CSV accepted", i)
		}
	}
}

// TestCSVNameRoundTrip: a CSV trace name keeps its spaces and
// semicolons, even one that looks like the duration segment.
func TestCSVNameRoundTrip(t *testing.T) {
	for _, name := range []string{"Star bucks", "a;b", "x;duration_us=7", " "} {
		tr := &Trace{Name: name, Duration: 10 * time.Second, Frames: []Frame{
			{At: time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 5353},
		}}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%q read back as %+v", name, got)
		}
	}
	if err := WriteCSV(io.Discard, &Trace{Name: "two\nlines"}); err == nil {
		t.Error("a name with a newline was written")
	}
}

func TestPortMixPickDistribution(t *testing.T) {
	mix := DefaultPortMix()
	tr, err := GenerateScenario(WML)
	if err != nil {
		t.Fatal(err)
	}
	hist := tr.PortHistogram()
	for port := range hist {
		found := false
		for _, p := range mix.Ports {
			if p == port {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("generated port %d not in the mix", port)
		}
	}
	// The heaviest-weighted port should appear most often.
	if hist[137] <= hist[9956] {
		t.Errorf("port weights not respected: 137→%d vs 9956→%d", hist[137], hist[9956])
	}
}

func TestSummarizeUniformVsBursty(t *testing.T) {
	// A strictly periodic trace: dispersion ~0, CV ~0.
	uniform := &Trace{Name: "u", Duration: 100 * time.Second}
	for i := 0; i < 100; i++ {
		uniform.Frames = append(uniform.Frames, Frame{
			At:     time.Duration(i)*time.Second + 500*time.Millisecond,
			Length: 100, Rate: dot11.Rate1Mbps, DstPort: 1,
		})
	}
	us := Summarize(uniform)
	if us.IndexOfDispersion > 0.1 {
		t.Errorf("uniform dispersion = %v, want ~0", us.IndexOfDispersion)
	}
	if us.CV > 0.1 {
		t.Errorf("uniform CV = %v, want ~0", us.CV)
	}
	if us.MeanFPS != 1 || us.PeakFPS != 1 {
		t.Errorf("uniform rate stats: %+v", us)
	}

	// The bursty generator must show dispersion and CV well above 1.
	tr, err := GenerateScenario(Classroom)
	if err != nil {
		t.Fatal(err)
	}
	bs := Summarize(tr)
	if bs.IndexOfDispersion < 1.5 {
		t.Errorf("Classroom dispersion = %v, want bursty (>1.5)", bs.IndexOfDispersion)
	}
	if bs.CV < 1.0 {
		t.Errorf("Classroom CV = %v, want >= 1", bs.CV)
	}
	if bs.PeakFPS <= int(bs.MeanFPS) {
		t.Errorf("peak %d not above mean %v", bs.PeakFPS, bs.MeanFPS)
	}
	if bs.DistinctPorts < 5 {
		t.Errorf("distinct ports = %d", bs.DistinctPorts)
	}
	if bs.MeanFrameBytes < 60 || bs.MeanFrameBytes > 1534 {
		t.Errorf("mean frame bytes = %v", bs.MeanFrameBytes)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	empty := Summarize(&Trace{Name: "e", Duration: time.Second})
	if empty.Frames != 0 || empty.CV != 0 || empty.IndexOfDispersion != 0 {
		t.Errorf("empty summary: %+v", empty)
	}
	single := Summarize(&Trace{
		Name: "s", Duration: time.Second,
		Frames: []Frame{{At: 0, Length: 100, Rate: dot11.Rate1Mbps}},
	})
	if single.Frames != 1 || single.CV != 0 {
		t.Errorf("single summary: %+v", single)
	}
}

// TestFrameDatagram: the datagram encapsulates to a frame of exactly
// the trace frame's length, carries only zeros, and costs no
// allocation for padding that fits the shared buffer.
func TestFrameDatagram(t *testing.T) {
	for _, length := range []int{1, dot11.MACHeaderLen + dot11.UDPEncapsLen, 120, 1500, 5000} {
		f := Frame{Length: length, DstPort: 5353}
		d := f.Datagram()
		if d.DstPort != 5353 || d.DstIP != [4]byte{255, 255, 255, 255} {
			t.Fatalf("length %d: datagram %+v", length, d)
		}
		want := max(length, dot11.MACHeaderLen+dot11.UDPEncapsLen)
		if got := dot11.MACHeaderLen + len(dot11.EncapsulateUDP(d)); got != want {
			t.Errorf("length %d: encapsulated frame is %d bytes, want %d", length, got, want)
		}
		if bytes.ContainsFunc(d.Payload, func(r rune) bool { return r != 0 }) {
			t.Errorf("length %d: padding is not all zeros", length)
		}
	}
	f := Frame{Length: 1500}
	if n := testing.AllocsPerRun(100, func() { _ = f.Datagram() }); n != 0 {
		t.Fatalf("Datagram allocates %v times per call", n)
	}
}

func TestScenarioByName(t *testing.T) {
	for _, s := range Scenarios {
		for _, name := range []string{s.String(), strings.ToLower(s.String()), strings.ToUpper(s.String())} {
			if got, err := ScenarioByName(name); err != nil || got != s {
				t.Errorf("ScenarioByName(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, bad := range []string{"", "none", "NoSuchPlace", "Starbucks "} {
		if _, err := ScenarioByName(bad); err == nil {
			t.Errorf("ScenarioByName(%q) accepted", bad)
		}
	}
}
