package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/dot11"
)

func smallTrace() *Trace {
	return &Trace{
		Name: "t", Duration: 10 * time.Second,
		Frames: []Frame{
			{At: 1 * time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 1},
			{At: 3 * time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 2},
			{At: 5 * time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 3},
			{At: 9 * time.Second, Length: 100, Rate: dot11.Rate1Mbps, DstPort: 4},
		},
	}
}

func TestTruncate(t *testing.T) {
	tr := smallTrace()
	got := Truncate(tr, 4*time.Second)
	if got.Duration != 4*time.Second || len(got.Frames) != 2 {
		t.Fatalf("Truncate: dur=%v frames=%d", got.Duration, len(got.Frames))
	}
	if len(tr.Frames) != 4 {
		t.Fatal("Truncate mutated its input")
	}
	if got := Truncate(tr, 20*time.Second); got.Duration != 10*time.Second || len(got.Frames) != 4 {
		t.Fatal("Truncate beyond duration should be identity")
	}
	if got := Truncate(tr, 0); len(got.Frames) != 0 {
		t.Fatal("Truncate to zero kept frames")
	}
}

func TestTimeScale(t *testing.T) {
	tr := smallTrace()
	got, err := TimeScale(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != 20*time.Second {
		t.Fatalf("duration = %v", got.Duration)
	}
	if got.Frames[1].At != 6*time.Second {
		t.Fatalf("frame 1 at %v, want 6s", got.Frames[1].At)
	}
	// Density halves under a 2x stretch.
	if math.Abs(got.MeanFPS()-tr.MeanFPS()/2) > 1e-9 {
		t.Fatalf("density: %v vs %v", got.MeanFPS(), tr.MeanFPS())
	}
	if _, err := TimeScale(tr, 0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestTransformsComposeWithEvaluation(t *testing.T) {
	// A density sweep built from one trace: scaling time by 0.5 doubles
	// density and must increase receive-all-style load (more frames in
	// the same window once truncated back).
	tr, err := GenerateScenario(CSDept)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := TimeScale(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if dense.MeanFPS() <= tr.MeanFPS()*1.5 {
		t.Fatalf("densified trace fps %v not ~2x of %v", dense.MeanFPS(), tr.MeanFPS())
	}
	if err := dense.Validate(); err != nil {
		t.Fatal(err)
	}
}
