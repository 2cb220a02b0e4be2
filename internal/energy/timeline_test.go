package energy

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// assertPartition checks that the intervals exactly partition the
// window: sorted, contiguous, covering [0, d].
func assertPartition(t *testing.T, ivs []Interval, d time.Duration) {
	t.Helper()
	if len(ivs) == 0 {
		t.Fatal("empty timeline")
	}
	if ivs[0].From != 0 {
		t.Fatalf("timeline starts at %v", ivs[0].From)
	}
	if ivs[len(ivs)-1].To != d {
		t.Fatalf("timeline ends at %v, want %v", ivs[len(ivs)-1].To, d)
	}
	for i, iv := range ivs {
		if iv.To <= iv.From {
			t.Fatalf("interval %d empty or inverted: %+v", i, iv)
		}
		if i > 0 && ivs[i-1].To != iv.From {
			t.Fatalf("gap between %+v and %+v", ivs[i-1], iv)
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	ivs, err := StateTimeline(nil, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, ivs, 10*time.Second)
	if len(ivs) != 1 || ivs[0].Kind != StateSuspended {
		t.Fatalf("empty trace timeline: %+v", ivs)
	}
}

func TestTimelineSingleFrame(t *testing.T) {
	frames := []Arrival{{At: time.Second, Length: 1250, Rate: dot11.Rate1Mbps, Wakelock: time.Second}}
	ivs, err := StateTimeline(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, ivs, 10*time.Second)
	// suspended → resuming → awake → suspending → suspended.
	kinds := make([]StateKind, len(ivs))
	for i, iv := range ivs {
		kinds[i] = iv.Kind
	}
	want := []StateKind{StateSuspended, StateResuming, StateAwake, StateSuspending, StateSuspended}
	if len(kinds) != len(want) {
		t.Fatalf("states = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("states = %v, want %v", kinds, want)
		}
	}
	// Awake interval: [1.056 s, 2.056 s] (rxEnd 1.01 + Trm 0.046 + τ 1).
	if ivs[2].From != 1056*time.Millisecond || ivs[2].To != 2056*time.Millisecond {
		t.Fatalf("awake interval = %+v", ivs[2])
	}
}

func TestTimelineAbortedSuspendShowsPartialSuspending(t *testing.T) {
	frames := []Arrival{
		{At: time.Second, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
		{At: 2100 * time.Millisecond, Length: 125, Rate: dot11.Rate1Mbps, Wakelock: time.Second},
	}
	ivs, err := StateTimeline(frames, cfgNexus(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, ivs, 10*time.Second)
	// There are two suspending stretches: the aborted one (54 ms) and
	// the final full one (86 ms).
	var suspending []Interval
	for _, iv := range ivs {
		if iv.Kind == StateSuspending {
			suspending = append(suspending, iv)
		}
	}
	if len(suspending) != 2 {
		t.Fatalf("suspending intervals = %+v", suspending)
	}
	if suspending[0].Duration() != 54*time.Millisecond {
		t.Errorf("aborted suspend = %v, want 54ms", suspending[0].Duration())
	}
	if suspending[1].Duration() != 86*time.Millisecond {
		t.Errorf("final suspend = %v, want 86ms", suspending[1].Duration())
	}
}

func TestTimelineAgreesWithComputeProperty(t *testing.T) {
	// For arbitrary homogeneous-τ traffic, the timeline's suspended
	// share must equal Compute's SuspendFraction and its resuming
	// count must equal Resumes.
	for _, dev := range Profiles {
		dev := dev
		f := func(seed uint64, nRaw uint8) bool {
			n := int(nRaw%40) + 1
			r := sim.NewRNG(seed)
			frames := make([]Arrival, n)
			at := time.Duration(0)
			for i := range frames {
				at += time.Duration(r.Intn(2500)) * time.Millisecond
				wl := dev.Tau
				if r.Intn(3) == 0 {
					wl = 0 // mix in client-side-style drops
				}
				frames[i] = Arrival{At: at, Length: 60 + r.Intn(500), Rate: dot11.Rate1Mbps, Wakelock: wl}
			}
			duration := at + 5*time.Second
			cfg := Config{Device: dev, Duration: duration}

			ivs, err := StateTimeline(frames, cfg)
			if err != nil {
				return false
			}
			// Partition invariant.
			if ivs[0].From != 0 || ivs[len(ivs)-1].To != duration {
				return false
			}
			for i := 1; i < len(ivs); i++ {
				if ivs[i-1].To != ivs[i].From {
					return false
				}
			}

			b, err := Compute(frames, cfg)
			if err != nil {
				return false
			}
			suspFrac := float64(TimeInState(ivs, StateSuspended)) / float64(duration)
			if !approx(suspFrac, b.SuspendFraction, 1e-6) {
				t.Logf("seed %d n %d: timeline susp %.6f vs model %.6f", seed, n, suspFrac, b.SuspendFraction)
				return false
			}
			resumes := 0
			for _, iv := range ivs {
				if iv.Kind == StateResuming {
					resumes++
				}
			}
			if resumes != b.Resumes {
				t.Logf("seed %d n %d: timeline resumes %d vs model %d", seed, n, resumes, b.Resumes)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
	}
}

func TestTimelineValidation(t *testing.T) {
	if _, err := StateTimeline(nil, Config{Device: NexusOne}); err == nil {
		t.Error("zero duration accepted")
	}
	frames := []Arrival{
		{At: 2 * time.Second, Length: 100, Rate: dot11.Rate1Mbps},
		{At: time.Second, Length: 100, Rate: dot11.Rate1Mbps},
	}
	if _, err := StateTimeline(frames, cfgNexus(10*time.Second)); err == nil {
		t.Error("out-of-order frames accepted")
	}
}

func TestStateKindString(t *testing.T) {
	names := map[StateKind]string{
		StateSuspended:  "suspended",
		StateSuspending: "suspending",
		StateResuming:   "resuming",
		StateAwake:      "awake",
		StateKind(9):    "state(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// FuzzStateTimeline drives the timeline with arbitrary sorted arrivals
// (fuzzArrivals) over a window of durDS tenths of a second. The
// intervals must partition the window; when every reception ends
// inside it, the suspended time and the number of resuming stretches
// must equal what Compute reports, exactly; and the input must come
// back untouched.
func FuzzStateTimeline(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 0, 0x2a, 0, 0, 1, 0, 1, 0x01, 39, 16, 0, 100, 2, 0x02}, uint16(600), false)
	f.Add([]byte{}, uint16(1), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 3, 0xff, 0, 0, 0, 0, 0, 0}, uint16(0xffff), false)
	// Frames 1.1 s apart holding τ = 1 s, on the Galaxy S4 (Tsp 165 ms):
	// each frame after the first lands mid-suspend and aborts it.
	f.Add([]byte{0, 0, 0, 100, 0, 0xa0, 0x2a, 0xf8, 0, 100, 0, 0xa0, 0x2a, 0xf8, 0, 100, 0, 0xa0}, uint16(100), true)
	f.Fuzz(func(t *testing.T, raw []byte, durDS uint16, galaxy bool) {
		frames, _ := fuzzArrivals(raw)
		cfg := Config{Device: NexusOne, Duration: time.Duration(durDS)*100*time.Millisecond + time.Nanosecond}
		if galaxy {
			cfg.Device = GalaxyS4
		}
		keep := slices.Clone(frames)
		ivs, err := StateTimeline(frames, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertPartition(t, ivs, cfg.Duration)
		if !slices.Equal(frames, keep) {
			t.Fatal("StateTimeline modified its input")
		}
		for _, a := range frames {
			if a.endTime() >= cfg.Duration {
				return
			}
		}
		b, err := Compute(frames, cfg)
		if err != nil {
			t.Fatal(err)
		}
		susp := math.Max(0, math.Min(1, float64(TimeInState(ivs, StateSuspended))/float64(cfg.Duration)))
		resuming := 0
		for _, iv := range ivs {
			if iv.Kind == StateResuming {
				resuming++
			}
		}
		if susp != b.SuspendFraction || resuming != b.Resumes {
			t.Fatalf("timeline suspended %v of the window and %d resumes; Compute %v and %d", susp, resuming, b.SuspendFraction, b.Resumes)
		}
	})
}
