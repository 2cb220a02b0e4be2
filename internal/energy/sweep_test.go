package energy

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

// This file checks the model kernel behind Compute and ComputeSweep
// against referenceCompute, an independent single-candidate
// implementation of the same equations: one pass over the frames with
// one wakelock machine inline, every frame holding its own Wakelock.
// Compute and every ComputeSweep result must equal it exactly, with ==
// on the whole Breakdown.

// referenceCompute evaluates the Section IV model over the
// received-frame sequence. Frames must be sorted by arrival time.
func referenceCompute(frames []Arrival, cfg Config) (Breakdown, error) {
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
	return b, nil
}

// restamp returns a copy of frames in which every useless frame holds
// wakelock wl: the arrivals the client-side filter produces at driver
// wakelock wl.
func restamp(frames []Arrival, useful []bool, wl time.Duration) []Arrival {
	out := append([]Arrival(nil), frames...)
	for i := range out {
		if !useful[i] {
			out[i].Wakelock = wl
		}
	}
	return out
}

// genMixed builds n random sorted arrivals and a usefulness mask: gaps
// that span the renewal, abort and full-suspend regimes (ties
// included), several rates and a missing one, MoreData chains, useful
// frames at τ and useless ones at 0, 100 or 200 ms.
func genMixed(seed uint64, n int) ([]Arrival, []bool) {
	r := sim.NewRNG(seed)
	rates := []dot11.Rate{dot11.Rate1Mbps, dot11.Rate2Mbps, dot11.Rate11Mbps, 0}
	frames := make([]Arrival, n)
	useful := make([]bool, n)
	at := time.Duration(0)
	for i := range frames {
		switch r.Intn(4) {
		case 0: // within a burst
			at += time.Duration(r.Intn(5)) * time.Millisecond
		case 1: // within a wakelock
			at += time.Duration(r.Intn(900)) * time.Millisecond
		default: // past it: suspend or abort
			at += time.Duration(r.Intn(4000)) * time.Millisecond
		}
		useful[i] = r.Intn(5) == 0
		wl := time.Second
		if !useful[i] {
			wl = time.Duration(r.Intn(3)) * 100 * time.Millisecond
		}
		frames[i] = Arrival{
			At:       at,
			Length:   40 + r.Intn(1500),
			Rate:     rates[r.Intn(len(rates))],
			MoreData: r.Intn(3) == 0,
			Wakelock: wl,
		}
	}
	return frames, useful
}

// sweepCandidates are the candidate lists the reference checks run:
// lengths 1 to 6, each holding 0 or τ.
var sweepCandidates = [][]time.Duration{
	{0},
	{time.Second},
	{0, time.Second},
	{time.Second, 0, 50 * time.Millisecond},
	{0, 50 * time.Millisecond, 100 * time.Millisecond, time.Second},
	{0, 10 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, time.Second},
	{0, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, time.Second},
}

// checkSweep fails t unless Compute equals referenceCompute on frames,
// and every ComputeSweep result equals referenceCompute on frames
// restamped with its candidate.
func checkSweep(t testing.TB, frames []Arrival, useful []bool, wls []time.Duration, cfg Config) {
	t.Helper()
	want, werr := referenceCompute(frames, cfg)
	got, err := Compute(frames, cfg)
	if (err != nil) != (werr != nil) || got != want {
		t.Fatalf("Compute = %+v, %v; reference %+v, %v", got, err, want, werr)
	}
	out := make([]Breakdown, len(wls))
	serr := ComputeSweep(frames, useful, wls, cfg, out)
	for k, wl := range wls {
		want, werr := referenceCompute(restamp(frames, useful, wl), cfg)
		if (serr != nil) != (werr != nil) {
			t.Fatalf("candidate %v: ComputeSweep error %v, reference error %v", wl, serr, werr)
		}
		if serr == nil && out[k] != want {
			t.Fatalf("candidate %d (%v) of %d: sweep %+v; reference %+v", k, wl, len(wls), out[k], want)
		}
	}
}

func TestComputeAndSweepMatchReference(t *testing.T) {
	// Empty input, and sizes on both sides of the kernel's chunk
	// boundaries.
	sizes := []int{0, 1, 2, 17, 90, chunk - 1, chunk, chunk + 1, 2*chunk + 37}
	for _, dev := range Profiles {
		for _, hide := range []bool{false, true} {
			for seed := uint64(1); seed <= 24; seed++ {
				frames, useful := genMixed(seed, sizes[seed%uint64(len(sizes))])
				cfg := Config{Device: dev, Duration: 5 * time.Minute}
				if n := len(frames); n > 0 && seed%3 == 0 {
					// A window that ends inside the last wakelock.
					cfg.Duration = frames[n-1].At + 300*time.Millisecond
				}
				if hide {
					cfg.Overhead = DefaultOverhead()
					cfg.BeaconListenInterval = int(seed%3) + 1
				}
				for _, wls := range sweepCandidates {
					checkSweep(t, frames, useful, wls, cfg)
				}
			}
		}
	}
}

func TestComputeSweepRejectsOutOfOrder(t *testing.T) {
	// Swaps inside the first chunk and across the first chunk boundary.
	for _, at := range []int{7, chunk - 1} {
		frames, useful := genMixed(3, chunk+20)
		frames[at].At, frames[at+1].At = frames[at+1].At+time.Millisecond, frames[at].At
		cfg := Config{Device: NexusOne, Duration: time.Hour}
		if _, err := referenceCompute(frames, cfg); err == nil {
			t.Fatalf("swap at %d: reference accepted out-of-order frames", at)
		}
		if _, err := Compute(frames, cfg); err == nil {
			t.Fatalf("swap at %d: Compute accepted out-of-order frames", at)
		}
		out := make([]Breakdown, 2)
		if err := ComputeSweep(frames, useful, []time.Duration{0, time.Second}, cfg, out); err == nil {
			t.Fatalf("swap at %d: ComputeSweep accepted out-of-order frames", at)
		}
		checkSweep(t, frames, useful, []time.Duration{0, time.Second}, cfg)
	}
}

func TestComputeSweepRejectsBadShapes(t *testing.T) {
	frames, useful := genMixed(5, 10)
	cfg := Config{Device: NexusOne, Duration: time.Hour}
	many := make([]time.Duration, MaxCandidates+1)
	for _, c := range []struct {
		name   string
		useful []bool
		wls    []time.Duration
		out    int
	}{
		{"nil mask", nil, []time.Duration{0}, 1},
		{"short mask", useful[:9], []time.Duration{0}, 1},
		{"no candidates", useful, nil, 0},
		{"too many candidates", useful, many, len(many)},
		{"results short", useful, []time.Duration{0, time.Second}, 1},
	} {
		if err := ComputeSweep(frames, c.useful, c.wls, cfg, make([]Breakdown, c.out)); err == nil {
			t.Errorf("%s: ComputeSweep accepted it", c.name)
		}
	}
}

func TestComputeSweepAllocatesNothing(t *testing.T) {
	frames, useful := genMixed(9, 500)
	wls := sweepCandidates[len(sweepCandidates)-1]
	out := make([]Breakdown, len(wls))
	cfg := Config{Device: GalaxyS4, Duration: time.Hour}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := ComputeSweep(frames, useful, wls, cfg, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ComputeSweep allocated %v times per call, want 0", allocs)
	}
}

// fuzzArrivals decodes raw into sorted arrivals and a usefulness mask.
// Each 6-byte group of raw is one frame: a 2-byte gap in 100 µs units,
// a 2-byte length, a rate selector, and a flag byte (bit 0 MoreData,
// bit 1 useful, the rest the frame's own wakelock in 25 ms units).
func fuzzArrivals(raw []byte) ([]Arrival, []bool) {
	rates := [...]dot11.Rate{dot11.Rate1Mbps, dot11.Rate2Mbps, dot11.Rate11Mbps, 0}
	var frames []Arrival
	var useful []bool
	at := time.Duration(0)
	for ; len(raw) >= 6; raw = raw[6:] {
		at += time.Duration(binary.BigEndian.Uint16(raw)) * 100 * time.Microsecond
		frames = append(frames, Arrival{
			At:       at,
			Length:   int(binary.BigEndian.Uint16(raw[2:])),
			Rate:     rates[raw[4]%byte(len(rates))],
			MoreData: raw[5]&1 != 0,
			Wakelock: time.Duration(raw[5]>>2) * 25 * time.Millisecond,
		})
		useful = append(useful, raw[5]&2 != 0)
	}
	return frames, useful
}

// FuzzComputeSweep drives the kernel with arbitrary sorted arrivals
// (fuzzArrivals), a usefulness mask and up to six candidate wakelocks.
// Each byte of cands is one candidate in 10 ms units. Compute must
// equal referenceCompute, and each sweep result must equal it on the
// restamped arrivals.
func FuzzComputeSweep(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 0, 0x2a, 0, 0, 1, 0, 1, 0x01, 39, 16, 0, 100, 2, 0x02}, []byte{0, 5, 10, 20, 50, 100}, uint16(600), false)
	f.Add([]byte{}, []byte{100}, uint16(1), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 3, 0xff, 0, 0, 0, 0, 0, 0}, []byte{0, 255}, uint16(0xffff), false)
	// More frames than one kernel chunk holds.
	long := make([]byte, 6*(chunk+50))
	for i := 0; i < len(long); i += 6 {
		copy(long[i:], []byte{0, byte(i % 251), 0, 120, byte(i % 4), byte(i % 7 * 37)})
	}
	f.Add(long, []byte{0, 5, 10, 20, 50, 100}, uint16(3000), true)
	f.Fuzz(func(t *testing.T, raw, cands []byte, durDS uint16, galaxy bool) {
		frames, useful := fuzzArrivals(raw)
		if len(cands) == 0 || len(cands) > 6 {
			return
		}
		wls := make([]time.Duration, len(cands))
		for k, c := range cands {
			wls[k] = time.Duration(c) * 10 * time.Millisecond
		}
		cfg := Config{Device: NexusOne, Duration: time.Duration(durDS)*100*time.Millisecond + time.Nanosecond}
		if galaxy {
			cfg.Device = GalaxyS4
			cfg.Overhead = DefaultOverhead()
		}
		checkSweep(t, frames, useful, wls, cfg)
	})
}
