package fault

import (
	"math"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

func delivery(kind dot11.FrameKind, rcv dot11.MACAddr, at time.Duration) Delivery {
	return Delivery{Kind: kind, Rcv: rcv, At: at}
}

func TestLossMatchesBareDraw(t *testing.T) {
	// Loss must consume exactly one Float64 per delivery and decide
	// exactly as the medium's historical lossProb comparison did.
	a, b := sim.NewRNG(7), sim.NewRNG(7)
	plan := Loss{P: 0.3}
	for i := 0; i < 1000; i++ {
		want := b.Float64() < 0.3
		got := plan.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, 0), a).Drop
		if got != want {
			t.Fatalf("delivery %d: Drop=%v, bare draw says %v", i, got, want)
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	if _, err := NewGilbertElliott(0.1, 0.2, 0.01, 0.5); err != nil {
		t.Fatalf("valid probabilities rejected: %v", err)
	}
	for _, bad := range [][4]float64{
		{-0.1, 0.2, 0.01, 0.5},
		{0.1, 1.2, 0.01, 0.5},
		{0.1, 0.2, -1, 0.5},
		{0.1, 0.2, 0.01, 2},
		{math.NaN(), 0.2, 0.01, 0.5},
		{0.1, 0.2, 0.01, math.NaN()},
	} {
		if _, err := NewGilbertElliott(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("NewGilbertElliott(%v) accepted out-of-range probability", bad)
		}
	}
}

func TestGilbertElliottFixedDraws(t *testing.T) {
	// Exactly two draws per delivery regardless of outcome: after n
	// deliveries the RNG must sit 2n draws into its stream.
	g, err := NewGilbertElliott(0.3, 0.3, 0.05, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	const n = 500
	for i := 0; i < n; i++ {
		g.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, 0), rng)
	}
	ref := sim.NewRNG(11)
	for i := 0; i < 2*n; i++ {
		ref.Float64()
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("RNG stream offset drifted: next draw %d, want %d", got, want)
	}
}

func TestGilbertElliottIsBursty(t *testing.T) {
	// With sticky states and extreme per-state loss, drops must come
	// in runs: the number of state-alternations in the drop/deliver
	// sequence should be far below what independent loss produces.
	g, err := NewGilbertElliott(0.02, 0.02, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	const n = 5000
	drops, switches := 0, 0
	prev := false
	for i := 0; i < n; i++ {
		d := g.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, 0), rng).Drop
		if d {
			drops++
		}
		if i > 0 && d != prev {
			switches++
		}
		prev = d
	}
	if drops == 0 || drops == n {
		t.Fatalf("degenerate channel: %d drops of %d", drops, n)
	}
	// Independent loss at the same rate would switch roughly
	// 2*p*(1-p)*n ≈ n/2 times; the bursty channel switches at the
	// state-flip rate ≈ 0.02*n.
	if switches > n/5 {
		t.Errorf("%d run switches in %d deliveries: not bursty", switches, n)
	}
}

func TestOnlyGatesKindAndRandomness(t *testing.T) {
	rng := sim.NewRNG(5)
	plan := Only(Loss{P: 1}, dot11.KindBeacon)
	if !plan.Deliver(delivery(dot11.KindBeacon, dot11.MACAddr{}, 0), rng).Drop {
		t.Error("matching kind not dropped")
	}
	ref := sim.NewRNG(5)
	ref.Float64()
	if v := plan.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, 0), rng); v.Faulty() {
		t.Error("non-matching kind faulted")
	}
	// The non-matching delivery must not have consumed randomness.
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Error("Only consumed randomness for a non-matching delivery")
	}
}

func TestToGatesReceiver(t *testing.T) {
	victim := dot11.MACAddr{1, 2, 3, 4, 5, 6}
	other := dot11.MACAddr{6, 5, 4, 3, 2, 1}
	rng := sim.NewRNG(1)
	plan := To(victim, Loss{P: 1})
	if !plan.Deliver(delivery(dot11.KindData, victim, 0), rng).Drop {
		t.Error("victim's delivery not dropped")
	}
	if plan.Deliver(delivery(dot11.KindData, other, 0), rng).Faulty() {
		t.Error("bystander's delivery faulted")
	}
}

func TestWindowGatesTime(t *testing.T) {
	rng := sim.NewRNG(1)
	plan := Window{From: time.Second, To: 2 * time.Second, Inner: Loss{P: 1}}
	cases := []struct {
		at   time.Duration
		drop bool
	}{
		{0, false},
		{time.Second, true},
		{1500 * time.Millisecond, true},
		{2 * time.Second, false},
		{time.Hour, false},
	}
	for _, c := range cases {
		if got := plan.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, c.at), rng).Drop; got != c.drop {
			t.Errorf("at %v: Drop=%v, want %v", c.at, got, c.drop)
		}
	}
	open := Window{From: time.Second, Inner: Loss{P: 1}}
	if !open.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, time.Hour), rng).Drop {
		t.Error("open-ended window closed")
	}
}

func TestComposeORsAndAlwaysConsults(t *testing.T) {
	rng := sim.NewRNG(9)
	plan := Compose(Loss{P: 1}, Corrupt{P: 1}, Duplicate{P: 1})
	v := plan.Deliver(delivery(dot11.KindData, dot11.MACAddr{}, 0), rng)
	if !v.Drop || !v.Corrupt || !v.Duplicate {
		t.Fatalf("composed verdict %+v, want all effects", v)
	}
	// Every member must have been consulted (3 draws) even though the
	// first already voted to drop.
	ref := sim.NewRNG(9)
	for i := 0; i < 3; i++ {
		ref.Float64()
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Error("Compose short-circuited: RNG streams diverge under composition")
	}
}

func TestSilence(t *testing.T) {
	deaf := dot11.MACAddr{1, 1, 1, 1, 1, 1}
	rng := sim.NewRNG(1)
	plan := Silence(deaf, time.Second)
	if plan.Deliver(delivery(dot11.KindBeacon, deaf, 0), rng).Drop {
		t.Error("dropped before silence began")
	}
	if !plan.Deliver(delivery(dot11.KindBeacon, deaf, 2*time.Second), rng).Drop {
		t.Error("delivery to silenced node not dropped")
	}
	if plan.Deliver(delivery(dot11.KindBeacon, dot11.MACAddr{2}, 2*time.Second), rng).Faulty() {
		t.Error("bystander silenced")
	}
}

func TestRecorderTallies(t *testing.T) {
	rcv := dot11.MACAddr{0xaa, 0, 0, 0, 0, 1}
	rng := sim.NewRNG(1)
	rec := NewRecorder(Compose(
		Only(Loss{P: 1}, dot11.KindBeacon),
		Only(Corrupt{P: 1}, dot11.KindData),
		Only(Duplicate{P: 1}, dot11.KindACK),
	))
	rec.Deliver(delivery(dot11.KindBeacon, rcv, time.Second), rng)
	rec.Deliver(delivery(dot11.KindData, rcv, 2*time.Second), rng)
	rec.Deliver(delivery(dot11.KindACK, rcv, 3*time.Second), rng)
	rec.Deliver(delivery(dot11.KindPSPoll, rcv, 4*time.Second), rng) // untouched

	if got := rec.DataFaults(rcv); got != 1 {
		t.Errorf("data faults for receiver = %d, want 1 (corruption only)", got)
	}
	if got := rec.Total(); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
}
