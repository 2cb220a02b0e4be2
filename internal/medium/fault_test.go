package medium

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestKindTargetedDrops drops every beacon while ACKs pass untouched.
func TestKindTargetedDrops(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	m.SetFaultPlan(fault.Only(fault.Loss{P: 1}, dot11.KindBeacon))
	r := &recorder{}
	m.Attach(s1Addr, r)

	m.Transmit(apAddr, beaconRaw(t), dot11.Rate1Mbps)
	ack := &dot11.ACK{RA: s1Addr}
	m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	eng.Run()

	if len(r.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1 (the ACK)", len(r.frames))
	}
	if dot11.Classify(r.frames[0].raw) != dot11.KindACK {
		t.Error("surviving frame is not the ACK")
	}
	if m.Stats.Losses != 1 {
		t.Errorf("Losses = %d, want 1", m.Stats.Losses)
	}
}

// TestCorruptionIsolatedPerReceiver corrupts one receiver's copy of a
// broadcast; the co-receiver's copy must stay pristine.
func TestCorruptionIsolatedPerReceiver(t *testing.T) {
	eng := sim.New()
	m := New(eng, 5)
	m.SetFaultPlan(fault.To(s1Addr, fault.Corrupt{P: 1}))
	r1, r2 := &recorder{}, &recorder{}
	m.Attach(s1Addr, r1)
	m.Attach(s2Addr, r2)

	orig := beaconRaw(t)
	m.Transmit(apAddr, orig, dot11.Rate1Mbps)
	eng.Run()

	if len(r1.frames) != 1 || len(r2.frames) != 1 {
		t.Fatalf("deliveries: s1=%d s2=%d, want 1 each", len(r1.frames), len(r2.frames))
	}
	if bytes.Equal(r1.frames[0].raw, orig) {
		t.Error("s1's copy not corrupted")
	}
	if len(r1.frames[0].raw) != len(orig) {
		t.Error("corruption changed the frame length")
	}
	if !bytes.Equal(r2.frames[0].raw, orig) {
		t.Error("corruption leaked into s2's copy")
	}
	diff := 0
	for i := range orig {
		if r1.frames[0].raw[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption touched %d bytes, want 1", diff)
	}
	if m.Stats.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", m.Stats.Corruptions)
	}
}

// TestDuplicationDeliversTwice duplicates every delivery.
func TestDuplicationDeliversTwice(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	m.SetFaultPlan(fault.Duplicate{P: 1})
	r := &recorder{}
	m.Attach(s1Addr, r)
	ack := &dot11.ACK{RA: s1Addr}
	const n = 10
	for i := 0; i < n; i++ {
		m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	}
	eng.Run()
	if len(r.frames) != 2*n {
		t.Fatalf("delivered %d frames, want %d", len(r.frames), 2*n)
	}
	if m.Stats.Duplicates != n {
		t.Errorf("Duplicates = %d, want %d", m.Stats.Duplicates, n)
	}
	if m.Stats.Deliveries != 2*n {
		t.Errorf("Deliveries = %d, want %d", m.Stats.Deliveries, 2*n)
	}
}

// TestWindowedFaultsExpire drops everything inside the window and
// nothing outside it.
func TestWindowedFaultsExpire(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	m.SetFaultPlan(fault.Window{From: 10 * time.Millisecond, To: 20 * time.Millisecond, Inner: fault.Loss{P: 1}})
	r := &recorder{}
	m.Attach(s1Addr, r)
	ack := &dot11.ACK{RA: s1Addr}
	for _, at := range []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond} {
		at := at
		eng.MustScheduleAt(at, func(time.Duration) {
			m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
		})
	}
	eng.Run()
	if len(r.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (outside the window)", len(r.frames))
	}
	for _, f := range r.frames {
		if f.at >= 10*time.Millisecond && f.at < 20*time.Millisecond {
			t.Errorf("frame delivered at %v inside the fault window", f.at)
		}
	}
}

// TestNilPlanDrawsNoRandomness asserts the byte-identity guarantee: a
// fault-free medium must not consume RNG draws, so installing and
// clearing faults cannot perturb anything downstream.
func TestNilPlanDrawsNoRandomness(t *testing.T) {
	eng := sim.New()
	m := New(eng, 123)
	r := &recorder{}
	m.Attach(s1Addr, r)
	ack := &dot11.ACK{RA: s1Addr}
	for i := 0; i < 50; i++ {
		m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	}
	eng.Run()
	// The medium's RNG must still be at its seed-initial position.
	want := sim.NewRNG(123).Uint64()
	if got := m.rng.Uint64(); got != want {
		t.Errorf("fault-free run consumed medium randomness: next draw %d, want %d", got, want)
	}
}

// TestBlockTakesOneVerdict: a node attached for a block of receivers
// is judged once per frame, and the verdict counts for every member.
func TestBlockTakesOneVerdict(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	rec := fault.NewRecorder(fault.Loss{P: 1})
	m.SetFaultPlan(rec)
	m.Attach(apAddr, &recorder{})
	m.Attach(s1Addr, &recorder{})
	if err := m.AttachBlock(s2Addr, 4, &recorder{}); err != nil {
		t.Fatal(err)
	}
	m.Transmit(apAddr, beaconRaw(t), dot11.Rate1Mbps)
	eng.Run()
	if rec.Total() != 2 {
		t.Errorf("judged %d deliveries, want 2 (the station and the block)", rec.Total())
	}
	if m.Stats.Losses != 5 {
		t.Errorf("counted %d losses, want 5 (the station and 4 members)", m.Stats.Losses)
	}
}
