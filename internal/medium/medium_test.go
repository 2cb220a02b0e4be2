package medium

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/sim"
)

type recorder struct {
	frames []recorded
}

type recorded struct {
	raw  []byte
	rate dot11.Rate
	at   time.Duration
}

func (r *recorder) Receive(f *Frame, at time.Duration) {
	r.frames = append(r.frames, recorded{append([]byte(nil), f.Raw...), f.Rate, at})
}

var (
	apAddr = dot11.MACAddr{2, 0, 0, 0, 0, 1}
	s1Addr = dot11.MACAddr{2, 0, 0, 0, 0, 0x10}
	s2Addr = dot11.MACAddr{2, 0, 0, 0, 0, 0x20}
)

func beaconRaw(t *testing.T) []byte {
	t.Helper()
	b := &dot11.Beacon{
		Header:         dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: apAddr, Addr3: apAddr},
		BeaconInterval: 100,
		SSID:           "t",
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBroadcastDelivery(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	r1, r2 := &recorder{}, &recorder{}
	m.Attach(apAddr, &recorder{})
	m.Attach(s1Addr, r1)
	m.Attach(s2Addr, r2)

	raw := beaconRaw(t)
	m.Transmit(apAddr, raw, dot11.Rate1Mbps)
	eng.Run()

	if len(r1.frames) != 1 || len(r2.frames) != 1 {
		t.Fatalf("deliveries: s1=%d s2=%d, want 1 each", len(r1.frames), len(r2.frames))
	}
	// Sender must not hear its own frame.
	if m.Stats.Deliveries != 2 {
		t.Errorf("Deliveries = %d, want 2", m.Stats.Deliveries)
	}
}

func TestUnicastDelivery(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	r1, r2 := &recorder{}, &recorder{}
	m.Attach(s1Addr, r1)
	m.Attach(s2Addr, r2)

	ack := &dot11.ACK{RA: s1Addr}
	m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	eng.Run()

	if len(r1.frames) != 1 {
		t.Fatalf("addressee received %d frames, want 1", len(r1.frames))
	}
	if len(r2.frames) != 0 {
		t.Fatalf("bystander received %d frames, want 0", len(r2.frames))
	}
}

func TestAirtimeTiming(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	r1 := &recorder{}
	m.Attach(s1Addr, r1)

	ack := &dot11.ACK{RA: s1Addr}
	raw := ack.AppendTo(nil)
	m.Transmit(apAddr, raw, dot11.Rate1Mbps)
	eng.Run()

	// ACK: 10 marshalled bytes + 4 FCS = 14 bytes = 112 bits at 1 Mb/s
	// plus 192 µs preamble plus 1 µs propagation.
	want := 192*time.Microsecond + 112*time.Microsecond + time.Microsecond
	if len(r1.frames) != 1 || r1.frames[0].at != want {
		t.Fatalf("delivery at %v, want %v", r1.frames[0].at, want)
	}
}

func TestChannelSerialization(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	r1 := &recorder{}
	m.Attach(s1Addr, r1)

	ack := &dot11.ACK{RA: s1Addr}
	raw := ack.AppendTo(nil)
	// Two back-to-back transmissions: the second must wait for the
	// first plus a DIFS.
	m.Transmit(apAddr, raw, dot11.Rate1Mbps)
	m.Transmit(s2Addr, raw, dot11.Rate1Mbps)
	eng.Run()

	if len(r1.frames) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(r1.frames))
	}
	air := m.Airtime(len(raw), dot11.Rate1Mbps)
	gap := r1.frames[1].at - r1.frames[0].at
	if gap != air+dot11.DIFS {
		t.Errorf("second delivery gap = %v, want airtime %v + DIFS %v", gap, air, dot11.DIFS)
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.New()
	m := New(eng, 7)
	m.SetFaultPlan(fault.Loss{P: 0.5})
	r1 := &recorder{}
	m.Attach(s1Addr, r1)
	ack := &dot11.ACK{RA: s1Addr}
	const n = 1000
	for i := 0; i < n; i++ {
		m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	}
	eng.Run()
	got := len(r1.frames)
	if got < 400 || got > 600 {
		t.Errorf("with 50%% loss, %d of %d delivered", got, n)
	}
	if m.Stats.Losses+m.Stats.Deliveries != n {
		t.Errorf("loss+delivery = %d, want %d", m.Stats.Losses+m.Stats.Deliveries, n)
	}
}

func TestUnattachedDestinationDropped(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	ack := &dot11.ACK{RA: s1Addr} // s1 never attached
	m.Transmit(apAddr, ack.AppendTo(nil), dot11.Rate1Mbps)
	eng.Run()
	if m.Stats.Deliveries != 0 {
		t.Errorf("Deliveries = %d, want 0", m.Stats.Deliveries)
	}
}

func TestTransmitCopiesBuffer(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	r1 := &recorder{}
	m.Attach(s1Addr, r1)
	ack := &dot11.ACK{RA: s1Addr}
	raw := ack.AppendTo(nil)
	m.Transmit(apAddr, raw, dot11.Rate1Mbps)
	for i := range raw {
		raw[i] = 0xff // caller reuses the buffer before delivery
	}
	eng.Run()
	if len(r1.frames) != 1 {
		t.Fatal("frame not delivered")
	}
	if r1.frames[0].raw[0] == 0xff {
		t.Error("medium aliased the caller's buffer")
	}
}

// keeper keeps every delivered frame as delivered, without copying.
type keeper struct{ frames [][]byte }

func (k *keeper) Receive(f *Frame, _ time.Duration) {
	k.frames = append(k.frames, f.Raw)
}

// TestTransmitKeepsNoCallerBuffer pins the Channel contract senders
// rely on to encode every frame into one reused buffer: the caller
// overwrites its buffer right after Transmit, and every receiver of a
// group frame, the tap and the transmission observer still see the
// original bytes, even when they keep the slices they were handed.
func TestTransmitKeepsNoCallerBuffer(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	k1, k2 := &keeper{}, &keeper{}
	m.Attach(s1Addr, k1)
	m.Attach(s2Addr, k2)
	var tapped, observed [][]byte
	m.SetTap(func(raw []byte, _ dot11.Rate, _ time.Duration) { tapped = append(tapped, raw) })
	m.SetTxObserver(func(_ dot11.MACAddr, raw []byte, _ dot11.Rate, _, _ time.Duration) {
		observed = append(observed, raw)
	})
	buf := beaconRaw(t)
	want := append([]byte(nil), buf...)
	m.Transmit(apAddr, buf, dot11.Rate1Mbps)
	for i := range buf {
		buf[i] = 0xff
	}
	eng.Run()
	for _, c := range []struct {
		name string
		got  [][]byte
	}{{"s1", k1.frames}, {"s2", k2.frames}, {"tap", tapped}, {"observer", observed}} {
		if len(c.got) != 1 || !bytes.Equal(c.got[0], want) {
			t.Errorf("%s saw %x, want the original %x", c.name, c.got, want)
		}
	}
}

func TestMonitorTapSeesAllTransmissions(t *testing.T) {
	eng := sim.New()
	m := New(eng, 1)
	m.Attach(s1Addr, &recorder{})
	var tapped []recorded
	m.SetTap(func(raw []byte, rate dot11.Rate, at time.Duration) {
		tapped = append(tapped, recorded{append([]byte(nil), raw...), rate, at})
	})
	// One unicast to an attached node, one to nobody: the tap sees both.
	m.Transmit(apAddr, (&dot11.ACK{RA: s1Addr}).AppendTo(nil), dot11.Rate1Mbps)
	m.Transmit(apAddr, (&dot11.ACK{RA: s2Addr}).AppendTo(nil), dot11.Rate11Mbps)
	eng.Run()
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d frames, want 2", len(tapped))
	}
	if tapped[0].rate != dot11.Rate1Mbps || tapped[1].rate != dot11.Rate11Mbps {
		t.Error("tap rates wrong")
	}
	// Tap fires at start of airtime, before delivery.
	if tapped[0].at != 0 {
		t.Errorf("tap time = %v, want transmission start", tapped[0].at)
	}
	m.SetTap(nil)
	m.Transmit(apAddr, (&dot11.ACK{RA: s1Addr}).AppendTo(nil), dot11.Rate1Mbps)
	eng.Run()
	if len(tapped) != 2 {
		t.Error("nil tap still invoked")
	}
}
