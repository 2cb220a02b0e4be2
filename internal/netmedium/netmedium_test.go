package netmedium

import (
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dot11"
	"repro/internal/sim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type:    MsgFrame,
		At:      1234567 * time.Microsecond,
		Rate:    dot11.Rate11Mbps,
		Payload: []byte{1, 2, 3, 4},
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.At != m.At || got.Rate != m.Rate {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Payload) != 4 || got.Payload[2] != 3 {
		t.Fatalf("payload: %v", got.Payload)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(ty byte, atNS int64, rate float64, payload []byte) bool {
		if len(payload) > maxFrameLen {
			payload = payload[:maxFrameLen]
		}
		if atNS < 0 {
			atNS = -atNS
		}
		m := Message{Type: MsgType(ty), At: time.Duration(atNS), Rate: dot11.Rate(rate), Payload: payload}
		raw, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(raw)
		if err != nil {
			return false
		}
		if got.Type != m.Type || got.At != m.At || len(got.Payload) != len(payload) {
			return false
		}
		// NaN rates survive as NaN (bit pattern preserved is not
		// required; value equality for non-NaN).
		if rate == rate && got.Rate != m.Rate {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, headerLen), // zero magic
		func() []byte { // bad version
			m, _ := Message{Type: MsgPing}.Marshal()
			m[2] = 9
			return m
		}(),
		func() []byte { // truncated payload
			m, _ := Message{Type: MsgFrame, Payload: []byte{1, 2, 3}}.Marshal()
			return m[:len(m)-1]
		}(),
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	m := Message{Type: MsgFrame, Payload: make([]byte, maxFrameLen+1)}
	if _, err := m.Marshal(); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

// waitFor polls cond until it holds, failing the test if it does not
// within a generous slow-CI deadline. Each call gets a fresh deadline
// so consecutive waits cannot starve each other.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// startServer runs a server on loopback.
func startServer(t *testing.T, inject chan<- sim.Event, apply func(InjectRequest)) *Server {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pc, inject, apply)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestSubscribePublishReceive(t *testing.T) {
	srv := startServer(t, nil, nil)
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	// Wait for the subscription to land, then publish.
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })
	frame := []byte{0x80, 0x00, 1, 2, 3}
	srv.Publish(frame, dot11.Rate1Mbps, 42*time.Millisecond)

	ev, err := tap.Next(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ev.At != 42*time.Millisecond || ev.Rate != dot11.Rate1Mbps {
		t.Fatalf("event metadata: %+v", ev)
	}
	if len(ev.Raw) != len(frame) || ev.Raw[4] != 3 {
		t.Fatalf("event frame: %v", ev.Raw)
	}
	if srv.Stats().FramesSent != 1 {
		t.Fatalf("FramesSent = %d", srv.Stats().FramesSent)
	}
}

// TestTapNextCostsOnlyPayloads reads frames through one tap: each
// costs the copy of its payload, not a fresh MaxDatagram read buffer.
func TestTapNextCostsOnlyPayloads(t *testing.T) {
	srv := startServer(t, nil, nil)
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })
	const frames = 32
	frame := make([]byte, 64)
	for i := 0; i < frames; i++ {
		srv.Publish(frame, dot11.Rate1Mbps, time.Duration(i)*time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if _, err := tap.Next(deadline); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / frames; perFrame > 4*uint64(len(frame)) {
		t.Errorf("Next allocated %d B per %d-byte frame, want its payload copy only (a read buffer is %d B)", perFrame, len(frame), MaxDatagram)
	}
}

func TestInjectReachesServer(t *testing.T) {
	inject := make(chan sim.Event, 1)
	var got InjectRequest
	srv := startServer(t, inject, func(r InjectRequest) { got = r })
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	if err := tap.Inject(InjectRequest{DstPort: 5353, PayloadSize: 64}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-inject:
		ev(0)
		if got.DstPort != 5353 || got.PayloadSize != 64 {
			t.Fatalf("inject = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inject never arrived")
	}
}

func TestUnsubscribeStopsStream(t *testing.T) {
	srv := startServer(t, nil, nil)
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })
	tap.Close()
	waitFor(t, "unsubscribe", func() bool { return srv.Stats().Peers == 0 })
}

func TestServerIgnoresGarbageDatagrams(t *testing.T) {
	srv := startServer(t, nil, nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("definitely not a protocol message")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage counter", func() bool { return srv.Stats().BadPackets > 0 })
}

func TestPingPong(t *testing.T) {
	srv := startServer(t, nil, nil)
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ping, err := Message{Type: MsgPing}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(buf[:n])
	if err != nil || m.Type != MsgPong {
		t.Fatalf("reply = %+v, %v; want pong", m, err)
	}
}

func TestPublishSkipsOversizeFrames(t *testing.T) {
	srv := startServer(t, nil, nil)
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })
	srv.Publish(make([]byte, maxFrameLen+1), dot11.Rate1Mbps, 0)
	if srv.Stats().FramesSent != 0 {
		t.Fatal("oversize frame published")
	}
}
