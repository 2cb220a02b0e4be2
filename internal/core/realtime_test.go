package core

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/energy"
	"repro/internal/netmedium"
	"repro/internal/policy"
	"repro/internal/station"
	"repro/internal/trace"
)

func TestReplayRealtimeRejectsBadSpeed(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, time.Second, 1)
	if err := n.ReplayRealtime(context.Background(), tr, 0); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestReplayRealtimeMatchesVirtualReplay(t *testing.T) {
	tr := shortTrace(t, 10*time.Second, 2)

	run := func(realtime bool) station.Stats {
		n, err := NewNetwork(NetworkConfig{HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.AddStation(station.HIDE, []uint16{5353})
		if err != nil {
			t.Fatal(err)
		}
		if realtime {
			// 10 s of virtual time in ~10 ms of wall time.
			if err := n.ReplayRealtime(context.Background(), tr, 1000); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := n.Replay(tr); err != nil {
				t.Fatal(err)
			}
		}
		return st.Stats()
	}

	virtual := run(false)
	realtime := run(true)
	if virtual != realtime {
		t.Fatalf("realtime run diverged from virtual run:\n  virtual  %+v\n  realtime %+v", virtual, realtime)
	}
}

func TestReplayRealtimeEndsLikeReplay(t *testing.T) {
	// The run ends one beacon interval after the trace: with a 1.024 s
	// trace that is exactly the 11th beacon, scheduled by the previous
	// beacon after the stopping event. Replay's RunUntil fires it, so
	// the realtime run must too, and stop at the same clock.
	tr := shortTrace(t, 10*dot11.DefaultBeaconInterval, 2)
	run := func(realtime bool) (int, time.Duration) {
		n, err := NewNetwork(NetworkConfig{HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		if realtime {
			err = n.ReplayRealtime(context.Background(), tr, 100)
		} else {
			err = n.Replay(tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		return n.AP.Stats().BeaconsSent, n.Engine.Now()
	}
	vb, vnow := run(false)
	rb, rnow := run(true)
	if rb != vb || rnow != vnow {
		t.Fatalf("realtime run sent %d beacons and stopped at %v; virtual %d at %v", rb, rnow, vb, vnow)
	}
}

func TestReplayRealtimeCancellation(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := shortTrace(t, time.Hour, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Speed 1: an hour of virtual time would take an hour; cancellation
	// must interrupt it quickly.
	start := time.Now()
	err = n.ReplayRealtime(ctx, tr, 1)
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestLiveMonitorStreamsAndInjects(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.AddStation(station.HIDE, []uint16{5353})
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mon := n.ServeMonitor(pc)
	defer mon.Close()

	tap, err := netmedium.Dial(mon.Server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	deadline := time.Now().Add(10 * time.Second)
	for mon.Server.Stats().Peers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tap never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// Inject a useful broadcast frame via the tap, then run. Poll the
	// server's inject counter rather than sleeping: the replay below
	// only drains injects that have already landed.
	if err := tap.Inject(netmedium.InjectRequest{DstPort: 5353, PayloadSize: 32}); err != nil {
		t.Fatal(err)
	}
	for mon.Server.Stats().Injects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inject never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	tr := shortTrace(t, 3*time.Second, 1)
	if err := n.ReplayRealtime(context.Background(), tr, 2000); err != nil {
		t.Fatal(err)
	}

	// The tap observed beacons (and data); find at least one of each.
	sawBeacon, sawData := false, false
	for !sawBeacon || !sawData {
		ev, err := tap.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			break
		}
		switch dot11.Classify(ev.Raw) {
		case dot11.KindBeacon:
			sawBeacon = true
		case dot11.KindData:
			sawData = true
		}
	}
	if !sawBeacon {
		t.Error("tap never saw a beacon")
	}
	if !sawData {
		t.Error("tap never saw a data frame")
	}
	// The injected frame reached the station (its port matched).
	if st.Stats().GroupUseful == 0 {
		t.Error("injected frame never received by the station")
	}
	if mon.Server.Stats().Injects != 1 {
		t.Errorf("Injects = %d, want 1", mon.Server.Stats().Injects)
	}
}

// serveMonitor starts a monitor on loopback with one subscribed tap.
func serveMonitor(t *testing.T, n *Network) (*Monitor, *netmedium.Tap) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mon := n.ServeMonitor(pc)
	t.Cleanup(func() { mon.Close() })
	tap, err := netmedium.Dial(mon.Server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tap.Close() })
	waitFor(t, "tap subscription", func() bool { return mon.Server.Stats().Peers == 1 })
	return mon, tap
}

// waitFor polls cond until it holds, failing after a generous
// slow-machine deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCaptureWhileServingMonitor(t *testing.T) {
	// A capture and a monitor share the medium's one tap: a served
	// realtime run captures exactly the frames a capture-only virtual
	// replay does, and the subscribed tap is sent every one of them.
	tr := shortTrace(t, time.Minute, 2)
	build := func() *Network {
		n, err := NewNetwork(NetworkConfig{HIDE: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddStation(station.HIDE, []uint16{5353}); err != nil {
			t.Fatal(err)
		}
		return n
	}

	alone := build()
	want := alone.StartCapture()
	if err := alone.Replay(tr); err != nil {
		t.Fatal(err)
	}

	served := build()
	got := served.StartCapture()
	mon, _ := serveMonitor(t, served)
	mon.SetLiveness(time.Hour, 0) // the tap never reads, so never pongs
	if err := served.ReplayRealtime(context.Background(), tr, 2000); err != nil {
		t.Fatal(err)
	}
	if want.Frames() == 0 || got.Frames() != want.Frames() {
		t.Fatalf("served run captured %d frames, capture-only run %d", got.Frames(), want.Frames())
	}
	if sent := mon.Server.Stats().FramesSent; sent != got.Frames() {
		t.Fatalf("monitor streamed %d frames to its tap, capture recorded %d", sent, got.Frames())
	}
}

func TestMonitorCloseAfterInjectFlood(t *testing.T) {
	// Injects that arrive after the replay has ended find no engine to
	// drain them: the bounded queue fills and the rest are dropped and
	// counted, so the server keeps reading and Close still returns.
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	mon, tap := serveMonitor(t, n)
	if err := n.ReplayRealtime(context.Background(), shortTrace(t, time.Second, 1), 1000); err != nil {
		t.Fatal(err)
	}
	const flood = 4 * monitorInjects
	for sent := 0; sent < flood; {
		// Batches small enough for the socket buffer, so every request
		// reaches the server and its count proves the read loop ran on.
		for i := 0; i < 16; i++ {
			if err := tap.Inject(netmedium.InjectRequest{DstPort: 5353, PayloadSize: 8}); err != nil {
				t.Fatal(err)
			}
		}
		sent += 16
		waitFor(t, "inject batch", func() bool { return mon.Server.Stats().Injects == sent })
	}
	if got, want := mon.Server.Stats().Dropped, flood-monitorInjects; got != want {
		t.Errorf("Dropped = %d, want the %d requests past the full queue", got, want)
	}
	closed := make(chan error, 1)
	go func() { closed <- mon.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked after an inject flood")
	}
}

func TestCaptureClosesTheLoop(t *testing.T) {
	// Generate → simulate → capture to pcap → re-import: the re-imported
	// broadcast trace must contain exactly the group frames the AP sent,
	// at their on-air times and rates.
	n, err := NewNetwork(NetworkConfig{HIDE: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddStation(station.HIDE, []uint16{5353}); err != nil {
		t.Fatal(err)
	}
	cap := n.StartCapture()
	tr := shortTrace(t, 2*time.Minute, 2)
	if err := n.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if cap.Frames() == 0 {
		t.Fatal("capture recorded nothing")
	}

	var buf bytes.Buffer
	if err := cap.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadPCAP(&buf, trace.PCAPOptions{Name: "capture"})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the group data frames survive re-import (beacons, ACKs,
	// port messages, assoc frames are skipped).
	if len(got.Frames) != n.AP.Stats().GroupFramesSent {
		t.Fatalf("re-imported %d frames, AP sent %d group frames",
			len(got.Frames), n.AP.Stats().GroupFramesSent)
	}
	// Same port multiset as the source trace.
	want := tr.PortHistogram()
	have := got.PortHistogram()
	for p, n := range want {
		if have[p] != n {
			t.Fatalf("port %d: %d frames re-imported, want %d", p, have[p], n)
		}
	}
	// Each frame reads back at the rate it went out at: the AP flushes
	// group frames in trace order, each at its trace rate.
	for i := range got.Frames {
		if g, w := got.Frames[i].Rate, tr.Frames[i].Rate; g != w {
			t.Fatalf("frame %d re-imported at %v, sent at %v", i, g, w)
		}
	}
	// The re-imported trace drives the analytic pipeline end to end.
	r, err := EvaluateFractionContext(context.Background(), got, 0.10, energy.NexusOne, policy.ReceiveAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.TotalJ() <= 0 {
		t.Fatal("re-imported trace produced no energy")
	}
}
