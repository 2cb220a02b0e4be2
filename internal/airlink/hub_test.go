package airlink

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/netmedium"
	"repro/internal/sim"
	"repro/internal/station"
)

// TestHubFaultPlanTotalLoss installs a 100% loss plan and checks that
// nothing leaves the hub while the plan is live, then clears it and
// checks traffic flows again.
func TestHubFaultPlanTotalLoss(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()

	peer := dialAndRegister(t, hub)
	defer peer.Close()

	hub.SetFaultPlan(fault.Loss{P: 1}, 42)
	beacon := broadcastBeacon(t)
	hub.Transmit(bssid, beacon, dot11.Rate1Mbps)
	st := hub.Stats()
	if st.FramesOut != 0 || st.FaultDropped != 1 {
		t.Fatalf("total loss: FramesOut=%d FaultDropped=%d", st.FramesOut, st.FaultDropped)
	}

	hub.SetFaultPlan(nil, 0)
	hub.Transmit(bssid, beacon, dot11.Rate1Mbps)
	if got := hub.Stats().FramesOut; got != 1 {
		t.Fatalf("after clear FramesOut = %d, want 1", got)
	}
}

// TestHubFaultPlanDuplicate checks that a duplicate verdict sends the
// datagram twice and is counted.
func TestHubFaultPlanDuplicate(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()

	peer := dialAndRegister(t, hub)
	defer peer.Close()

	hub.SetFaultPlan(fault.Duplicate{P: 1}, 7)
	hub.Transmit(bssid, broadcastBeacon(t), dot11.Rate1Mbps)
	st := hub.Stats()
	if st.FramesOut != 2 || st.FaultDuplicated != 1 {
		t.Fatalf("duplicate: FramesOut=%d FaultDuplicated=%d", st.FramesOut, st.FaultDuplicated)
	}
}

// TestHubFaultPlanCorruptIsolatesPeers corrupts a private copy per
// delivery: with two peers and a corrupt-everything plan, both peers
// still receive a datagram (corruption flips payload bytes, it must
// not drop or cross-contaminate).
func TestHubFaultPlanCorrupt(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()

	peer := dialAndRegister(t, hub)
	defer peer.Close()

	hub.SetFaultPlan(fault.Corrupt{P: 1}, 3)
	raw := broadcastBeacon(t)
	hub.Transmit(bssid, raw, dot11.Rate1Mbps)
	st := hub.Stats()
	if st.FramesOut != 1 || st.FaultCorrupted != 1 {
		t.Fatalf("corrupt: FramesOut=%d FaultCorrupted=%d", st.FramesOut, st.FaultCorrupted)
	}
	// The corrupted datagram reaches the peer and differs from the
	// original frame in exactly one byte.
	buf := make([]byte, netmedium.MaxDatagram)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := peer.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netmedium.Unmarshal(buf[:n])
	if err != nil {
		t.Fatalf("corrupted datagram unparseable at the transport layer: %v", err)
	}
	diff := 0
	for i := range raw {
		if i < len(m.Payload) && m.Payload[i] != raw[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted payload differs in %d bytes, want 1", diff)
	}
}

// TestHubTransmitKeepsNoCallerBuffer pins the Channel contract on the
// hub: the caller overwrites its buffer right after Transmit, and every
// peer of a group frame still receives the original bytes.
func TestHubTransmitKeepsNoCallerBuffer(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()

	var peers []net.Conn
	for i := 1; i <= 2; i++ {
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		registerPeer(t, conn, dot11.MACAddr{0x02, 0, 0, 0, 0, byte(i)})
		peers = append(peers, conn)
	}
	waitPeers(t, hub, 2)

	buf := broadcastBeacon(t)
	want := append([]byte(nil), buf...)
	hub.Transmit(bssid, buf, dot11.Rate1Mbps)
	for i := range buf {
		buf[i] = 0xff
	}
	for i, conn := range peers {
		in := make([]byte, netmedium.MaxDatagram)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(in)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		m, err := netmedium.Unmarshal(in[:n])
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if !bytes.Equal(m.Payload, want) {
			t.Errorf("peer %d received %x, want the original %x", i, m.Payload, want)
		}
	}
}

// TestHubLivenessEviction registers two peers; one answers pings, the
// other goes silent. After enough sweeps only the silent one is
// evicted and returned by the sweep.
func TestHubLivenessEviction(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()

	hub.SetLiveness(2)

	liveMAC := dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}
	deadMAC := dot11.MACAddr{0x02, 0, 0, 0, 0, 0x02}

	// The live peer is a full Link: its Serve loop auto-pongs pings.
	liveInject := make(chan sim.Event, 16)
	live, err := Dial(pc.LocalAddr().String(), liveInject)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	go live.Serve()
	go func() { // drain injected frames; no engine in this test
		for range liveInject {
		}
	}()
	registerPeer(t, live.conn, liveMAC)

	// The dead peer registers then never reads or answers again.
	dead, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	registerPeer(t, dead, deadMAC)

	waitPeers(t, hub, 2)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if evicted := hub.PingPeers(); len(evicted) > 0 {
			if len(evicted) != 1 || evicted[0] != deadMAC {
				t.Fatalf("evicted %v, want [%v]", evicted, deadMAC)
			}
			if n := hub.Stats().Peers; n != 1 {
				t.Fatalf("peers after eviction = %d, want 1", n)
			}
			if hub.Stats().Evictions != 1 {
				t.Fatalf("Evictions = %d, want 1", hub.Stats().Evictions)
			}
			if live.Stats().PingsAnswered == 0 {
				t.Fatal("live peer never answered a ping")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after deadline: %+v", hub.Stats())
		}
		// Real sweeps run on the engine clock; here a short wall sleep
		// gives the live peer's pong time to land between sweeps.
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHubPeerLeavesOnDisassociation checks the hub's goodbye rule from
// both ends: a station's Leave, and a disassociation the AP sends, each
// reach the other side and remove the station's peer at once, and the
// liveness sweeps that follow evict nothing.
func TestHubPeerLeavesOnDisassociation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fromAP bool              // the AP says goodbye, not the station
		leave  func(r *rig)      // on the engine of the side that leaves
		heard  func(r *rig) bool // on the engine of the other side
	}{
		{
			name:  "station leaves",
			leave: func(r *rig) { r.stEnt.Leave(dot11.ReasonStationLeft) },
			heard: func(r *rig) bool { _, ok := r.apEnt.AIDOf(r.stEnt.Addr()); return !ok },
		},
		{
			name:   "AP disassociates",
			fromAP: true,
			leave:  func(r *rig) { r.apEnt.DisassociateClient(r.stEnt.Addr(), dot11.ReasonInactivity) },
			heard:  func(r *rig) bool { return r.stEnt.Stats().DisassocsReceived == 1 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := startRig(t, station.HIDE, []uint16{5353}, 20*time.Millisecond)
			r.associatedAID(t)
			waitPeers(t, r.hub, 1)
			r.hub.SetLiveness(1)
			leaver, hearer := r.stInject, r.apInject
			if tc.fromAP {
				leaver, hearer = hearer, leaver
			}
			probeWait(t, leaver, time.Second, func() bool { tc.leave(r); return true })

			if !probeWait(t, hearer, 2*time.Second, func() bool { return tc.heard(r) }) {
				t.Fatal("the disassociation was not delivered")
			}
			deadline := time.Now().Add(2 * time.Second)
			for r.hub.Stats().Peers != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("the peer stayed after its disassociation: %+v", r.hub.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < 3; i++ {
				if evicted := r.hub.PingPeers(); len(evicted) > 0 {
					t.Fatalf("sweep %d evicted %v", i, evicted)
				}
			}
			if st := r.hub.Stats(); st.Evictions != 0 {
				t.Fatalf("a goodbye counted as an eviction: %+v", st)
			}
		})
	}
}

// discard is a medium node that ignores every frame.
type discard struct{}

func (discard) Receive(*medium.Frame, time.Duration) {}

// fullQueue is the engine queue of the hang tests: four slots that
// nothing drains, as after the engine has stopped.
const fullQueue = 4

// floodThenClose waits until a read loop has taken ten frames, checks
// that the six past its engine's full queue were dropped and counted,
// then closes it: its Serve must return.
func floodThenClose(t *testing.T, served <-chan error, read, dropped func() int, close func() error) {
	t.Helper()
	const sent = 10
	deadline := time.Now().Add(5 * time.Second)
	for read() < sent {
		if time.Now().After(deadline) {
			t.Fatalf("the read loop took %d of %d frames", read(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	if got := dropped(); got != sent-fullQueue {
		t.Errorf("Dropped = %d, want the %d frames past the full queue", got, sent-fullQueue)
	}
	if err := close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve had not returned 2 s after Close")
	}
}

// TestHubServeReturnsWithEngineQueueFull hands ten frames to a hub
// whose engine queue is full and undrained: the hub drops and counts
// what the queue refuses instead of blocking, so Close ends Serve.
func TestHubServeReturnsWithEngineQueueFull(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, fullQueue))
	hub.Attach(bssid, discard{})
	served := make(chan error, 1)
	go func() { served <- hub.Serve() }()
	conn, err := net.Dial("udp", hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		registerPeer(t, conn, dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01})
	}
	floodThenClose(t, served,
		func() int { return hub.Stats().FramesIn },
		func() int { return hub.Stats().Dropped },
		hub.Close)
}

// TestLinkServeReturnsWithEngineQueueFull is the same for the client's
// leg: ten frames from the hub reach a link whose engine queue is full
// and undrained.
func TestLinkServeReturnsWithEngineQueueFull(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0") // the hub's socket
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	link, err := Dial(pc.LocalAddr().String(), make(chan sim.Event, fullQueue))
	if err != nil {
		t.Fatal(err)
	}
	link.Attach(dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}, discard{})
	served := make(chan error, 1)
	go func() { served <- link.Serve() }()
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: broadcastBeacon(t)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := pc.WriteTo(msg, link.conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	floodThenClose(t, served,
		func() int { return link.Stats().FramesIn },
		func() int { return link.Stats().Dropped },
		link.Close)
}

// TestLinkReadsAfterTheHubReturns stops the hub a link is connected
// to and sends it a frame: the link counts the refusal its next read
// reports, and once the hub is back on the same address it still reads
// the hub's frames.
func TestLinkReadsAfterTheHubReturns(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	link, err := Dial(addr, make(chan sim.Event, fullQueue))
	if err != nil {
		t.Fatal(err)
	}
	link.Attach(dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}, discard{})
	served := make(chan error, 1)
	go func() { served <- link.Serve() }()
	defer func() {
		link.Close()
		<-served
	}()

	pc.Close()
	link.Transmit(dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}, broadcastBeacon(t), dot11.Rate1Mbps)
	deadline := time.Now().Add(2 * time.Second)
	for link.Stats().ReadErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no refusal read: %+v", link.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if pc, err = net.ListenPacket("udp", addr); err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: broadcastBeacon(t)}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(msg, link.conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for link.Stats().FramesIn == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the link stopped reading after the hub refused a frame: %+v", link.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// registerPeer sends one frame from mac so the hub learns the peer's
// transport address.
func registerPeer(t *testing.T, conn net.Conn, mac dot11.MACAddr) {
	t.Helper()
	req := &dot11.AssocRequest{Header: dot11.MACHeader{Addr1: bssid, Addr2: mac, Addr3: bssid}}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := netmedium.Message{Type: netmedium.MsgFrame, Rate: dot11.Rate1Mbps, Payload: raw}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
}

// dialAndRegister connects a bare UDP socket and registers it as peer
// 02:00:00:00:00:01, waiting until the hub has learned it.
func dialAndRegister(t *testing.T, hub *Hub) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", hub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	registerPeer(t, conn, dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01})
	waitPeers(t, hub, 1)
	return conn
}

// waitPeers blocks until the hub has learned n peers.
func waitPeers(t *testing.T, hub *Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().Peers < n {
		if time.Now().After(deadline) {
			t.Fatalf("hub never learned %d peers: %+v", n, hub.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// broadcastBeacon builds a minimal broadcast frame for fan-out tests.
func broadcastBeacon(t *testing.T) []byte {
	t.Helper()
	b := &dot11.Beacon{Header: dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: bssid, Addr3: bssid}}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// judged is one copy a receiver got: the index of the frame it
// carries and the byte a corrupting verdict flipped (-1 for none).
type judged struct{ frame, flipped int }

// judgedFrame builds frame k of the cross-air test: a group frame from
// bssid whose tail is k repeated, so a copy with one flipped byte still
// names its frame.
func judgedFrame(k int) []byte {
	raw := make([]byte, 40)
	copy(raw[4:], dot11.Broadcast[:])
	copy(raw[10:], bssid[:])
	for i := 16; i < len(raw); i++ {
		raw[i] = byte(k)
	}
	return raw
}

// judge names the frame a received copy carries and the byte flipped
// in it.
func judge(t *testing.T, got []byte) judged {
	t.Helper()
	if len(got) != len(judgedFrame(0)) {
		t.Fatalf("copy of %d bytes, want %d", len(got), len(judgedFrame(0)))
	}
	// At most one byte is flipped, so two of the last three agree.
	n := len(got)
	j := judged{frame: int(got[n-1]), flipped: -1}
	if got[n-1] != got[n-2] {
		j.frame = int(got[n-3])
	}
	want := judgedFrame(j.frame)
	for i := range want {
		if got[i] != want[i] {
			if j.flipped >= 0 || got[i] != want[i]^0xff {
				t.Fatalf("copy %x is not frame %d with one flipped byte", got, j.frame)
			}
			j.flipped = i
		}
	}
	return j
}

// judgedRecorder is a medium node that judges every copy it receives.
type judgedRecorder struct {
	t   *testing.T
	got []judged
}

func (r *judgedRecorder) Receive(f *medium.Frame, _ time.Duration) {
	r.got = append(r.got, judge(r.t, f.Raw))
}

// TestHubJudgesLikeMedium sends the same group frames through a hub
// with four loopback peers and a medium with four nodes, under the same
// fault plan and seed: every receiver must get the same frames, with
// the same bytes corrupted. A verdict that both drops and corrupts
// still draws the corrupted byte on both airs, so their RNG streams
// stay in step.
func TestHubJudgesLikeMedium(t *testing.T) {
	const (
		receivers = 4
		frames    = 40
		seed      = 11
		sentinel  = 0xee
	)
	plan := fault.Compose(fault.Loss{P: 0.5}, fault.Corrupt{P: 0.5})
	macs := make([]dot11.MACAddr, receivers)
	for i := range macs {
		macs[i] = dot11.MACAddr{0x02, 0, 0, 0, 0, byte(i + 1)}
	}

	eng := sim.New()
	med := medium.New(eng, seed)
	med.SetFaultPlan(plan)
	nodes := make([]*judgedRecorder, receivers)
	for i, mac := range macs {
		nodes[i] = &judgedRecorder{t: t}
		med.Attach(mac, nodes[i])
	}
	for k := 0; k < frames; k++ {
		med.Transmit(bssid, judgedFrame(k), dot11.Rate1Mbps)
	}
	eng.Run()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 16))
	go hub.Serve()
	defer hub.Close()
	peers := make([]net.Conn, receivers)
	for i, mac := range macs {
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		registerPeer(t, conn, mac)
		waitPeers(t, hub, i+1) // first contact fixes the fan-out order
		peers[i] = conn
	}
	hub.SetFaultPlan(plan, seed)
	for k := 0; k < frames; k++ {
		hub.Transmit(bssid, judgedFrame(k), dot11.Rate1Mbps)
	}
	hub.SetFaultPlan(nil, 0)
	hub.Transmit(bssid, judgedFrame(sentinel), dot11.Rate1Mbps)

	drops, corrupts := med.Stats.Losses, med.Stats.Corruptions
	if drops == 0 || corrupts == 0 {
		t.Fatalf("plan inert on the medium: %+v", med.Stats)
	}
	if st := hub.Stats(); st.FaultDropped != drops || st.FaultCorrupted != corrupts {
		t.Errorf("hub dropped %d and corrupted %d, medium %d and %d", st.FaultDropped, st.FaultCorrupted, drops, corrupts)
	}
	for i, conn := range peers {
		var got []judged
		buf := make([]byte, netmedium.MaxDatagram)
		for {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("peer %d: %v after %d copies", i, err, len(got))
			}
			m, err := netmedium.Unmarshal(buf[:n])
			if err != nil {
				t.Fatalf("peer %d: %v", i, err)
			}
			j := judge(t, m.Payload)
			if j.frame == sentinel {
				break
			}
			got = append(got, j)
		}
		if want := nodes[i].got; !slices.Equal(got, want) {
			t.Errorf("receiver %d: hub delivered %v, medium %v", i, got, want)
		}
	}
}
