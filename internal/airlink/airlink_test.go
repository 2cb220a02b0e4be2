package airlink

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/sim"
	"repro/internal/station"
)

var bssid = dot11.MACAddr{0x02, 0x1d, 0xe0, 0xaa, 0x00, 0x01}

// rig starts a real AP daemon and a real client daemon in-process:
// two engines, two realtime drivers, frames over loopback UDP.
type rig struct {
	hub      *Hub
	link     *Link
	apEnt    *ap.AP
	stEnt    *station.Station
	apInject chan sim.Event
	stInject chan sim.Event
	cancel   context.CancelFunc
	done     chan struct{}
}

func startRig(t *testing.T, mode station.Mode, ports []uint16, beaconInterval time.Duration) *rig {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{cancel: cancel, done: make(chan struct{})}

	// AP side.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	apInject := make(chan sim.Event, 128)
	r.apInject = apInject
	r.hub = NewHub(pc, apInject)
	apEng := sim.New()
	r.apEnt = ap.New(apEng, r.hub, ap.Config{
		BSSID: bssid, SSID: "air", HIDE: true,
		BeaconInterval: beaconInterval, DTIMPeriod: 2,
	})
	r.apEnt.Start()

	// Client side.
	stInject := make(chan sim.Event, 128)
	r.stInject = stInject
	link, err := Dial(pc.LocalAddr().String(), stInject)
	if err != nil {
		t.Fatal(err)
	}
	r.link = link
	stEng := sim.New()
	r.stEnt = station.New(stEng, link, station.Config{
		Addr:  dot11.MACAddr{0x02, 0x1d, 0xe0, 0xaa, 0x00, 0x10},
		BSSID: bssid,
		Mode:  mode,
	})
	for _, p := range ports {
		r.stEnt.OpenPort(p)
	}
	r.stEnt.StartAssociation("air")

	go r.hub.Serve()
	go r.link.Serve()
	apDone := make(chan struct{})
	stDone := make(chan struct{})
	go func() { defer close(apDone); _ = apEng.RunRealtime(ctx, apInject, 1) }()
	go func() { defer close(stDone); _ = stEng.RunRealtime(ctx, stInject, 1) }()
	go func() {
		<-apDone
		<-stDone
		close(r.done)
	}()
	t.Cleanup(func() {
		cancel()
		r.hub.Close()
		r.link.Close()
		<-r.done
	})
	return r
}

// probeWait polls cond until it holds or the deadline passes. Each
// evaluation is injected into the owning engine and runs on that
// engine's goroutine, so cond may read entity state race-free; the
// buffered result channel synchronizes the answer back to the test.
func probeWait(t *testing.T, inject chan<- sim.Event, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		res := make(chan bool, 1)
		inject <- func(time.Duration) { res <- cond() }
		if <-res {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStation and waitAP run cond on the respective engine goroutine.
func (r *rig) waitStation(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	return probeWait(t, r.stInject, timeout, cond)
}

func (r *rig) waitAP(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	return probeWait(t, r.apInject, timeout, cond)
}

// associatedAID waits for the station to associate and returns its AID.
// The AID is captured on the station goroutine and handed back through
// the probe's channel, so it can safely feed AP-side conditions.
func (r *rig) associatedAID(t *testing.T) dot11.AID {
	t.Helper()
	var aid dot11.AID
	if !r.waitStation(t, 10*time.Second, func() bool {
		if !r.stEnt.Associated() {
			return false
		}
		aid = r.stEnt.AID()
		return true
	}) {
		t.Fatalf("station never associated over UDP: link=%+v hub=%+v",
			r.link.Stats(), r.hub.Stats())
	}
	return aid
}

func TestOverTheWireAssociationAndPortSync(t *testing.T) {
	r := startRig(t, station.HIDE, []uint16{5353}, 20*time.Millisecond)

	aid := r.associatedAID(t)
	if !r.waitAP(t, 10*time.Second, func() bool {
		return r.apEnt.Table().Listening(5353, aid)
	}) {
		t.Fatal("port table never synced over UDP")
	}
	if !r.waitStation(t, 10*time.Second, func() bool { return r.stEnt.Suspended() }) {
		t.Fatal("station never suspended after the over-the-wire handshake")
	}
}

func TestOverTheWireBroadcastFiltering(t *testing.T) {
	r := startRig(t, station.HIDE, []uint16{5353}, 20*time.Millisecond)
	aid := r.associatedAID(t)
	if !r.waitAP(t, 10*time.Second, func() bool {
		return r.apEnt.Table().Listening(5353, aid)
	}) {
		t.Fatal("setup: port sync failed")
	}

	// Inject a useless and a useful broadcast frame at the AP. The
	// enqueue must run on the AP engine goroutine.
	apInject := make(chan struct{})
	r.hubInject(func(time.Duration) {
		r.apEnt.EnqueueGroup(dot11.UDPDatagram{DstPort: 9999}, dot11.Rate1Mbps)
		close(apInject)
	})
	<-apInject
	if !r.waitAP(t, 5*time.Second, func() bool { return r.apEnt.Stats().GroupFramesSent >= 1 }) {
		t.Fatal("useless frame never flushed")
	}
	// The HIDE station's BTIM bit stays clear: it never receives it.
	// The sleep is a grace period for a wrongly-forwarded frame to land
	// before the negative check; the read itself is probed.
	time.Sleep(200 * time.Millisecond)
	var got int
	r.waitStation(t, time.Second, func() bool {
		got = r.stEnt.Stats().GroupReceived
		return true
	})
	if got != 0 {
		t.Fatalf("HIDE station received %d useless frames over the wire", got)
	}

	done := make(chan struct{})
	r.hubInject(func(time.Duration) {
		r.apEnt.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		close(done)
	})
	<-done
	if !r.waitStation(t, 10*time.Second, func() bool { return r.stEnt.Stats().GroupUseful >= 1 }) {
		t.Fatal("useful frame never received over the wire")
	}
}

// hubInject runs fn on the AP engine goroutine.
func (r *rig) hubInject(fn sim.Event) {
	r.apInject <- fn
}

func TestLegacyClientOverTheWire(t *testing.T) {
	r := startRig(t, station.Legacy, nil, 20*time.Millisecond)
	r.associatedAID(t)
	done := make(chan struct{})
	r.hubInject(func(time.Duration) {
		r.apEnt.EnqueueGroup(dot11.UDPDatagram{DstPort: 9999}, dot11.Rate1Mbps)
		close(done)
	})
	<-done
	if !r.waitStation(t, 10*time.Second, func() bool { return r.stEnt.Stats().GroupReceived >= 1 }) {
		t.Fatal("legacy station never received broadcast")
	}
}

func TestHubTransmitToUnknownPeer(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	hub := NewHub(pc, make(chan sim.Event, 1))
	// Unicast to a MAC the hub has never heard from: silently dropped.
	ack := (&dot11.ACK{RA: dot11.MACAddr{9, 9, 9, 9, 9, 9}}).AppendTo(nil)
	hub.Transmit(bssid, ack, dot11.Rate1Mbps)
	if hub.Stats().FramesOut != 0 {
		t.Fatal("frame sent to unknown peer")
	}
	// Broadcast with no peers: no-op.
	beacon := &dot11.Beacon{Header: dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: bssid, Addr3: bssid}}
	raw, err := beacon.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hub.Transmit(bssid, raw, dot11.Rate1Mbps)
	if hub.Stats().FramesOut != 0 {
		t.Fatal("broadcast sent with no peers")
	}
}

func TestHubIgnoresGarbageDatagrams(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(pc, make(chan sim.Event, 1))
	go hub.Serve()
	defer hub.Close()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Stats().BadPackets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if hub.Stats().Peers != 0 {
		t.Fatal("garbage datagram learned as peer")
	}
}
