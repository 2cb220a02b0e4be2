package ap

import (
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
)

// sendPortMsg transmits a UDP Port Message from addr over the medium.
func sendPortMsg(t *testing.T, med *medium.Medium, addr dot11.MACAddr, ports []uint16) {
	t.Helper()
	msg := &dot11.UDPPortMessage{
		Header: dot11.MACHeader{Addr1: bssid, Addr2: addr, Addr3: bssid},
		Ports:  ports,
	}
	raw := msg.AppendTo(nil)
	med.Transmit(addr, raw, dot11.Rate1Mbps)
}

func TestRestartWipesSoftState(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true, DTIMPeriod: 3})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	sendPortMsg(t, med, c1Addr, []uint16{53, 5353})
	eng.Run()
	if !a.Table().Listening(53, aid) {
		t.Fatal("port message not applied before restart")
	}
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	a.EnqueueGroup(dot11.UDPDatagram{DstPort: 1900}, dot11.Rate1Mbps)
	if err := a.EnqueueUnicast(c1Addr, dot11.UDPDatagram{DstPort: 7000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}

	a.Restart()

	st := a.Stats()
	if a.Table().Clients() != 0 {
		t.Error("Client UDP Port Table survived the restart")
	}
	if a.BufferedGroupFrames() != 0 || a.PendingUnicast() != 0 {
		t.Error("buffered frames survived the restart")
	}
	if st.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", st.Restarts)
	}
	if st.GroupFramesLost != 2 || st.UnicastFramesLost != 1 {
		t.Errorf("lost counts = %d group, %d unicast; want 2, 1", st.GroupFramesLost, st.UnicastFramesLost)
	}
	// Conservation still closes with the lost terms.
	if st.GroupFramesEnqueued != st.GroupFramesSent+a.BufferedGroupFrames()+st.GroupFramesLost {
		t.Error("group conservation broken after restart")
	}
	// Associations survive: the client keeps its AID and can refresh.
	sendPortMsg(t, med, c1Addr, []uint16{53})
	eng.Run()
	if !a.Table().Listening(53, aid) {
		t.Error("client could not re-register after restart")
	}
}

func TestBeaconTimestampRegressesOnRestart(t *testing.T) {
	eng, _, a, sn := rig(t, Config{DTIMPeriod: 3})
	a.Start()
	eng.RunUntil(500 * time.Millisecond)
	eng.MustScheduleAt(500*time.Millisecond, func(time.Duration) { a.Restart() })
	eng.RunUntil(time.Second)

	if len(sn.beacons) < 6 {
		t.Fatalf("heard only %d beacons", len(sn.beacons))
	}
	regressions := 0
	for i := 1; i < len(sn.beacons); i++ {
		if sn.beacons[i].Timestamp < sn.beacons[i-1].Timestamp {
			regressions++
		}
	}
	if regressions != 1 {
		t.Fatalf("observed %d timestamp regressions, want exactly 1 (at the restart)", regressions)
	}
}

func TestPortTTLExpiresStaleClient(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true, DTIMPeriod: 1, PortTTL: 300 * time.Millisecond})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	sendPortMsg(t, med, c1Addr, []uint16{53})
	eng.RunUntil(200 * time.Millisecond)
	if !a.Table().Listening(53, aid) {
		t.Fatal("entry missing before TTL")
	}
	// No refresh arrives; the sweep at beacon cadence must age it out.
	eng.RunUntil(time.Second)
	if a.Table().Listening(53, aid) {
		t.Error("stale entry survived the TTL")
	}
	if got := a.Stats().PortEntriesExpired; got != 1 {
		t.Errorf("PortEntriesExpired = %d, want 1", got)
	}
}

func TestPortTTLRefreshKeepsClientAlive(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true, DTIMPeriod: 1, PortTTL: 300 * time.Millisecond})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	// Refresh every 200 ms, well inside the 300 ms TTL.
	for at := time.Duration(0); at < time.Second; at += 200 * time.Millisecond {
		eng.MustScheduleAt(at, func(time.Duration) {
			sendPortMsg(t, med, c1Addr, []uint16{53})
		})
	}
	eng.RunUntil(time.Second)
	if !a.Table().Listening(53, aid) {
		t.Error("refreshing client was expired")
	}
	if got := a.Stats().PortEntriesExpired; got != 0 {
		t.Errorf("PortEntriesExpired = %d, want 0", got)
	}
}

func TestPortTTLZeroDisablesSweep(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true, DTIMPeriod: 1})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	sendPortMsg(t, med, c1Addr, []uint16{53})
	eng.RunUntil(5 * time.Second)
	if !a.Table().Listening(53, aid) {
		t.Error("entry expired with PortTTL disabled")
	}
}
