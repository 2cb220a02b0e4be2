package station

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

// cohortRig assembles an engine, medium, HIDE AP, and one associated,
// joined cohort of count members, run long enough to complete the port
// handshake and suspend.
func cohortRig(t *testing.T, count int) (*sim.Engine, *CohortStation) {
	t.Helper()
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true, DTIMPeriod: 1})
	c, err := NewCohort(eng, med, CohortConfig{
		Config: Config{
			Addr:  dot11.MACAddr{2, 0, 0, 0, 1, 0},
			BSSID: bssid,
			Mode:  HIDE,
		},
		Count: count,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OpenPort(5353)
	aid, err := a.AssociateAggregate(c.tmpl.Addr(), count, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Join(aid); err != nil {
		t.Fatal(err)
	}
	a.Start()
	eng.RunUntil(2 * time.Second)
	if !c.tmpl.Suspended() {
		t.Fatal("cohort not suspended after handshake")
	}
	return eng, c
}

// TestAllocBudgetCohortAsleepReceive pins the cohort hot path at scale:
// a group data frame arriving while the members sleep (the overwhelming
// majority of deliveries in a million-client run) must cost ZERO
// allocations — the radio drops it in PS mode without touching the
// heap, so folding 10⁶ members into one node keeps event cost flat.
func TestAllocBudgetCohortAsleepReceive(t *testing.T) {
	eng, c := cohortRig(t, 64)
	frame := (&dot11.DataFrame{
		Header: dot11.MACHeader{
			FC:    dot11.FrameControl{FromDS: true},
			Addr1: dot11.Broadcast, Addr2: bssid, Addr3: bssid,
		},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 9999, Payload: make([]byte, 160)}),
	}).Marshal()
	now, f := eng.Now(), readFrame(frame, dot11.Rate11Mbps)
	allocs := testing.AllocsPerRun(200, func() {
		c.tmpl.Receive(f, now)
	})
	if allocs != 0 {
		t.Fatalf("asleep group receive: %.1f allocs/op, want 0", allocs)
	}
}

// dtimBeacon encodes a DTIM beacon announcing group traffic: its TIM
// sets the broadcast bit and no unicast bit, and its BTIM sets aid's
// bit when set is true and none otherwise. The timestamp is far ahead
// of the rig AP's, so receiving it never looks like an AP restart.
func dtimBeacon(t *testing.T, aid dot11.AID, set bool) []byte {
	t.Helper()
	var bm dot11.VirtualBitmap
	if set {
		bm.Set(aid)
	}
	btim := dot11.BTIMFromBitmap(&bm)
	raw, err := (&dot11.Beacon{
		Header:         dot11.MACHeader{Addr1: dot11.Broadcast, Addr2: bssid, Addr3: bssid},
		Timestamp:      1 << 40,
		BeaconInterval: 100,
		SSID:           "t",
		TIM:            &dot11.TIM{DTIMPeriod: 1, Broadcast: true, PartialBitmap: []byte{0}},
		BTIM:           &btim,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAllocBudgetBeaconReceive pins the beacon receive path at zero
// allocations: a suspended HIDE station and a 64-member cohort test
// the TIM/BTIM bits of the channel's reading of a DTIM beacon, read
// once outside the measured call as the medium reads it once per
// transmission. The reader's BTIM bit is set in one run and clear in
// the other; the TIM unicast bit stays clear, so nothing is sent
// either way.
func TestAllocBudgetBeaconReceive(t *testing.T) {
	for _, set := range []bool{true, false} {
		t.Run(fmt.Sprintf("btim=%v", set), func(t *testing.T) {
			eng, a, st := rig(t, HIDE, true, []uint16{5353})
			a.Start()
			eng.RunUntil(500 * time.Millisecond)
			f := readFrame(dtimBeacon(t, st.AID(), set), dot11.Rate1Mbps)
			now, before := eng.Now(), st.Stats()
			allocs := testing.AllocsPerRun(200, func() {
				st.Receive(f, now)
			})
			if allocs != 0 {
				t.Errorf("station beacon receive: %.1f allocs/op, want 0", allocs)
			}
			after := st.Stats()
			if st.listening != set || after.BeaconsHeard == before.BeaconsHeard ||
				after.PSPollsSent != before.PSPollsSent || after.PortMsgsSent != before.PortMsgsSent {
				t.Errorf("station read the beacon wrong: listening=%v, stats before %+v after %+v", st.listening, before, after)
			}

			eng, c := cohortRig(t, 64)
			f = readFrame(dtimBeacon(t, c.tmpl.AID(), set), dot11.Rate1Mbps)
			now, before = eng.Now(), c.MemberStats()
			allocs = testing.AllocsPerRun(200, func() {
				c.tmpl.Receive(f, now)
			})
			if allocs != 0 {
				t.Errorf("cohort beacon receive: %.1f allocs/op, want 0", allocs)
			}
			after = c.MemberStats()
			if c.tmpl.listening != set || after.BeaconsHeard == before.BeaconsHeard ||
				after.PSPollsSent != before.PSPollsSent || after.PortMsgsSent != before.PortMsgsSent {
				t.Errorf("cohort read the beacon wrong: listening=%v, stats before %+v after %+v",
					c.tmpl.listening, before, after)
			}
		})
	}
}

// TestAllocBudgetPortMessageSend pins a warm station's UDP Port
// Message send at one allocation: the medium's injection copy. The
// message is encoded into the station's reused buffer. No AP is
// attached, so the frame's delivery is a drop and the ACK is handed in
// directly.
func TestAllocBudgetPortMessageSend(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 7)
	st := New(eng, med, Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 0x10}, BSSID: bssid, Mode: HIDE})
	st.OpenPort(53)
	st.OpenPort(5353)
	if err := st.Join(1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second) // the unanswered handshake gives up and the host suspends
	send := func() {
		st.retries = 0
		st.sendPortMessage(eng.Now())
		eng.Step() // the frame's delivery
		st.handleACK(eng.Now())
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs > 1 {
		t.Fatalf("warm port-message send: %.1f allocs/op, want <= 1 (injection copy only)", allocs)
	}
	if !st.Synced() {
		t.Fatal("the acknowledged send left the station unsynced")
	}
}
