package station

import (
	"testing"
	"time"

	"repro/internal/dot11"
)

// TestAPInitiatedDisassoc delivers a drain-style disassociation frame
// from the AP and checks the station detaches without replying.
func TestAPInitiatedDisassoc(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{5353})
	a.Start()
	eng.RunUntil(200 * time.Millisecond)
	if !st.Associated() {
		t.Fatal("setup: not associated")
	}

	eng.MustScheduleAt(210*time.Millisecond, func(now time.Duration) {
		d := &dot11.Disassoc{
			Header: dot11.MACHeader{Addr1: st.Addr(), Addr2: bssid, Addr3: bssid},
			Reason: dot11.ReasonUnspecified,
		}
		st.Receive(readFrame(d.Marshal(), dot11.Rate1Mbps), now)
	})
	eng.RunUntil(300 * time.Millisecond)

	if st.Associated() {
		t.Fatal("station still associated after AP disassoc")
	}
	if st.Stats().DisassocsReceived != 1 {
		t.Fatalf("DisassocsReceived = %d, want 1", st.Stats().DisassocsReceived)
	}
	if !st.Suspended() {
		t.Fatal("suspend timeline not closed after disassoc")
	}
	// The AP removed the association itself; the station must not have
	// transmitted a disassociation back (AP's counter stays zero).
	if a.Stats().Disassociations != 0 {
		t.Fatalf("station answered an AP disassoc with its own: %d", a.Stats().Disassociations)
	}
}

// TestDisassocFromWrongBSSIgnored checks frames from a foreign BSS or
// addressed to another station do not detach this one.
func TestDisassocFromWrongBSS(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, nil)
	a.Start()
	eng.RunUntil(200 * time.Millisecond)

	other := dot11.MACAddr{2, 9, 9, 9, 9, 9}
	eng.MustScheduleAt(210*time.Millisecond, func(now time.Duration) {
		// Foreign BSS.
		d := &dot11.Disassoc{Header: dot11.MACHeader{Addr1: st.Addr(), Addr2: other, Addr3: other}}
		st.Receive(readFrame(d.Marshal(), dot11.Rate1Mbps), now)
		// Right BSS, another station's address.
		d2 := &dot11.Disassoc{Header: dot11.MACHeader{Addr1: other, Addr2: bssid, Addr3: bssid}}
		st.Receive(readFrame(d2.Marshal(), dot11.Rate1Mbps), now)
	})
	eng.RunUntil(300 * time.Millisecond)

	if !st.Associated() {
		t.Fatal("station detached on a frame not addressed to it")
	}
	if st.Stats().DisassocsReceived != 0 {
		t.Fatalf("DisassocsReceived = %d, want 0", st.Stats().DisassocsReceived)
	}
}

// TestAbandonAllowsReassociation detaches locally (dead AP) and checks
// a fresh association works afterwards.
func TestAbandonAllowsReassociation(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, []uint16{53})
	a.Start()
	eng.RunUntil(200 * time.Millisecond)

	eng.MustScheduleAt(210*time.Millisecond, func(time.Duration) {
		st.Abandon()
	})
	eng.RunUntil(220 * time.Millisecond)
	if st.Associated() {
		t.Fatal("still associated after Abandon")
	}

	// The AP still holds the old association (the station could not
	// tell it anything — it was "dead"); drop it so the fresh exchange
	// allocates cleanly, as a restarted AP would have.
	eng.MustScheduleAt(230*time.Millisecond, func(time.Duration) {
		a.Disassociate(st.Addr())
		st.StartAssociation("t")
	})
	eng.RunUntil(time.Second)

	if !st.Associated() {
		t.Fatal("re-association after Abandon failed")
	}
	if !a.Table().Listening(53, st.AID()) {
		t.Fatal("ports not re-registered after Abandon + re-association")
	}
}

// TestLastBeaconAt tracks the accessor across the timeline.
func TestLastBeaconAt(t *testing.T) {
	eng, a, st := rig(t, HIDE, true, nil)
	if _, ok := st.LastBeaconAt(); ok {
		t.Fatal("LastBeaconAt reported a beacon before any was heard")
	}
	a.Start()
	eng.RunUntil(300 * time.Millisecond)
	at, ok := st.LastBeaconAt()
	if !ok || at <= 0 {
		t.Fatalf("LastBeaconAt = %v,%v after beacons", at, ok)
	}
}
