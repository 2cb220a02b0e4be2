package station

import (
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/dot11"
	"repro/internal/fault"
	"repro/internal/medium"
	"repro/internal/sim"
)

// hardRig is rig with a configurable station Config (Addr/BSSID/Mode
// filled in) against a HIDE AP.
func hardRig(t *testing.T, cfg Config, ports []uint16) (*sim.Engine, *medium.Medium, *ap.AP, *Station) {
	t.Helper()
	eng := sim.New()
	med := medium.New(eng, 7)
	a := ap.New(eng, med, ap.Config{BSSID: bssid, SSID: "t", HIDE: true, DTIMPeriod: 2})
	cfg.Addr = dot11.MACAddr{2, 0, 0, 0, 0, 0x10}
	cfg.BSSID = bssid
	cfg.Mode = HIDE
	st := New(eng, med, cfg)
	for _, p := range ports {
		st.OpenPort(p)
	}
	aid, err := a.Associate(st.cfg.Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Join(aid); err != nil {
		t.Fatal(err)
	}
	return eng, med, a, st
}

func TestGiveUpAfterRetryBudget(t *testing.T) {
	eng, med, a, st := hardRig(t, Config{AckTimeout: 20 * time.Millisecond}, []uint16{53})
	med.SetFaultPlan(fault.Only(fault.Loss{P: 1}, dot11.KindACK))
	a.Start()
	eng.RunUntil(5 * time.Second)

	s := st.Stats()
	if s.PortMsgGivenUp == 0 {
		t.Fatal("retry budget exhausted but PortMsgGivenUp not surfaced")
	}
	if s.PortMsgRetries != maxRetries || s.PortMsgsSent != 1+maxRetries {
		t.Errorf("sent %d port messages with %d retries, want initial + %d retries", s.PortMsgsSent, s.PortMsgRetries, maxRetries)
	}
	if !st.Suspended() {
		t.Error("station did not suspend after giving up")
	}
}

func TestBackoffGrowsExponentiallyWithJitter(t *testing.T) {
	st := New(sim.New(), medium.New(sim.New(), 1),
		Config{Addr: dot11.MACAddr{2, 0, 0, 0, 0, 9}, BSSID: bssid, AckTimeout: 60 * time.Millisecond})
	// First attempt: exactly the base timeout, no randomness drawn.
	if got := st.ackWait(); got != 60*time.Millisecond {
		t.Fatalf("attempt 0 wait = %v, want base 60ms", got)
	}
	base := 60 * time.Millisecond
	for _, tc := range []struct {
		retries int
		mult    time.Duration
	}{{1, 2}, {2, 4}, {3, 8}, {4, 16}, {9, 16}} { // shift caps at 4
		st.retries = tc.retries
		d := base * tc.mult
		lo, hi := d-d/4, d+d/4
		for i := 0; i < 50; i++ {
			got := st.ackWait()
			if got < lo || got > hi {
				t.Fatalf("retries=%d wait %v outside [%v, %v]", tc.retries, got, lo, hi)
			}
		}
	}
}

func TestBackoffJitterDesynchronizesStations(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 1)
	mk := func(last byte) *Station {
		s := New(eng, med, Config{
			Addr: dot11.MACAddr{2, 0, 0, 0, 0, last}, BSSID: bssid,
			AckTimeout: 60 * time.Millisecond, Seed: 42,
		})
		s.retries = 2
		return s
	}
	a, b := mk(1), mk(2)
	same := 0
	for i := 0; i < 20; i++ {
		if a.ackWait() == b.ackWait() {
			same++
		}
	}
	if same == 20 {
		t.Error("two stations with the same Config.Seed backed off in lockstep")
	}
}

func TestMissedBeaconFailSafe(t *testing.T) {
	eng, med, a, st := hardRig(t, Config{MissedBeaconFailSafe: true}, []uint16{5353})
	// Drop every beacon to the station once traffic starts; frames on
	// its open port still arrive and must be received via the fail-safe.
	med.SetFaultPlan(fault.Window{
		From:  150 * time.Millisecond,
		Inner: fault.To(st.Addr(), fault.Only(fault.Loss{P: 1}, dot11.KindBeacon)),
	})
	a.Start()
	for at := 300 * time.Millisecond; at < 2*time.Second; at += 400 * time.Millisecond {
		eng.MustScheduleAt(at, func(time.Duration) {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		})
	}
	eng.RunUntil(3 * time.Second)

	s := st.Stats()
	if s.FailSafeBursts == 0 {
		t.Fatal("fail-safe never fired despite lost DTIM beacons")
	}
	if s.GroupUseful < 4 {
		t.Errorf("received %d useful frames, want at least 4", s.GroupUseful)
	}
}

func TestNoFailSafeWhenDisabled(t *testing.T) {
	eng, med, a, st := hardRig(t, Config{}, []uint16{5353})
	med.SetFaultPlan(fault.Window{
		From:  150 * time.Millisecond,
		Inner: fault.To(st.Addr(), fault.Only(fault.Loss{P: 1}, dot11.KindBeacon)),
	})
	a.Start()
	eng.MustScheduleAt(500*time.Millisecond, func(time.Duration) {
		a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
	})
	eng.RunUntil(2 * time.Second)

	s := st.Stats()
	if s.FailSafeBursts != 0 {
		t.Errorf("fail-safe fired %d times while disabled", s.FailSafeBursts)
	}
	if s.GroupUseful != 0 {
		t.Errorf("station received %d frames without hearing a DTIM", s.GroupUseful)
	}
}

func TestFailSafeNoFalsePositiveOnCleanChannel(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{MissedBeaconFailSafe: true}, []uint16{9999})
	a.Start()
	// Traffic only on a closed port: the BTIM bit stays clear and the
	// station must keep sleeping through it — overdue never triggers
	// because beacons arrive on schedule.
	for at := 300 * time.Millisecond; at < 2*time.Second; at += 250 * time.Millisecond {
		eng.MustScheduleAt(at, func(time.Duration) {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		})
	}
	eng.RunUntil(3 * time.Second)

	s := st.Stats()
	if s.FailSafeBursts != 0 {
		t.Errorf("fail-safe fired %d times on a clean channel", s.FailSafeBursts)
	}
	if s.GroupReceived != 0 {
		t.Errorf("station received %d unwanted frames", s.GroupReceived)
	}
}

func TestPortRefreshAtDTIMCadence(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{PortRefresh: 500 * time.Millisecond}, []uint16{53})
	a.Start()
	eng.RunUntil(3 * time.Second)

	s := st.Stats()
	if s.PortMsgRefreshes < 3 {
		t.Errorf("refreshes = %d over 3s with a 500ms cadence, want >= 3", s.PortMsgRefreshes)
	}
	// Refreshes ride heard beacons; the suspend machinery must not
	// have been disturbed (no extra wakeups from refreshing).
	if !st.Suspended() {
		t.Error("station not suspended between refreshes")
	}
}

func TestNoPortRefreshWhenDisabled(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{}, []uint16{53})
	a.Start()
	eng.RunUntil(3 * time.Second)
	if got := st.Stats().PortMsgRefreshes; got != 0 {
		t.Errorf("refreshes = %d with PortRefresh disabled", got)
	}
}

// TestZeroPortStationSyncs: a HIDE station with no open ports still
// completes the handshake. The AP acknowledges its empty port list, so
// the station counts as synced, and its next suspend re-sends the
// empty list, which the AP acknowledges too.
func TestZeroPortStationSyncs(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{}, nil)
	a.Start()
	eng.RunUntil(2 * time.Second)
	if s := st.Stats(); s.PortMsgsSent != 1 || s.ACKsReceived != 1 || !st.Synced() {
		t.Fatalf("after the handshake: sent %d, ACKs %d, synced %v; want 1, 1, true",
			s.PortMsgsSent, s.ACKsReceived, st.Synced())
	}
	// A unicast frame wakes the host; its next suspend syncs again.
	if err := a.EnqueueUnicast(st.Addr(), dot11.UDPDatagram{DstPort: 4000}, dot11.Rate11Mbps); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	s := st.Stats()
	if s.UnicastReceived != 1 || s.Suspends != 2 || s.PortMsgsSent != 2 || s.ACKsReceived != 2 {
		t.Errorf("after one wake: unicast %d, suspends %d, sent %d, ACKs %d; want 1, 2, 2, 2",
			s.UnicastReceived, s.Suspends, s.PortMsgsSent, s.ACKsReceived)
	}
	if !st.Suspended() || !st.Synced() {
		t.Errorf("suspended %v, synced %v; want both", st.Suspended(), st.Synced())
	}
}

func TestAPRestartTriggersResync(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{}, []uint16{53})
	a.Start()
	eng.MustScheduleAt(time.Second, func(time.Duration) { a.Restart() })
	eng.RunUntil(3 * time.Second)

	s := st.Stats()
	if s.APRestartsSeen != 1 {
		t.Fatalf("APRestartsSeen = %d, want 1", s.APRestartsSeen)
	}
	// The station re-registered: its ports are back in the fresh table.
	if !a.Table().Listening(53, st.AID()) {
		t.Error("open port missing from the post-restart table")
	}
}

func TestCrashGoesSilent(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{}, []uint16{5353})
	a.Start()
	eng.RunUntil(500 * time.Millisecond)
	beforeArrivals := len(st.Arrivals())
	before := st.Stats()

	st.Crash()
	if !st.Crashed() || !st.Suspended() {
		t.Fatal("crashed station not silent+suspended")
	}
	for at := 600 * time.Millisecond; at < 2*time.Second; at += 300 * time.Millisecond {
		eng.MustScheduleAt(at, func(time.Duration) {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate1Mbps)
		})
	}
	eng.RunUntil(3 * time.Second)

	after := st.Stats()
	if len(st.Arrivals()) != beforeArrivals {
		t.Error("crashed station recorded arrivals")
	}
	if after.BeaconsHeard != before.BeaconsHeard || after.GroupReceived != before.GroupReceived {
		t.Error("crashed station processed traffic")
	}
	if after.PortMsgsSent != before.PortMsgsSent {
		t.Error("crashed station transmitted")
	}
	// Crash counts no suspend transition of its own beyond the state.
	if after.Suspends != before.Suspends {
		t.Errorf("Suspends moved from %d to %d across Crash", before.Suspends, after.Suspends)
	}
}

func TestCrashLeavesStaleTableEntry(t *testing.T) {
	eng, _, a, st := hardRig(t, Config{}, []uint16{5353})
	a.Start()
	eng.RunUntil(500 * time.Millisecond)
	st.Crash()
	eng.RunUntil(5 * time.Second)
	// No TTL configured: the stale entry persists — exactly the leak
	// ap.Config.PortTTL exists to bound.
	if !a.Table().Listening(5353, st.AID()) {
		t.Error("crashed client's entry vanished without a TTL sweep")
	}
}
