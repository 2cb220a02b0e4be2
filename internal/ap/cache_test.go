package ap

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/porttable"
	"repro/internal/sim"
)

// TestAllocBudgetBeaconEncodeIdleDTIM pins the cached beacon path — the
// encode behind every idle DTIM — at zero allocations: the patch writes
// the sequence number, TSF timestamp, DTIM count, and broadcast bit into
// the cached bytes in place.
func TestAllocBudgetBeaconEncodeIdleDTIM(t *testing.T) {
	_, a := benchAP(20, 1)
	now := a.cfg.BeaconInterval
	a.encodeBeacon(now, true) // warm: full rebuild into the cache
	allocs := testing.AllocsPerRun(200, func() {
		now += a.cfg.BeaconInterval
		a.encodeBeacon(now, true)
	})
	if allocs != 0 {
		t.Fatalf("cached DTIM encode: %.1f allocs/op, want 0", allocs)
	}
}

// cacheStale mirrors encodeBeacon's rebuild predicate: it reports
// whether the next encode will take the from-scratch path.
func cacheStale(a *AP) bool {
	bc := &a.cache
	return !bc.valid || a.dirty || a.flagFn != nil || a.table.Gen() != bc.tableGen
}

// encodeBoth encodes one beacon through the production path (cached or
// rebuilt, whatever encodeBeacon picks), then rolls the sequence counter
// back and forces a from-scratch rebuild of the very same beacon. The
// two byte streams must be identical: the patch path may only touch
// fields that legitimately change between beacons.
func encodeBoth(a *AP, now time.Duration, isDTIM bool) (got, want []byte) {
	seq := a.seq
	_, raw := a.encodeBeacon(now, isDTIM)
	got = append([]byte(nil), raw...)
	a.seq = seq
	a.dirty = true
	_, raw2 := a.encodeBeacon(now, isDTIM)
	want = append([]byte(nil), raw2...)
	return got, want
}

// TestBeaconCacheInvalidation drives every mutation path that can change
// beacon contents and asserts two properties at each step: the mutation
// actually invalidates the cache (or, for no-op steps, leaves it warm),
// and the emitted bytes are bit-identical to a from-scratch rebuild for
// both DTIM and non-DTIM beacons.
func TestBeaconCacheInvalidation(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 1)
	a := New(eng, med, Config{
		BSSID:      dot11.MACAddr{0x02, 0x1d, 0xe0, 0, 0, 1},
		SSID:       "inval",
		HIDE:       true,
		DTIMPeriod: 3,
	})
	addr := func(i int) dot11.MACAddr {
		return dot11.MACAddr{0x02, 0x1d, 0xe0, 0, 1, byte(i)}
	}
	var aids []dot11.AID
	for i := 0; i < 4; i++ {
		aid, err := a.Associate(addr(i), true)
		if err != nil {
			t.Fatalf("associate %d: %v", i, err)
		}
		a.Table().UpdateAt(aid, []uint16{5353, uint16(6000 + i)}, 0)
		aids = append(aids, aid)
	}

	now := 100 * time.Millisecond
	var lateAID dot11.AID
	// portMsg hands the AP a UDP Port Message from client i, through
	// the receive path stations use.
	portMsg := func(i int, ports ...uint16) {
		raw := (&dot11.UDPPortMessage{
			Header: dot11.MACHeader{Addr1: a.cfg.BSSID, Addr2: addr(i), Addr3: a.cfg.BSSID},
			Ports:  ports,
		}).AppendTo(nil)
		a.Receive(readFrame(raw, dot11.Rate1Mbps), now)
	}
	steps := []struct {
		name      string
		wantStale bool
		mutate    func()
	}{
		{"initial-rebuild", true, func() {}},
		{"idle-patch", false, func() {}},
		{"port-table-update", true, func() {
			a.Table().UpdateAt(aids[0], []uint16{8080}, now)
		}},
		{"idle-patch-after-update", false, func() {}},
		{"port-message-changed-refresh", true, func() {
			portMsg(0, 8080, 8081)
		}},
		{"port-message-unchanged-refresh", false, func() {
			// The same set, reordered and with a duplicate: only the
			// TTL clock moves, so the cached beacon is patched.
			portMsg(0, 8081, 8080, 8081)
			if at, _ := a.Table().RefreshedAt(aids[0]); at != now {
				t.Fatalf("unchanged refresh stamped %v, want %v", at, now)
			}
		}},
		{"port-table-remove", true, func() {
			a.Table().Remove(aids[1])
		}},
		{"port-table-expiry", true, func() {
			// aids[2] and aids[3] still carry their zero refresh stamp.
			if n := len(a.Table().ExpireBefore(50 * time.Millisecond)); n == 0 {
				t.Fatal("expiry swept no entries")
			}
		}},
		{"station-add", true, func() {
			var err error
			lateAID, err = a.Associate(addr(9), true)
			if err != nil {
				t.Fatalf("late associate: %v", err)
			}
		}},
		{"unicast-enqueue", true, func() {
			if err := a.EnqueueUnicast(addr(9), dot11.UDPDatagram{DstPort: 4000}, dot11.Rate11Mbps); err != nil {
				t.Fatalf("enqueue unicast: %v", err)
			}
		}},
		{"ps-poll-serve", true, func() {
			poll := &dot11.PSPoll{AID: lateAID, BSSID: a.cfg.BSSID, TA: addr(9)}
			a.handlePSPoll(poll.Marshal())
			if a.Stats().PSPollsServed != 1 {
				t.Fatal("PS-Poll not served")
			}
		}},
		{"group-enqueue", true, func() {
			a.EnqueueGroup(dot11.UDPDatagram{DstPort: 5353}, dot11.Rate11Mbps)
		}},
		{"group-flush", true, func() {
			a.flushGroup()
		}},
		{"disassociate", true, func() {
			a.Disassociate(addr(9))
		}},
		{"restart", true, func() {
			a.Restart()
		}},
		{"flag-computer-set", true, func() {
			a.SetFlagComputer(func([]uint16, *porttable.Table) *dot11.VirtualBitmap {
				var b dot11.VirtualBitmap
				b.Set(1)
				return &b
			})
		}},
		{"flag-computer-cleared", true, func() {
			a.SetFlagComputer(nil)
		}},
		{"idle-patch-final", false, func() {}},
	}

	for _, s := range steps {
		s.mutate()
		if stale := cacheStale(a); stale != s.wantStale {
			t.Fatalf("%s: cache stale = %v, want %v", s.name, stale, s.wantStale)
		}
		for _, isDTIM := range []bool{true, false} {
			got, want := encodeBoth(a, now, isDTIM)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (DTIM=%v): cached beacon differs from from-scratch rebuild\n got %x\nwant %x",
					s.name, isDTIM, got, want)
			}
		}
		if s.name == "flag-computer-set" && !cacheStale(a) {
			t.Fatal("flag-computer-set: stateful flag computer must keep the cache invalid")
		}
		now += a.cfg.BeaconInterval
	}
}

// TestAllocBudgetPortMessageReceive pins the AP's side of a warm port
// refresh at one allocation: reading the message into the AP's
// scratch, the unchanged table refresh and encoding the ACK allocate
// nothing, which leaves the medium's injection copy of the ACK. No
// station is attached, so the ACK's delivery is a drop.
func TestAllocBudgetPortMessageReceive(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 1)
	a := New(eng, med, Config{BSSID: bssid, SSID: "t", HIDE: true})
	aid, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	raw := (&dot11.UDPPortMessage{
		Header: dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		Ports:  []uint16{53, 5353},
	}).AppendTo(nil)
	f := readFrame(raw, dot11.Rate1Mbps)
	receive := func() {
		a.Receive(f, eng.Now())
		eng.Step() // the ACK's delivery
	}
	receive() // the first message creates the table entry
	gen := a.Table().Gen()
	if allocs := testing.AllocsPerRun(200, receive); allocs > 1 {
		t.Fatalf("warm port-message receive and ACK: %.1f allocs/op, want <= 1 (injection copy only)", allocs)
	}
	if st := a.Stats(); st.PortMsgsReceived != 202 || st.ACKsSent != 202 {
		t.Fatalf("received %d, ACKed %d; want 202, 202", st.PortMsgsReceived, st.ACKsSent)
	}
	if a.Table().Gen() != gen || !a.Table().Listening(5353, aid) {
		t.Fatal("unchanged refreshes moved the table generation or lost the entry")
	}
}
