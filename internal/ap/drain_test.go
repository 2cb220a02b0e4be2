package ap

import (
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
	"repro/internal/sim"
)

// disassocSniffer records disassociation frames delivered to one
// station address.
type disassocSniffer struct {
	disassocs []*dot11.Disassoc
}

func (s *disassocSniffer) Receive(f *medium.Frame, _ time.Duration) {
	if f.Kind != dot11.KindDisassoc {
		return
	}
	if d, err := dot11.UnmarshalDisassoc(f.Raw); err == nil {
		s.disassocs = append(s.disassocs, d)
	}
}

func TestDrainRejectsNewAssociations(t *testing.T) {
	eng, med, a, _ := rig(t, Config{HIDE: true})
	sn2 := &assocSniffer{}
	med.Attach(c2Addr, sn2)
	a.BeginDrain()
	if !a.Draining() {
		t.Fatal("Draining false after BeginDrain")
	}
	req := &dot11.AssocRequest{
		Header:      dot11.MACHeader{Addr1: bssid, Addr2: c2Addr, Addr3: bssid},
		SSID:        "test",
		HIDECapable: true,
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	eng.MustScheduleAt(time.Millisecond, func(now time.Duration) {
		a.Receive(readFrame(raw, dot11.Rate1Mbps), now)
	})
	eng.RunUntil(10 * time.Millisecond)
	if len(sn2.resps) != 1 {
		t.Fatalf("got %d assoc responses, want 1", len(sn2.resps))
	}
	if sn2.resps[0].Status != dot11.StatusAPFull {
		t.Fatalf("draining AP answered status %d, want StatusAPFull", sn2.resps[0].Status)
	}
	if a.Stats().AssocsRejectedDraining != 1 {
		t.Fatalf("AssocsRejectedDraining = %d, want 1", a.Stats().AssocsRejectedDraining)
	}
	if len(a.ClientList()) != 0 {
		t.Fatal("draining AP recorded an association")
	}
}

// assocSniffer records association responses.
type assocSniffer struct {
	resps []*dot11.AssocResponse
}

func (s *assocSniffer) Receive(f *medium.Frame, _ time.Duration) {
	if f.Kind != dot11.KindAssocResponse {
		return
	}
	if r, err := dot11.UnmarshalAssocResponse(f.Raw); err == nil {
		s.resps = append(s.resps, r)
	}
}

func TestDisassociateAllSendsFramesInAIDOrder(t *testing.T) {
	eng := sim.New()
	med := medium.New(eng, 42)
	a := New(eng, med, Config{BSSID: bssid, SSID: "test", HIDE: true})

	sn1, sn2 := &disassocSniffer{}, &disassocSniffer{}
	med.Attach(c1Addr, sn1)
	med.Attach(c2Addr, sn2)
	aid1, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Associate(c2Addr, true); err != nil {
		t.Fatal(err)
	}
	a.Table().Update(aid1, []uint16{5353})

	var sent int
	eng.MustScheduleAt(time.Millisecond, func(time.Duration) {
		sent = a.DisassociateAll(dot11.ReasonUnspecified)
	})
	eng.RunUntil(10 * time.Millisecond)

	if sent != 2 {
		t.Fatalf("DisassociateAll sent %d frames, want 2", sent)
	}
	if a.Stats().DisassocsSent != 2 {
		t.Fatalf("DisassocsSent = %d, want 2", a.Stats().DisassocsSent)
	}
	for name, sn := range map[string]*disassocSniffer{"c1": sn1, "c2": sn2} {
		if len(sn.disassocs) != 1 {
			t.Fatalf("%s received %d disassoc frames, want 1", name, len(sn.disassocs))
		}
		d := sn.disassocs[0]
		if d.Header.Addr2 != bssid || d.Header.Addr3 != bssid {
			t.Fatalf("%s disassoc not from BSSID: %+v", name, d.Header)
		}
	}
	if len(a.ClientList()) != 0 {
		t.Fatal("clients remain after DisassociateAll")
	}
	if a.Table().Len() != 0 {
		t.Fatal("port table not flushed by DisassociateAll")
	}
}

func TestClientListSortedAndAIDOf(t *testing.T) {
	_, _, a, _ := rig(t, Config{HIDE: true})
	if _, ok := a.AIDOf(c1Addr); ok {
		t.Fatal("AIDOf reported an unassociated station")
	}
	aid1, err := a.Associate(c1Addr, true)
	if err != nil {
		t.Fatal(err)
	}
	aid2, err := a.Associate(c2Addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := a.AIDOf(c1Addr); !ok || got != aid1 {
		t.Fatalf("AIDOf(c1) = %d,%v want %d", got, ok, aid1)
	}
	list := a.ClientList()
	if len(list) != 2 {
		t.Fatalf("ClientList len = %d, want 2", len(list))
	}
	if list[0].AID != aid1 || list[1].AID != aid2 {
		t.Fatalf("ClientList not AID-ordered: %+v", list)
	}
	if !list[0].HIDECapable || list[1].HIDECapable {
		t.Fatalf("HIDECapable flags wrong: %+v", list)
	}
}
