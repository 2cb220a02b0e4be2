package ap

import (
	"slices"
	"testing"

	"repro/internal/dot11"
)

// assocFrame is the request a station at c1Addr sends: an association,
// or a reassociation naming the AP it leaves, with ports as its Open
// UDP Ports element (present even when empty).
func assocFrame(t *testing.T, reassoc bool, ports []uint16) []byte {
	t.Helper()
	raw, err := (&dot11.AssocRequest{
		Header:    dot11.MACHeader{Addr1: bssid, Addr2: c1Addr, Addr3: bssid},
		Reassoc:   reassoc,
		CurrentAP: dot11.MACAddr{2, 0, 0, 0, 0, 9},
		SSID:      "test",
		Ports:     ports,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAssocSeedingRule pins how a (re)association request seeds the
// Client UDP Port Table of an AP that already holds an entry for the
// client. An association request's Open UDP Ports element replaces the
// entry and is exported through SetPortSync even when empty. A
// reassociation request does that only with a non-empty set; otherwise
// the distribution system's replicated set (SetRoamPortLookup) seeds
// the entry, counted in PortsSeededOnRoam and not exported again. A
// stock AP keeps no port state from either. The ESS's distribution-
// system record counts depend on exactly this difference.
func TestAssocSeedingRule(t *testing.T) {
	stale := []uint16{123}
	replicated := []uint16{1900, 5353}
	for _, c := range []struct {
		name      string
		legacy    bool
		reassoc   bool
		ports     []uint16 // the request's element
		wantTable []uint16 // the entry afterwards (nil: none)
		wantSync  [][]uint16
		wantRoam  int // lookups and PortsSeededOnRoam
	}{
		{name: "association with ports", ports: []uint16{53, 17500},
			wantTable: []uint16{53, 17500}, wantSync: [][]uint16{{53, 17500}}},
		{name: "association with empty element", ports: []uint16{},
			wantTable: nil, wantSync: [][]uint16{{}}},
		{name: "reassociation with empty element", reassoc: true, ports: []uint16{},
			wantTable: replicated, wantRoam: 1},
		{name: "reassociation with ports", reassoc: true, ports: []uint16{53},
			wantTable: []uint16{53}, wantSync: [][]uint16{{53}}},
		{name: "non-HIDE AP", legacy: true, reassoc: true, ports: []uint16{},
			wantTable: stale},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, med, a, sn := rig(t, Config{HIDE: !c.legacy})
			aid, err := a.Associate(c1Addr, true)
			if err != nil {
				t.Fatal(err)
			}
			a.Table().Update(aid, stale)
			var synced [][]uint16
			a.SetPortSync(func(addr dot11.MACAddr, ports []uint16) {
				if addr != c1Addr {
					t.Errorf("SetPortSync for %v, want %v", addr, c1Addr)
				}
				synced = append(synced, append([]uint16{}, ports...))
			})
			lookups := 0
			a.SetRoamPortLookup(func(dot11.MACAddr) []uint16 {
				lookups++
				return replicated
			})

			med.Transmit(c1Addr, assocFrame(t, c.reassoc, c.ports), dot11.Rate1Mbps)
			eng.Run()

			if got := a.Table().Ports(aid); !slices.Equal(got, c.wantTable) || (got == nil) != (c.wantTable == nil) {
				t.Errorf("table entry = %v, want %v", got, c.wantTable)
			}
			if len(synced) != len(c.wantSync) {
				t.Fatalf("SetPortSync calls = %v, want %v", synced, c.wantSync)
			}
			for i := range synced {
				if !slices.Equal(synced[i], c.wantSync[i]) {
					t.Errorf("SetPortSync call %d = %v, want %v", i, synced[i], c.wantSync[i])
				}
			}
			if lookups != c.wantRoam {
				t.Errorf("roam lookups = %d, want %d", lookups, c.wantRoam)
			}
			if got, want := a.Stats().PortsSeededOnRoam, c.wantRoam*len(replicated); got != want {
				t.Errorf("PortsSeededOnRoam = %d, want %d", got, want)
			}
			wantKind, assocs, reassocs := dot11.KindAssocResponse, 1, 0
			if c.reassoc {
				wantKind, assocs, reassocs = dot11.KindReassocResponse, 0, 1
			}
			if !slices.Equal(sn.responses, []dot11.FrameKind{wantKind}) {
				t.Errorf("responses = %v, want [%v]", sn.responses, wantKind)
			}
			if s := a.Stats(); s.AssocResponses != assocs || s.Reassociations != reassocs {
				t.Errorf("AssocResponses, Reassociations = %d, %d; want %d, %d", s.AssocResponses, s.Reassociations, assocs, reassocs)
			}
			if a.clients[c1Addr].aid != aid {
				t.Error("the request changed the client's AID")
			}
		})
	}
}
