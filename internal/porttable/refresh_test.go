package porttable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dot11"
)

// refTable is the reference Client UDP Port Table the refresh property
// test compares Table against: every refresh deletes the client's
// entry and reinserts the deduplicated ports, every TTL sweep scans
// every client, and every view is computed from the entries on demand.
type refTable struct {
	entries map[dot11.AID]refEntry
}

type refEntry struct {
	ports []uint16 // deduplicated, first occurrences in message order
	at    time.Duration
}

func (r *refTable) update(aid dot11.AID, ports []uint16, now time.Duration) {
	delete(r.entries, aid)
	var uniq []uint16
	for _, p := range ports {
		if !slices.Contains(uniq, p) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return
	}
	r.entries[aid] = refEntry{ports: uniq, at: now}
}

func (r *refTable) expireBefore(cutoff time.Duration) []dot11.AID {
	var stale []dot11.AID
	for aid, e := range r.entries {
		if e.at < cutoff {
			stale = append(stale, aid)
		}
	}
	slices.Sort(stale)
	for _, aid := range stale {
		r.update(aid, nil, 0)
	}
	return stale
}

// lookup is Lookup and OrListeners in one: the sorted listener AIDs and
// their bitmap.
func (r *refTable) lookup(port uint16) ([]dot11.AID, dot11.VirtualBitmap) {
	var aids []dot11.AID
	var bits dot11.VirtualBitmap
	for aid, e := range r.entries {
		if slices.Contains(e.ports, port) {
			aids = append(aids, aid)
			bits.Set(aid)
		}
	}
	slices.Sort(aids)
	return aids, bits
}

// mapping renders the port → client mapping canonically: every entry's
// AID and port set. Gen must change exactly when it does.
func (r *refTable) mapping() string {
	aids := make([]dot11.AID, 0, len(r.entries))
	for aid := range r.entries {
		aids = append(aids, aid)
	}
	slices.Sort(aids)
	out := ""
	for _, aid := range aids {
		e := r.entries[aid]
		out += fmt.Sprintf("%d:%v;", aid, sortedUint16(e.ports))
	}
	return out
}

// Universes of the refresh property test, from the first AID to the
// last.
var (
	refAIDs  = []dot11.AID{1, 10, 20, 30, dot11.MaxAID}
	refPorts = []uint16{0, 53, 67, 123, 1900, 5353, 65535}
)

// TestRefreshMatchesReference drives Table and the always-delete,
// always-scan reference through random UpdateAt, Remove and
// ExpireBefore scripts full of repeated identical refreshes and
// duplicated and reordered ports, and compares every view after every
// step: Lookup, OrListeners, Listening, Ports, RefreshedAt, Clients,
// Len and ExpireBefore's result. Gen must change exactly when the
// mapping does.
func TestRefreshMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New()
		ref := &refTable{entries: map[dot11.AID]refEntry{}}
		last := map[dot11.AID][]uint16{} // each client's last announcement
		var now time.Duration
		for step := 0; step < 150; step++ {
			aid := refAIDs[rng.Intn(len(refAIDs))]
			before, gen := ref.mapping(), tab.Gen()
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			at := now
			if rng.Intn(10) == 0 {
				at = time.Duration(rng.Intn(int(now/time.Millisecond)+1)) * time.Millisecond // an older stamp
			}
			var desc string
			switch op := rng.Intn(10); {
			case op < 6:
				ports := randomPorts(rng, last[aid])
				last[aid] = ports
				desc = fmt.Sprintf("update %d %v at %v", aid, ports, at)
				tab.UpdateAt(aid, ports, at)
				ref.update(aid, ports, at)
			case op < 7:
				desc = fmt.Sprintf("remove %d", aid)
				tab.Remove(aid)
				ref.update(aid, nil, 0)
			default:
				cutoff := now - time.Duration(rng.Intn(400))*time.Millisecond
				desc = fmt.Sprintf("expire before %v", cutoff)
				got, want := tab.ExpireBefore(cutoff), ref.expireBefore(cutoff)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): expired %v, reference %v", seed, step, desc, got, want)
				}
			}
			if changed := ref.mapping() != before; changed != (tab.Gen() != gen) {
				t.Fatalf("seed %d step %d (%s): mapping changed %v but Gen %d -> %d",
					seed, step, desc, changed, gen, tab.Gen())
			}
			if err := compareRef(tab, ref); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
			}
		}
	}
}

// randomPorts draws a port announcement: often the client's previous
// list again, verbatim or reordered with a duplicate, otherwise a fresh
// draw (possibly empty) that may repeat ports.
func randomPorts(rng *rand.Rand, prev []uint16) []uint16 {
	switch rng.Intn(4) {
	case 0:
		return prev
	case 1:
		out := slices.Clone(prev)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		if len(out) > 0 {
			out = append(out, out[rng.Intn(len(out))])
		}
		return out
	}
	out := make([]uint16, rng.Intn(6))
	for i := range out {
		out[i] = refPorts[rng.Intn(len(refPorts))]
	}
	return out
}

// compareRef reports the first view on which tab and ref disagree.
func compareRef(tab *Table, ref *refTable) error {
	for _, p := range refPorts {
		wantAIDs, wantBits := ref.lookup(p)
		if got := tab.Lookup(p); !slices.Equal(got, wantAIDs) {
			return fmt.Errorf("Lookup(%d) = %v, reference %v", p, got, wantAIDs)
		}
		var bits dot11.VirtualBitmap
		if hit := tab.OrListeners(p, &bits); hit != (len(wantAIDs) > 0) || bits != wantBits {
			return fmt.Errorf("OrListeners(%d) = %v with a different bitmap, reference %v", p, hit, wantAIDs)
		}
		for _, base := range refAIDs { // each client, and one AID either side
			for _, a := range []dot11.AID{base - 1, base, base + 1} {
				if got := tab.Listening(p, a); got != slices.Contains(ref.entries[a].ports, p) {
					return fmt.Errorf("Listening(%d, %d) = %v", p, a, got)
				}
			}
		}
	}
	pairs := 0
	for _, aid := range refAIDs {
		e, ok := ref.entries[aid]
		if got := tab.Ports(aid); !slices.Equal(got, e.ports) {
			return fmt.Errorf("Ports(%d) = %v, reference %v", aid, got, e.ports)
		}
		if at, has := tab.RefreshedAt(aid); has != ok || at != e.at {
			return fmt.Errorf("RefreshedAt(%d) = %v %v, reference %v %v", aid, at, has, e.at, ok)
		}
		pairs += len(e.ports)
	}
	if tab.Clients() != len(ref.entries) || tab.Len() != pairs {
		return fmt.Errorf("Clients/Len = %d/%d, reference %d/%d",
			tab.Clients(), tab.Len(), len(ref.entries), pairs)
	}
	return nil
}

// TestAllocBudgetRefresh pins the table's steady state at zero
// allocations: an UpdateAt that re-announces the stored set (here
// reordered, with a duplicate) and a TTL sweep with nothing stale.
func TestAllocBudgetRefresh(t *testing.T) {
	tab := New()
	for aid := dot11.AID(1); aid <= 200; aid++ {
		tab.UpdateAt(aid, []uint16{5353, uint16(6000 + aid)}, time.Second)
	}
	now := time.Second
	if allocs := testing.AllocsPerRun(200, func() {
		now += time.Millisecond
		tab.UpdateAt(7, []uint16{6007, 5353, 6007}, now)
	}); allocs != 0 {
		t.Fatalf("unchanged UpdateAt: %.1f allocs/op, want 0", allocs)
	}
	if got := tab.Ports(7); !slices.Equal(got, []uint16{6007, 5353}) {
		t.Fatalf("Ports(7) = %v, want the latest order [6007 5353]", got)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if stale := tab.ExpireBefore(time.Second); stale != nil {
			t.Fatalf("expired %v with every stamp at or after the cutoff", stale)
		}
	}); allocs != 0 {
		t.Fatalf("ExpireBefore with nothing stale: %.1f allocs/op, want 0", allocs)
	}
	if got := tab.ExpireBefore(time.Second + time.Nanosecond); len(got) != 199 {
		t.Fatalf("expired %d clients, want every client but 7", len(got))
	}
}
