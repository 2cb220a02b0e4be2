package porttable

import (
	"sort"

	"repro/internal/dot11"
)

// ArrayTable is an alternative Client UDP Port Table layout for the
// ablation study: instead of hashing, it direct-indexes a 65536-entry
// array by port number — the layout embedded router firmware tends to
// choose, trading 512 KiB-ish of memory for O(1) lookups with no hash
// or probe work on the per-DTIM Algorithm 1 path.
//
// It answers Table's lookups (Update, Remove, Lookup, Listening,
// Ports, Clients, Len) for the layout ablation benchmarks and the
// equivalence property tests; it lacks the AP's TTL stamps, listener
// bitmaps and mutation generation, so the AP runs Table.
type ArrayTable struct {
	byPort   [1 << 16][]dot11.AID
	byClient map[dot11.AID][]uint16
	size     int
}

// NewArray returns an empty ArrayTable.
func NewArray() *ArrayTable {
	return &ArrayTable{byClient: make(map[dot11.AID][]uint16)}
}

// Update replaces the port set for a client, like Table.Update.
func (t *ArrayTable) Update(aid dot11.AID, ports []uint16) {
	for _, p := range t.byClient[aid] {
		t.removeAID(p, aid)
	}
	delete(t.byClient, aid)

	if len(ports) == 0 {
		return
	}
	uniq := make([]uint16, 0, len(ports))
	seen := make(map[uint16]struct{}, len(ports))
	for _, p := range ports {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		uniq = append(uniq, p)
		t.byPort[p] = append(t.byPort[p], aid)
		t.size++
	}
	t.byClient[aid] = uniq
}

// removeAID deletes one AID from a port's list.
func (t *ArrayTable) removeAID(port uint16, aid dot11.AID) {
	list := t.byPort[port]
	for i, a := range list {
		if a == aid {
			list[i] = list[len(list)-1]
			t.byPort[port] = list[:len(list)-1]
			t.size--
			return
		}
	}
}

// Remove drops every entry for a client.
func (t *ArrayTable) Remove(aid dot11.AID) { t.Update(aid, nil) }

// Lookup returns the AIDs listening on port, sorted ascending.
func (t *ArrayTable) Lookup(port uint16) []dot11.AID {
	list := t.byPort[port]
	if len(list) == 0 {
		return nil
	}
	out := append([]dot11.AID(nil), list...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Listening reports whether the client has the port open.
func (t *ArrayTable) Listening(port uint16, aid dot11.AID) bool {
	for _, a := range t.byPort[port] {
		if a == aid {
			return true
		}
	}
	return false
}

// Ports returns the client's current open ports.
func (t *ArrayTable) Ports(aid dot11.AID) []uint16 {
	return append([]uint16(nil), t.byClient[aid]...)
}

// Clients returns the number of clients with at least one entry.
func (t *ArrayTable) Clients() int { return len(t.byClient) }

// Len returns the number of (port, client) pairs.
func (t *ArrayTable) Len() int { return t.size }
