// Package porttable implements the AP-side Client UDP Port Table: the
// hash table mapping an open UDP port number to the set of clients
// (AIDs) listening on it. The AP refreshes a client's entries whenever
// a UDP Port Message arrives and looks ports up at the start of every
// DTIM period (Algorithm 1).
//
// The package also reproduces the paper's delay-overhead analysis
// (Section V-B, Eqs. 25-27, Figures 11-12), which prices the table
// maintenance and lookups in terms of per-operation durations measured
// on router-class hardware.
package porttable

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dot11"
)

// Table maps UDP ports to the set of client AIDs listening on them.
// It keeps the relation once, as one listener bitmap per port, which
// is Algorithm 1's input, beside one record per client holding the
// ports its last UDP Port Message announced, so a fresh message can
// remove the stale ones. The zero value is ready to use. Table is not
// safe for concurrent use; the AP owns it from its event loop.
type Table struct {
	listeners map[uint16]*dot11.VirtualBitmap // port → listener AID bitmap
	clients   map[dot11.AID]entry
	gen       uint64 // bumped whenever the port → client mapping changes; lets callers cache derived state
	// floor is a lower bound on every refresh stamp, so ExpireBefore
	// returns at once while no entry can be stale.
	floor time.Duration
	// uniq and seen are UpdateAt's deduplication scratch: the
	// deduplicated ports, and one bit per port number (8 KiB, allocated
	// on first use) set only while a refresh is being deduplicated.
	uniq []uint16
	seen *[1 << 16 / 64]uint64
}

// entry is one client's registration: its ports, deduplicated in
// message order, and the stamp of the refresh that announced them.
type entry struct {
	ports []uint16
	at    time.Duration
}

// New returns an empty table.
func New() *Table {
	t := new(Table)
	t.init()
	return t
}

// init lazily initializes the zero value.
func (t *Table) init() {
	if t.listeners == nil {
		t.listeners = make(map[uint16]*dot11.VirtualBitmap)
		t.clients = make(map[dot11.AID]entry)
	}
}

// Gen returns the table's mutation generation: it changes exactly when
// the port → client mapping changes, so callers (the AP's beacon cache)
// can detect staleness of state derived from the table without
// subscribing to individual updates. A refresh that re-announces a
// client's stored port set only restarts its TTL clock and leaves Gen
// alone.
func (t *Table) Gen() uint64 { return t.gen }

// Update replaces the port set for a client with the ports from its
// latest UDP Port Message: the client's old ports are deleted and the
// new ports inserted, exactly the refresh the paper's Eq. 25 prices.
// Duplicate ports in the message are collapsed. The entry carries a
// zero refresh stamp; use UpdateAt when TTL expiry is in play.
func (t *Table) Update(aid dot11.AID, ports []uint16) {
	t.UpdateAt(aid, ports, 0)
}

// UpdateAt is Update with a refresh timestamp: the entry's TTL clock
// (see ExpireBefore) restarts at now. The AP stamps the virtual
// arrival time of the UDP Port Message that carried the refresh.
// Every refresh prices as deleting the old ports and inserting the new
// ones (Eq. 25), but one that re-announces the stored set changes no
// mapping: it keeps the message's port order, restarts the TTL clock
// and leaves Gen alone. An AID past dot11.MaxAID has no bit in the
// listener bitmaps, so UpdateAt ignores it.
func (t *Table) UpdateAt(aid dot11.AID, ports []uint16, now time.Duration) {
	if aid > dot11.MaxAID {
		return
	}
	t.init()
	old := t.clients[aid].ports
	uniq, same := t.dedup(ports, old)
	if same && len(old) > 0 {
		copy(old, uniq)
		t.stamp(aid, old, now)
		return
	}
	if len(old) > 0 || len(uniq) > 0 {
		t.gen++
	}
	for _, p := range old {
		t.unlisten(p, aid)
	}
	if len(uniq) == 0 {
		delete(t.clients, aid)
		return
	}
	for _, p := range uniq {
		t.listen(p, aid)
	}
	// Stored lists are never handed out (Ports copies), so the old
	// list's storage can take the new one.
	t.stamp(aid, append(old[:0], uniq...), now)
}

// listen adds aid to port's listener bitmap.
func (t *Table) listen(port uint16, aid dot11.AID) {
	bits := t.listeners[port]
	if bits == nil {
		bits = new(dot11.VirtualBitmap)
		t.listeners[port] = bits
	}
	bits.Set(aid)
}

// unlisten takes aid off port's listener bitmap, and the bitmap off
// the table with its last listener.
func (t *Table) unlisten(port uint16, aid dot11.AID) {
	if bits := t.listeners[port]; bits != nil {
		bits.Clear(aid)
		if !bits.Any() {
			delete(t.listeners, port)
		}
	}
}

// dedup collapses repeated ports, keeping first occurrences in order,
// into the table's scratch slice (valid until the next call), and
// reports whether the result is the same set as old, a stored
// (duplicate-free) list.
func (t *Table) dedup(ports, old []uint16) (uniq []uint16, same bool) {
	if t.seen == nil {
		t.seen = new([1 << 16 / 64]uint64)
	}
	seen := t.seen
	uniq = t.uniq[:0]
	for _, p := range ports {
		if seen[p/64]&(1<<(p%64)) == 0 {
			seen[p/64] |= 1 << (p % 64)
			uniq = append(uniq, p)
		}
	}
	same = len(uniq) == len(old)
	for i := 0; same && i < len(old); i++ {
		same = seen[old[i]/64]&(1<<(old[i]%64)) != 0
	}
	for _, p := range uniq {
		seen[p/64] &^= 1 << (p % 64)
	}
	t.uniq = uniq
	return uniq, same
}

// stamp stores a client's ports with its refresh time and keeps floor
// below it.
func (t *Table) stamp(aid dot11.AID, ports []uint16, now time.Duration) {
	t.clients[aid] = entry{ports: ports, at: now}
	if now < t.floor {
		t.floor = now
	}
}

// Remove drops every entry for a client (disassociation).
func (t *Table) Remove(aid dot11.AID) {
	t.Update(aid, nil)
}

// RefreshedAt returns the client's last refresh stamp and whether the
// client has any entry at all.
func (t *Table) RefreshedAt(aid dot11.AID) (time.Duration, bool) {
	e, ok := t.clients[aid]
	return e.at, ok
}

// ExpireBefore removes every client whose last refresh is strictly
// before cutoff and returns their AIDs sorted ascending. This is the
// TTL sweep the AP runs at beacon cadence: a client that crashed
// without deregistering stops refreshing, so its stale entries — which
// would otherwise inflate every other client's wakeups forever — age
// out after one TTL. While cutoff is at or below the oldest stamp the
// table has seen since its last sweep, nothing can be stale and the
// sweep returns without walking the clients.
func (t *Table) ExpireBefore(cutoff time.Duration) []dot11.AID {
	if cutoff <= t.floor {
		return nil
	}
	var stale []dot11.AID
	floor := time.Duration(math.MaxInt64)
	for aid, e := range t.clients {
		if e.at < cutoff {
			stale = append(stale, aid)
		} else {
			floor = min(floor, e.at)
		}
	}
	t.floor = floor
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, aid := range stale {
		t.Remove(aid)
	}
	return stale
}

// Lookup returns the AIDs of clients listening on port, sorted
// ascending. The returned slice is freshly allocated.
func (t *Table) Lookup(port uint16) []dot11.AID {
	if bits := t.listeners[port]; bits != nil {
		return bits.AppendAIDs(nil)
	}
	return nil
}

// OrListeners ORs the bitmap of clients listening on port into dst and
// reports whether any client listens. This is Algorithm 1's per-frame
// lookup.
func (t *Table) OrListeners(port uint16, dst *dot11.VirtualBitmap) bool {
	bits := t.listeners[port]
	if bits == nil {
		return false
	}
	dst.Or(bits)
	return true
}

// Listening reports whether the client has the port open.
func (t *Table) Listening(port uint16, aid dot11.AID) bool {
	bits := t.listeners[port]
	return bits != nil && bits.Get(aid)
}

// Ports returns the client's current open ports (the stored copy is
// not aliased).
func (t *Table) Ports(aid dot11.AID) []uint16 {
	return append([]uint16(nil), t.clients[aid].ports...)
}

// Clients returns the number of clients with at least one entry.
func (t *Table) Clients() int { return len(t.clients) }

// Len returns the number of (port, client) pairs in the table.
func (t *Table) Len() int {
	n := 0
	for _, e := range t.clients {
		n += len(e.ports)
	}
	return n
}

// OpTimings holds per-operation durations for the delay model:
// τdel, τins, τlp of Eqs. 25-26.
type OpTimings struct {
	Delete time.Duration
	Insert time.Duration
	Lookup time.Duration
}

// CalibratedARM returns operation timings calibrated to the paper's
// measurement device — a 1 GHz ARM / 512 MB Android phone standing in
// for router-class hardware (Section VI-B). The values are chosen so
// the model reproduces the paper's reported overheads: ~2.3% RTT
// increase at N=50, p=50%, 1/f=10 s, n_o=50 (Fig. 11) and <1.6% at
// n_o=100, 1/f=30 s (Fig. 12).
func CalibratedARM() OpTimings {
	return OpTimings{
		Delete: 92 * time.Microsecond,
		Insert: 92 * time.Microsecond,
		Lookup: 2 * time.Microsecond,
	}
}

// DelayParams parameterizes the Section V-B delay model.
type DelayParams struct {
	// N is the number of clients in the network.
	N int
	// HIDEFraction is p, the fraction of HIDE-enabled clients.
	HIDEFraction float64
	// PortMsgInterval is 1/f.
	PortMsgInterval time.Duration
	// OpenPorts is n_o, the average number of open UDP ports per client.
	OpenPorts int
	// BufferedFrames is n_f, the average number of broadcast frames
	// buffered per DTIM period (the paper uses 10, noting its traces
	// are all well below that).
	BufferedFrames int
	// BaselineRTT is D, the unmodified packet round-trip time (the
	// paper measured 79.5 ms to a YouTube server).
	BaselineRTT time.Duration
	// Timings prices the hash-table operations.
	Timings OpTimings
}

// SectionVDefaults returns the paper's Figure 11/12 baseline settings.
func SectionVDefaults() DelayParams {
	return DelayParams{
		N:               50,
		HIDEFraction:    0.5,
		PortMsgInterval: 10 * time.Second,
		OpenPorts:       50,
		BufferedFrames:  10,
		BaselineRTT:     79500 * time.Microsecond,
		Timings:         CalibratedARM(),
	}
}

// Validate checks the parameters.
func (p DelayParams) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("porttable: N %d < 1", p.N)
	case !(p.HIDEFraction >= 0 && p.HIDEFraction <= 1):
		return fmt.Errorf("porttable: HIDE fraction %v outside [0, 1]", p.HIDEFraction)
	case p.PortMsgInterval <= 0:
		return fmt.Errorf("porttable: non-positive port message interval")
	case p.OpenPorts < 0 || p.BufferedFrames < 0:
		return fmt.Errorf("porttable: negative port/frame counts")
	case p.BaselineRTT <= 0:
		return fmt.Errorf("porttable: non-positive baseline RTT")
	}
	return nil
}

// DelayOverhead returns the bounded fractional increase in packet
// round-trip time d = (t1 + t2)/D (Eq. 27), where t1 prices table
// refreshes (Eq. 25) and t2 prices the Algorithm 1 lookups at each
// DTIM (Eq. 26).
func DelayOverhead(p DelayParams) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	f := 1 / p.PortMsgInterval.Seconds()
	d := p.BaselineRTT.Seconds()
	t1 := f * d * float64(p.N) * p.HIDEFraction * float64(p.OpenPorts) *
		(p.Timings.Delete + p.Timings.Insert).Seconds()
	t2 := float64(p.BufferedFrames) * p.Timings.Lookup.Seconds()
	return (t1 + t2) / d, nil
}

// Figure11Point is one (interval, N) cell of Figure 11.
type Figure11Point struct {
	PortMsgInterval time.Duration
	N               int
	Overhead        float64
}

// Figure11 sweeps port-message intervals {10,30,60,150,300,600} s over
// N in {5,10,20,30,40,50} with n_o = 50 and p = 50%.
func Figure11(timings OpTimings) ([]Figure11Point, error) {
	intervals := []time.Duration{10, 30, 60, 150, 300, 600}
	ns := []int{5, 10, 20, 30, 40, 50}
	var out []Figure11Point
	for _, iv := range intervals {
		for _, n := range ns {
			p := SectionVDefaults()
			p.Timings = timings
			p.PortMsgInterval = iv * time.Second
			p.N = n
			o, err := DelayOverhead(p)
			if err != nil {
				return nil, err
			}
			out = append(out, Figure11Point{PortMsgInterval: iv * time.Second, N: n, Overhead: o})
		}
	}
	return out, nil
}

// Figure12Point is one (openPorts, N) cell of Figure 12.
type Figure12Point struct {
	OpenPorts int
	N         int
	Overhead  float64
}

// Figure12 sweeps n_o in {10,20,50,100} over N in {5,10,20,30,40,50}
// with 1/f = 30 s and p = 50%.
func Figure12(timings OpTimings) ([]Figure12Point, error) {
	ports := []int{10, 20, 50, 100}
	ns := []int{5, 10, 20, 30, 40, 50}
	var out []Figure12Point
	for _, no := range ports {
		for _, n := range ns {
			p := SectionVDefaults()
			p.Timings = timings
			p.PortMsgInterval = 30 * time.Second
			p.OpenPorts = no
			p.N = n
			o, err := DelayOverhead(p)
			if err != nil {
				return nil, err
			}
			out = append(out, Figure12Point{OpenPorts: no, N: n, Overhead: o})
		}
	}
	return out, nil
}
