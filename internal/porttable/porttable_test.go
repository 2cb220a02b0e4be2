package porttable

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dot11"
)

func TestZeroValueUsable(t *testing.T) {
	var tab Table
	tab.Update(1, []uint16{53, 5353})
	if !tab.Listening(53, 1) {
		t.Fatal("zero-value table did not store entries")
	}
}

func TestUpdateAndLookup(t *testing.T) {
	tab := New()
	tab.Update(1, []uint16{53, 5353})
	tab.Update(2, []uint16{5353, 1900})
	tab.Update(3, []uint16{80})

	got := tab.Lookup(5353)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Lookup(5353) = %v, want [1 2]", got)
	}
	if got := tab.Lookup(53); len(got) != 1 || got[0] != 1 {
		t.Errorf("Lookup(53) = %v, want [1]", got)
	}
	if got := tab.Lookup(9999); got != nil {
		t.Errorf("Lookup(9999) = %v, want nil", got)
	}
	if tab.Clients() != 3 {
		t.Errorf("Clients = %d, want 3", tab.Clients())
	}
	if tab.Len() != 5 {
		t.Errorf("Len = %d, want 5", tab.Len())
	}
}

func TestUpdateReplacesOldPorts(t *testing.T) {
	tab := New()
	tab.Update(7, []uint16{100, 200, 300})
	tab.Update(7, []uint16{200, 400})
	for _, c := range []struct {
		port uint16
		want bool
	}{{100, false}, {200, true}, {300, false}, {400, true}} {
		if got := tab.Listening(c.port, 7); got != c.want {
			t.Errorf("Listening(%d) = %v, want %v", c.port, got, c.want)
		}
	}
	ports := tab.Ports(7)
	if len(ports) != 2 {
		t.Errorf("Ports = %v, want 2 entries", ports)
	}
}

func TestUpdateCollapsesDuplicates(t *testing.T) {
	tab := New()
	tab.Update(1, []uint16{53, 53, 53})
	if tab.Len() != 1 {
		t.Errorf("duplicate ports stored: Len = %d", tab.Len())
	}
	if got := tab.Lookup(53); len(got) != 1 {
		t.Errorf("Lookup = %v, want one client", got)
	}
}

// TestUpdateIgnoresAIDPastMax: an AID the listener bitmaps have no bit
// for leaves every view empty, instead of a record no lookup can see.
func TestUpdateIgnoresAIDPastMax(t *testing.T) {
	tab := New()
	tab.Update(dot11.MaxAID+1, []uint16{53})
	var bits dot11.VirtualBitmap
	if tab.OrListeners(53, &bits) || tab.Clients() != 0 || tab.Len() != 0 || tab.Ports(dot11.MaxAID+1) != nil {
		t.Fatalf("AID %d stored: Clients %d, Len %d, Ports %v", dot11.MaxAID+1, tab.Clients(), tab.Len(), tab.Ports(dot11.MaxAID+1))
	}
}

func TestRemove(t *testing.T) {
	tab := New()
	tab.Update(1, []uint16{53})
	tab.Update(2, []uint16{53})
	tab.Remove(1)
	if tab.Listening(53, 1) {
		t.Error("removed client still listed")
	}
	if !tab.Listening(53, 2) {
		t.Error("Remove disturbed another client")
	}
	if tab.Clients() != 1 {
		t.Errorf("Clients = %d, want 1", tab.Clients())
	}
}

func TestTableInvariantProperty(t *testing.T) {
	// The forward (port→AIDs) and reverse (AID→ports) maps must stay
	// consistent under arbitrary update sequences.
	f := func(updates []struct {
		AID   uint16
		Ports []uint16
	}) bool {
		tab := New()
		for _, u := range updates {
			aid := dot11.AID(u.AID%100 + 1)
			ports := u.Ports
			if len(ports) > 50 {
				ports = ports[:50]
			}
			tab.Update(aid, ports)
		}
		// Every reverse entry must appear in the forward map and vice
		// versa; Len must equal the sum over clients of unique ports.
		total := 0
		for aid := dot11.AID(1); aid <= 101; aid++ {
			ports := tab.Ports(aid)
			total += len(ports)
			for _, p := range ports {
				if !tab.Listening(p, aid) {
					return false
				}
			}
		}
		return tab.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayOverheadPaperHeadlines(t *testing.T) {
	// Paper: 2.3% at 1/f = 10 s (Fig. 11 worst case) ...
	p := SectionVDefaults()
	d, err := DelayOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.023) > 0.004 {
		t.Errorf("overhead at defaults = %.2f%%, want ~2.3%%", d*100)
	}
	// ... ~0.05% at 1/f = 600 s ...
	p.PortMsgInterval = 600 * time.Second
	d, err = DelayOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.001 {
		t.Errorf("overhead at 600 s = %.3f%%, want ~0.05%%", d*100)
	}
	// ... and <1.6% at n_o = 100, 1/f = 30 s (Fig. 12 worst case).
	p = SectionVDefaults()
	p.PortMsgInterval = 30 * time.Second
	p.OpenPorts = 100
	d, err = DelayOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.016 {
		t.Errorf("overhead at n_o=100 = %.2f%%, want < 1.6%%", d*100)
	}
}

func TestDelayOverheadT1DominatesT2(t *testing.T) {
	// The paper observes t1 >> t2 at its settings.
	p := SectionVDefaults()
	full, err := DelayOverhead(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.BufferedFrames = 0
	t1Only, err := DelayOverhead(p2)
	if err != nil {
		t.Fatal(err)
	}
	t2Part := full - t1Only
	if t2Part > t1Only/10 {
		t.Errorf("t2 share %.4f%% not << t1 share %.4f%%", t2Part*100, t1Only*100)
	}
}

func TestDelayOverheadMonotone(t *testing.T) {
	base := SectionVDefaults()
	mustOverhead := func(p DelayParams) float64 {
		t.Helper()
		d, err := DelayOverhead(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d0 := mustOverhead(base)
	// More clients → more overhead.
	p := base
	p.N = 100
	if mustOverhead(p) <= d0 {
		t.Error("overhead not monotone in N")
	}
	// More frequent messages → more overhead.
	p = base
	p.PortMsgInterval = 5 * time.Second
	if mustOverhead(p) <= d0 {
		t.Error("overhead not monotone in f")
	}
	// More open ports → more overhead.
	p = base
	p.OpenPorts = 100
	if mustOverhead(p) <= d0 {
		t.Error("overhead not monotone in n_o")
	}
	// Lower HIDE penetration → less overhead.
	p = base
	p.HIDEFraction = 0.1
	if mustOverhead(p) >= d0 {
		t.Error("overhead not monotone in p")
	}
}

func TestDelayOverheadValidation(t *testing.T) {
	cases := []func(*DelayParams){
		func(p *DelayParams) { p.N = 0 },
		func(p *DelayParams) { p.HIDEFraction = -0.1 },
		func(p *DelayParams) { p.HIDEFraction = math.NaN() },
		func(p *DelayParams) { p.PortMsgInterval = 0 },
		func(p *DelayParams) { p.OpenPorts = -1 },
		func(p *DelayParams) { p.BaselineRTT = 0 },
	}
	for i, m := range cases {
		p := SectionVDefaults()
		m(&p)
		if _, err := DelayOverhead(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestFigure11Sweep(t *testing.T) {
	pts, err := Figure11(CalibratedARM())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 36 {
		t.Fatalf("Figure 11 has %d points, want 36", len(pts))
	}
	// Every series grows with N; shorter intervals dominate longer ones.
	for i, pt := range pts {
		if pt.Overhead < 0 || pt.Overhead > 0.04 {
			t.Errorf("point %d: overhead %.3f%% outside [0, 4%%]", i, pt.Overhead*100)
		}
	}
}

func TestFigure12Sweep(t *testing.T) {
	pts, err := Figure12(CalibratedARM())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 24 {
		t.Fatalf("Figure 12 has %d points, want 24", len(pts))
	}
	for i, pt := range pts {
		if pt.Overhead < 0 || pt.Overhead > 0.016 {
			t.Errorf("point %d: overhead %.3f%% outside [0, 1.6%%]", i, pt.Overhead*100)
		}
	}
}

func TestMeasureProducesPositiveTimings(t *testing.T) {
	got := Measure(50, 50, 1)
	if got.Insert <= 0 || got.Delete <= 0 || got.Lookup <= 0 {
		t.Fatalf("Measure returned non-positive timings: %+v", got)
	}
	// Sanity ceiling: even a slow CI machine does these in < 100 µs.
	if got.Insert > 100*time.Microsecond || got.Lookup > 100*time.Microsecond {
		t.Errorf("implausible timings: %+v", got)
	}
}

// TestMeasureDeletesStoredPairs: every pair a run of Measure deletes
// at its setting in delayanalysis (N=50, n_o=50) is stored in the
// table, and no run deletes a pair twice, so each timed delete removes
// an entry and each timed insert restores one.
func TestMeasureDeletesStoredPairs(t *testing.T) {
	tab, batches := measureSetup(50, 50, 1)
	if len(batches) != measureRuns {
		t.Fatalf("%d runs, want %d", len(batches), measureRuns)
	}
	for run, batch := range batches {
		if len(batch) != measureOps {
			t.Fatalf("run %d times %d pairs, want %d", run, len(batch), measureOps)
		}
		seen := map[pair]bool{}
		for _, p := range batch {
			if !tab.Listening(p.port, p.aid) || seen[p] {
				t.Fatalf("run %d deletes (port %d, AID %d): stored %v, already deleted %v",
					run, p.port, p.aid, tab.Listening(p.port, p.aid), seen[p])
			}
			seen[p] = true
		}
	}
}

// TestMeasureLeavesTableConsistent: a measured run deletes pairs and
// puts them back, so Lookup, OrListeners, Listening, Ports, Len and
// Clients read the same before and after it.
func TestMeasureLeavesTableConsistent(t *testing.T) {
	tab, batches := measureSetup(50, 50, 1)
	views := func() string {
		var b strings.Builder
		for _, batch := range batches {
			for _, p := range batch {
				var bits dot11.VirtualBitmap
				hit := tab.OrListeners(p.port, &bits)
				fmt.Fprintf(&b, "%d: %v %v %v %v; ", p.port, tab.Lookup(p.port), hit, bits.AppendAIDs(nil), tab.Listening(p.port, p.aid))
			}
		}
		for aid := dot11.AID(0); aid <= 26; aid++ {
			fmt.Fprintf(&b, "%d: %v; ", aid, tab.Ports(aid))
		}
		fmt.Fprintf(&b, "len %d clients %d", tab.Len(), tab.Clients())
		return b.String()
	}
	before := views()
	tab.measure(batches)
	if after := views(); after != before {
		t.Fatalf("a measured run changed the table:\nbefore %s\nafter  %s", before, after)
	}
}

// TestMeasureWithoutPairs: a table with no stored pair has nothing to
// time.
func TestMeasureWithoutPairs(t *testing.T) {
	if got := Measure(50, 0, 1); got != (OpTimings{}) {
		t.Fatalf("Measure with no open ports = %+v, want zero timings", got)
	}
}
