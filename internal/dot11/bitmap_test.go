package dot11

import (
	"testing"
	"testing/quick"
)

func TestVirtualBitmapSetGetClear(t *testing.T) {
	var v VirtualBitmap
	if v.Any() {
		t.Fatal("zero bitmap reports Any")
	}
	for _, aid := range []AID{1, 7, 8, 9, 100, 2007} {
		v.Set(aid)
		if !v.Get(aid) {
			t.Errorf("Get(%d) = false after Set", aid)
		}
	}
	if v.Count() != 6 {
		t.Errorf("Count = %d, want 6", v.Count())
	}
	v.Clear(8)
	if v.Get(8) {
		t.Error("Get(8) = true after Clear")
	}
	if !v.Get(7) || !v.Get(9) {
		t.Error("Clear(8) disturbed neighbouring bits")
	}
}

func TestVirtualBitmapOutOfRange(t *testing.T) {
	var v VirtualBitmap
	v.Set(MaxAID + 1)
	if v.Any() {
		t.Fatal("Set beyond MaxAID changed the bitmap")
	}
	if v.Get(MaxAID + 1) {
		t.Fatal("Get beyond MaxAID returned true")
	}
}

func TestVirtualBitmapReset(t *testing.T) {
	var v VirtualBitmap
	for aid := AID(1); aid <= 64; aid++ {
		v.Set(aid)
	}
	v.Reset()
	if v.Any() || v.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
	off, pm := v.Compress()
	if off != 0 || len(pm) != 1 || pm[0] != 0 {
		t.Fatalf("empty bitmap compressed to offset=%d partial=%v", off, pm)
	}
}

func TestCompressTrimsLeadingAndTrailing(t *testing.T) {
	var v VirtualBitmap
	// AIDs 33 and 40: octets 4 and 5. Leading zero octets 0..3 trim to
	// an even offset of 4; nothing follows octet 5.
	v.Set(33)
	v.Set(40)
	off, pm := v.Compress()
	if off != 4 {
		t.Errorf("offset = %d, want 4", off)
	}
	if len(pm) != 2 {
		t.Errorf("partial bitmap length = %d, want 2", len(pm))
	}
	if off%2 != 0 {
		t.Error("offset must be even (Figure 5)")
	}
}

func TestCompressOddLeadingRoundsDown(t *testing.T) {
	var v VirtualBitmap
	v.Set(24) // octet 3: three leading zero octets round down to offset 2
	off, pm := v.Compress()
	if off != 2 {
		t.Errorf("offset = %d, want 2 (N1 rounded down to even)", off)
	}
	if len(pm) != 2 || pm[0] != 0 {
		t.Errorf("partial = %v, want leading zero octet then data", pm)
	}
}

func TestDecompressRejectsOverflow(t *testing.T) {
	if _, err := Decompress(250, make([]byte, 10)); err == nil {
		t.Fatal("Decompress accepted a bitmap past capacity")
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(aids []uint16) bool {
		var v VirtualBitmap
		for _, a := range aids {
			v.Set(AID(a % 2008))
		}
		off, pm := v.Compress()
		if off%2 != 0 {
			return false
		}
		got, err := Decompress(off, pm)
		if err != nil {
			return false
		}
		for aid := AID(0); aid <= MaxAID; aid++ {
			if got.Get(aid) != v.Get(aid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesSetBitsProperty(t *testing.T) {
	f := func(aids []uint16) bool {
		var v VirtualBitmap
		uniq := map[AID]bool{}
		for _, a := range aids {
			aid := AID(a % 2008)
			v.Set(aid)
			uniq[aid] = true
		}
		return v.Count() == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAIDsMatchesGetProperty: AppendAIDs lists exactly the AIDs
// Get reports set, in ascending order, after the given prefix.
func TestAppendAIDsMatchesGetProperty(t *testing.T) {
	f := func(set, cleared []uint16) bool {
		var v VirtualBitmap
		for _, a := range set {
			v.Set(AID(a % 2008))
		}
		for _, a := range cleared {
			v.Clear(AID(a % 2008))
		}
		got := v.AppendAIDs([]AID{9999})
		var want []AID
		for aid := AID(0); aid <= MaxAID; aid++ {
			if v.Get(aid) {
				want = append(want, aid)
			}
		}
		if len(got) != len(want)+1 || got[0] != 9999 {
			return false
		}
		for i, aid := range want {
			if got[i+1] != aid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
