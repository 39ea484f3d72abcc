package dsm

import (
	"math"
	"testing"
)

// TestStampHolds: a stamp holds exactly while the same array holds the
// same elements. Every sparse writer moves it — also one that rewrites
// a value with itself, the version counts writes — and so does a write
// through a dense array's live views, which no counter sees.
func TestStampHolds(t *testing.T) {
	sparse := func() *DistArray {
		a := NewSparse("s", 4, 5)
		a.SetAt(1.5, 1, 2)
		a.SetAt(-2, 3, 4)
		return a
	}
	dense := func() *DistArray {
		a := NewDense("d", 3, 4)
		a.SetAt(math.NaN(), 0, 0) // NaN != NaN: the compare is on bits
		a.SetAt(2.5, 1, 2)
		return a
	}
	for _, tc := range []struct {
		name   string
		mk     func() *DistArray
		write  func(a *DistArray)
		stands bool
	}{
		{"sparse: reads", sparse, func(a *DistArray) {
			a.At(1, 2)
			a.Vec(2)
			a.Entries()
			a.CoordCounts(0)
			a.ExtractRange(0, 1, 3)
			if _, err := a.Encode(); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"sparse: SetAt", sparse, func(a *DistArray) { a.SetAt(7, 0, 0) }, false},
		{"sparse: SetAt of the value already there", sparse, func(a *DistArray) { a.SetAt(1.5, 1, 2) }, false},
		{"sparse: SetAt(0) deleting", sparse, func(a *DistArray) { a.SetAt(0, 1, 2) }, false},
		{"sparse: AddAt", sparse, func(a *DistArray) { a.AddAt(1, 1, 2) }, false},
		{"sparse: Map", sparse, func(a *DistArray) { a.Map(func(v float64) float64 { return 2 * v }) }, false},
		{"sparse: MapIndex", sparse, func(a *DistArray) { a.MapIndex(func(_ []int64, v float64) float64 { return v + 1 }) }, false},
		{"sparse: a partition written back", sparse, func(a *DistArray) { a.ExtractRange(0, 1, 2).WriteBack(a) }, false},
		{"dense: reads", dense, func(a *DistArray) { a.At(1, 2); a.Vec(2); a.DenseData() }, true},
		{"dense: SetAt of the value already there", dense, func(a *DistArray) { a.SetAt(2.5, 1, 2) }, true},
		{"dense: SetAt", dense, func(a *DistArray) { a.SetAt(3, 1, 2) }, false},
		{"dense: a write through Vec", dense, func(a *DistArray) { a.Vec(3)[1] = 9 }, false},
		{"dense: -0 over +0 through DenseData", dense, func(a *DistArray) { d, _ := a.DenseData(); d[6] = math.Copysign(0, -1) }, false},
		{"dense: Map", dense, func(a *DistArray) { a.Map(func(v float64) float64 { return v + 1 }) }, false},
	} {
		a := tc.mk()
		st := a.Stamp()
		if !st.Holds(a) {
			t.Errorf("%s: a fresh stamp does not hold", tc.name)
		}
		tc.write(a)
		if got := st.Holds(a); got != tc.stands {
			t.Errorf("%s: stamp holds = %v, want %v", tc.name, got, tc.stands)
		}
		if st.Holds(a.Clone()) {
			t.Errorf("%s: a stamp holds for a clone", tc.name)
		}
	}
	if (Stamp{}).Holds(nil) || (Stamp{}).Holds(sparse()) {
		t.Error("the zero stamp holds for something")
	}
	// A deserialized array is another array.
	a := sparse()
	blob, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArray(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stamp().Holds(b) {
		t.Error("a stamp holds for the array's decoded copy")
	}
}
