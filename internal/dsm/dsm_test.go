package dsm

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	a := NewDense("W", 4, 6)
	a.SetAt(3.5, 2, 5)
	if got := a.At(2, 5); got != 3.5 {
		t.Fatalf("At = %v, want 3.5", got)
	}
	a.AddAt(1.5, 2, 5)
	if got := a.At(2, 5); got != 5 {
		t.Fatalf("AddAt result = %v, want 5", got)
	}
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
}

func TestSparseBasics(t *testing.T) {
	a := NewSparse("Z", 100, 100)
	a.SetAt(1, 3, 7)
	a.SetAt(2, 99, 0)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if a.At(3, 7) != 1 || a.At(0, 0) != 0 {
		t.Fatal("sparse reads wrong")
	}
	a.SetAt(0, 3, 7) // writing zero deletes
	if a.Len() != 1 {
		t.Fatalf("Len after zero-write = %d, want 1", a.Len())
	}
}

func TestVecIsContiguousView(t *testing.T) {
	a := NewDense("W", 3, 5)
	v := a.Vec(2) // W[:, 2]
	v[0], v[1], v[2] = 10, 20, 30
	if a.At(0, 2) != 10 || a.At(1, 2) != 20 || a.At(2, 2) != 30 {
		t.Fatal("Vec must be a live view into dense storage")
	}
}

func TestVecSparseCopies(t *testing.T) {
	a := NewSparse("S", 3, 5)
	a.SetAt(7, 1, 2)
	v := a.Vec(2)
	if v[1] != 7 || v[0] != 0 {
		t.Fatalf("sparse Vec = %v", v)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	a := NewDense("A", 3, 4, 5)
	f := func(i, j, k uint8) bool {
		idx := []int64{int64(i) % 3, int64(j) % 4, int64(k) % 5}
		off := a.Flatten(idx...)
		back := a.Unflatten(off)
		return back[0] == idx[0] && back[1] == idx[1] && back[2] == idx[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachDeterministicOrder(t *testing.T) {
	a := NewSparse("Z", 10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		a.SetAt(rng.Float64()+0.1, int64(rng.Intn(10)), int64(rng.Intn(10)))
	}
	var first, second []int64
	a.ForEach(func(idx []int64, _ float64) { first = append(first, a.Flatten(idx...)) })
	a.ForEach(func(idx []int64, _ float64) { second = append(second, a.Flatten(idx...)) })
	if len(first) != len(second) {
		t.Fatal("lengths differ")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("ForEach order is not deterministic")
		}
	}
}

func TestMapAndHistogram(t *testing.T) {
	a := NewSparse("Z", 4, 4)
	a.SetAt(1, 0, 0)
	a.SetAt(2, 0, 1)
	a.SetAt(3, 2, 1)
	a.Map(func(v float64) float64 { return v * 2 })
	if a.At(2, 1) != 6 {
		t.Fatalf("Map broken: %v", a.At(2, 1))
	}
	h := a.CoordCounts(0)[0]
	if h[0] != 2 || h[2] != 1 || h[1] != 0 {
		t.Fatalf("CoordCounts(0) = %v", h)
	}
	h1 := a.CoordCounts(1)[0]
	if h1[1] != 2 || h1[0] != 1 {
		t.Fatalf("CoordCounts(1) = %v", h1)
	}
}

func TestGroupBy(t *testing.T) {
	a := NewSparse("Z", 4, 4)
	a.SetAt(1, 0, 3)
	a.SetAt(1, 2, 3)
	a.SetAt(1, 2, 0)
	g := a.GroupBy(1)
	if len(g[3]) != 2 || len(g[0]) != 1 {
		t.Fatalf("GroupBy = %v", g)
	}
}

func TestPermuteAndRandomize(t *testing.T) {
	a := NewSparse("Z", 3, 2)
	a.SetAt(5, 0, 0)
	a.SetAt(7, 2, 1)
	perm := []int64{2, 0, 1}
	b := a.Permute(0, perm)
	if b.At(2, 0) != 5 || b.At(1, 1) != 7 {
		t.Fatal("Permute broken")
	}
	rng := rand.New(rand.NewSource(9))
	c, p := a.Randomize(0, rng)
	// Each original entry appears at its permuted coordinate.
	if c.At(p[0], 0) != 5 || c.At(p[2], 1) != 7 {
		t.Fatal("Randomize broken")
	}
	if c.Len() != a.Len() {
		t.Fatal("Randomize changed entry count")
	}
}

func TestPartitionRoundTripDense(t *testing.T) {
	a := NewDense("W", 3, 10)
	rng := rand.New(rand.NewSource(2))
	a.FillRandn(rng, 1)
	orig := a.Clone()
	parts := a.EqualRangePartitions(1, 4)
	// Zero the array, write every partition back, expect the original.
	for i := range a.dense {
		a.dense[i] = 0
	}
	for _, p := range parts {
		p.WriteBack(a)
	}
	for i := range a.dense {
		if a.dense[i] != orig.dense[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestPartitionRoundTripSparse(t *testing.T) {
	a := NewSparse("Z", 9, 7)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		a.SetAt(rng.Float64()+0.5, int64(rng.Intn(9)), int64(rng.Intn(7)))
	}
	orig := a.Clone()
	parts := a.EqualRangePartitions(0, 3)
	b := NewSparse("Z", 9, 7)
	for _, p := range parts {
		p.WriteBack(b)
	}
	if b.Len() != orig.Len() {
		t.Fatalf("entry count %d != %d", b.Len(), orig.Len())
	}
	orig.ForEach(func(idx []int64, v float64) {
		if b.At(idx...) != v {
			t.Fatalf("mismatch at %v", idx)
		}
	})
}

// TestPartitionsRoundTrip: none, one or several partitions of a dense or
// sparse array — an empty range among them — come back from one blob
// bit for bit.
func TestPartitionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dense, sparse := NewDense("H", 3, 12), NewSparse("z", 5, 12)
	dense.FillRandn(rng, 1)
	for i := 0; i < 25; i++ {
		sparse.SetAt(rng.Float64()+0.5, int64(rng.Intn(5)), int64(rng.Intn(12)))
	}
	for _, a := range []*DistArray{dense, sparse} {
		parts := a.RangePartitions(1, 4, []int64{3, 3, 8})
		for _, ps := range [][]*Partition{nil, parts[:1], parts} {
			blob, err := EncodePartitions(ps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodePartitions(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ps) {
				t.Fatalf("%s: %d partitions came back of %d", a.Name(), len(got), len(ps))
			}
			for i, p := range got {
				want := ps[i]
				same := p.Array == want.Array && p.Dim == want.Dim && p.Lo == want.Lo && p.Hi == want.Hi &&
					slices.Equal(p.Local.Dims(), want.Local.Dims()) && p.Local.Len() == want.Local.Len()
				want.Local.ForEach(func(idx []int64, v float64) {
					same = same && math.Float64bits(p.Local.At(idx...)) == math.Float64bits(v)
				})
				if !same {
					t.Errorf("%s: partition %d [%d,%d) came back as [%d,%d) or with other contents", a.Name(), i, want.Lo, want.Hi, p.Lo, p.Hi)
				}
			}
		}
	}
}

// TestRangePartitionsEqualsExtractRange: a sparse array's one-walk split
// yields, for random extents, entries, dimension and cuts (empty and
// repeated ones included), exactly the partitions that one ExtractRange
// per range yields, and writing them back restores the array.
func TestRangePartitionsEqualsExtractRange(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	entries := func(a *DistArray) map[int64]float64 {
		m := map[int64]float64{}
		a.ForEach(func(idx []int64, v float64) { m[a.Flatten(idx...)] = v })
		return m
	}
	for trial := 0; trial < 200; trial++ {
		dims := make([]int64, 1+rng.Intn(3))
		for d := range dims {
			dims[d] = int64(1 + rng.Intn(9))
		}
		a := NewSparse("z", dims...)
		idx := make([]int64, len(dims))
		for n := rng.Intn(40); n > 0; n-- {
			for d := range idx {
				idx[d] = rng.Int63n(dims[d])
			}
			a.SetAt(rng.NormFloat64(), idx...)
		}
		dim, parts := rng.Intn(len(dims)), 1+rng.Intn(5)
		cuts := make([]int64, parts-1)
		for k := range cuts {
			cuts[k] = rng.Int63n(dims[dim] + 1) // 0 and the extent: empty first and last ranges
		}
		slices.Sort(cuts)
		got := a.RangePartitions(dim, parts, cuts)
		back := NewSparse("z", dims...)
		lo := int64(0)
		for k, p := range got {
			hi := dims[dim]
			if k < parts-1 {
				hi = cuts[k]
			}
			want := a.ExtractRange(dim, lo, hi)
			if p.Dim != want.Dim || p.Lo != want.Lo || p.Hi != want.Hi || !slices.Equal(p.Local.Dims(), want.Local.Dims()) ||
				!maps.Equal(entries(p.Local), entries(want.Local)) {
				t.Fatalf("trial %d: dims %v cut along %d at %v: part %d = [%d,%d) %v %v, want [%d,%d) %v %v", trial, dims, dim, cuts, k,
					p.Lo, p.Hi, p.Local.Dims(), entries(p.Local), want.Lo, want.Hi, want.Local.Dims(), entries(want.Local))
			}
			p.WriteBack(back)
			lo = hi
		}
		if !maps.Equal(entries(back), entries(a)) {
			t.Fatalf("trial %d: writing the parts back gave %v, want %v", trial, entries(back), entries(a))
		}
	}
}

func TestPartitionGlobalCoords(t *testing.T) {
	a := NewDense("W", 2, 10)
	a.SetAt(42, 1, 7)
	parts := a.EqualRangePartitions(1, 2)
	p := parts[1] // covers columns 5..9
	if !p.Contains(7) || p.Contains(3) {
		t.Fatal("Contains broken")
	}
	if got := p.At(1, 7); got != 42 {
		t.Fatalf("global At = %v, want 42", got)
	}
	p.SetAt(43, 1, 7)
	p.WriteBack(a)
	if a.At(1, 7) != 43 {
		t.Fatal("global SetAt + WriteBack broken")
	}
}

// TestPartitionAccessAllocFree: At and SetAt resolve global
// coordinates against the partition's local storage without building a
// rebased copy of the tuple — for dense and sparse partitions, with the
// caller's tuple left as passed and the fault naming the rebased
// coordinate as before.
func TestPartitionAccessAllocFree(t *testing.T) {
	for _, a := range []*DistArray{NewDense("W", 2, 10), NewSparse("z", 2, 10)} {
		a.SetAt(42, 1, 7)
		p := a.EqualRangePartitions(1, 2)[1] // covers columns 5..9
		idx := []int64{1, 7}
		var got float64
		allocs := testing.AllocsPerRun(100, func() {
			p.SetAt(p.At(idx...)+1, idx...)
			got = p.At(1, 7)
		})
		if allocs != 0 {
			t.Errorf("%s: At/SetAt on a partition allocate %v times per call pair, want 0", a.Name(), allocs)
		}
		if got != 42+101 || idx[0] != 1 || idx[1] != 7 {
			t.Errorf("%s: element = %v after 101 increments of 42 (tuple now %v)", a.Name(), got, idx)
		}
		func() {
			defer func() {
				want := "dsm: " + a.Name() + ": index -3 out of bounds [0,5) at dim 1"
				if r := recover(); r != want {
					t.Errorf("%s: out-of-partition read: %v, want %q", a.Name(), r, want)
				}
			}()
			p.At(1, 2)
		}()
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	a := NewSparse("Z", 5, 5)
	a.SetAt(1.25, 4, 4)
	a.SetAt(-2, 0, 3)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArray(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "Z" || b.At(4, 4) != 1.25 || b.At(0, 3) != -2 {
		t.Fatal("array serialization round trip failed")
	}

	d := NewDense("W", 2, 3)
	d.SetAt(9, 1, 2)
	p := d.ExtractRange(1, 1, 3)
	pdata, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodePartition(pdata)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lo != 1 || p2.Hi != 3 || p2.At(1, 2) != 9 {
		t.Fatal("partition serialization round trip failed")
	}
}

func TestBufferFlushAppliesUDFOncePerElement(t *testing.T) {
	a := NewDense("w", 10)
	a.SetAt(1, 3)
	calls := 0
	b := NewBuffer(a, func(cur, u float64) float64 {
		calls++
		return cur + 2*u
	})
	b.Put(1, 3)
	b.Put(2, 3) // combines with previous: delta 3
	b.Put(5, 7)
	n := b.Flush(a)
	if n != 2 || calls != 2 {
		t.Fatalf("flush applied %d elements with %d UDF calls, want 2/2", n, calls)
	}
	if a.At(3) != 1+2*3 {
		t.Fatalf("a[3] = %v, want 7", a.At(3))
	}
	if a.At(7) != 2*5 {
		t.Fatalf("a[7] = %v, want 10", a.At(7))
	}
	if b.Len() != 0 || b.Writes() != 0 {
		t.Fatal("buffer not cleared after flush")
	}
}

func TestBufferMaxBuffered(t *testing.T) {
	a := NewDense("w", 10)
	b := NewBuffer(a, nil)
	b.MaxBuffered = 2
	if b.Put(1, 0) {
		t.Fatal("first Put should not demand flush")
	}
	if !b.Put(1, 1) {
		t.Fatal("second distinct Put should demand flush")
	}
}

func TestBufferTopK(t *testing.T) {
	a := NewDense("w", 10)
	b := NewBuffer(a, nil)
	b.Put(0.1, 0)
	b.Put(-5, 1)
	b.Put(2, 2)
	offs, ups := b.TopK(2)
	if len(offs) != 2 || offs[0] != 1 || ups[0] != -5 || offs[1] != 2 {
		t.Fatalf("TopK = %v %v, want largest magnitudes first", offs, ups)
	}
	if b.Len() != 1 {
		t.Fatalf("buffer should retain 1 element, has %d", b.Len())
	}
	// Remaining element still flushes.
	b.Flush(a)
	if a.At(0) != 0.1 {
		t.Fatal("remaining element lost")
	}
}

func TestBufferDrain(t *testing.T) {
	a := NewDense("w", 4)
	b := NewBuffer(a, nil)
	b.Put(1, 2)
	b.Put(3, 0)
	offs, ups := b.Drain()
	if len(offs) != 2 || offs[0] != 2 || ups[1] != 3 {
		t.Fatalf("Drain = %v %v", offs, ups)
	}
	if b.Len() != 0 {
		t.Fatal("Drain must clear the buffer")
	}
}

// Property: flushing a buffer with the Add UDF is equivalent to having
// applied every write directly.
func TestBufferEquivalenceProperty(t *testing.T) {
	f := func(writes []uint16, vals []int8) bool {
		n := len(writes)
		if len(vals) < n {
			n = len(vals)
		}
		direct := NewDense("w", 64)
		buffered := NewDense("w", 64)
		buf := NewBuffer(buffered, nil)
		for i := 0; i < n; i++ {
			idx := int64(writes[i] % 64)
			v := float64(vals[i])
			direct.AddAt(v, idx)
			buf.Put(v, idx)
		}
		buf.Flush(buffered)
		for i := int64(0); i < 64; i++ {
			if math.Abs(direct.At(i)-buffered.At(i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator("err", 4, 0)
	acc.Add(0, 1)
	acc.Add(3, 2.5)
	if got := acc.Sum(); got != 3.5 {
		t.Fatalf("Sum = %v, want 3.5", got)
	}
	maxOp := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	acc2 := NewAccumulator("max", 3, math.Inf(-1))
	acc2.Update(0, 5, maxOp)
	acc2.Update(2, 9, maxOp)
	if got := acc2.Aggregate(maxOp); got != 9 {
		t.Fatalf("max aggregate = %v", got)
	}
	acc.Reset()
	if acc.Sum() != 0 {
		t.Fatal("Reset broken")
	}
}

func TestBuilderFusedPipeline(t *testing.T) {
	text := `0 0 1.0
1 2 2.0
# comment
2 1 3.0
bad line
`
	parser := func(line string) ([]int64, float64, bool) {
		var i, j int64
		var v float64
		n, err := sscan(line, &i, &j, &v)
		if err != nil || n != 3 {
			return nil, 0, false
		}
		return []int64{i, j}, v, true
	}
	arr, err := FromReader("ratings", strings.NewReader(text), parser, 3, 3).
		Map(func(v float64) float64 { return v * 10 }).
		MapIndex(func(idx []int64, v float64) ([]int64, float64, bool) {
			if v > 25 {
				return idx, v, false // drop the 3.0 record
			}
			return idx, v + 1, true
		}).
		Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", arr.Len())
	}
	if arr.At(0, 0) != 11 || arr.At(1, 2) != 21 {
		t.Fatalf("pipeline values wrong: %v %v", arr.At(0, 0), arr.At(1, 2))
	}
}

func TestBuilderFromArray(t *testing.T) {
	a := NewSparse("x", 4, 4)
	a.SetAt(2, 1, 1)
	b, err := FromArray(a).Map(func(v float64) float64 { return v * v }).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if b.At(1, 1) != 4 {
		t.Fatal("FromArray pipeline broken")
	}
}

// sscan is a tiny fmt.Sscan wrapper avoiding the fmt import dance in
// the parser above.
func sscan(line string, i, j *int64, v *float64) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return 0, nil
	}
	var err error
	*i, err = parseI64(fields[0])
	if err != nil {
		return 0, err
	}
	*j, err = parseI64(fields[1])
	if err != nil {
		return 1, err
	}
	*v, err = parseF64(fields[2])
	if err != nil {
		return 2, err
	}
	return 3, nil
}

func parseI64(s string) (int64, error) {
	var v int64
	var neg bool
	for k, c := range s {
		if k == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, errBad
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

func parseF64(s string) (float64, error) {
	var v float64
	var seenDot bool
	frac := 0.1
	for k, c := range s {
		switch {
		case c == '.' && !seenDot:
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				v += float64(c-'0') * frac
				frac /= 10
			} else {
				v = v*10 + float64(c-'0')
			}
		default:
			_ = k
			return 0, errBad
		}
	}
	return v, nil
}

var errBad = &badErr{}

type badErr struct{}

func (*badErr) Error() string { return "bad number" }

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := NewDense("W", 3, 4)
	a.SetAt(1.5, 2, 3)
	b := NewSparse("Z", 10, 10)
	b.SetAt(-2, 9, 0)
	if err := CheckpointDir(dir, a, b); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDir(dir, "W", "Z")
	if err != nil {
		t.Fatal(err)
	}
	if restored["W"].At(2, 3) != 1.5 || restored["Z"].At(9, 0) != -2 {
		t.Fatal("checkpoint round trip lost data")
	}
	if !restored["W"].IsDense() || restored["Z"].IsDense() {
		t.Fatal("density not preserved")
	}
	if _, err := RestoreDir(dir, "missing"); err == nil {
		t.Fatal("restoring a missing checkpoint must fail")
	}
}

// TestCoordCountsAllocsIndependentOfCount is the counting twin of the
// driver's TestIterSamplesAllocsIndependentOfCount: the per-coordinate
// counts of a sparse 2D, a dense 1D and a dense 2D array equal what
// flattening with ForEach counts, from at most three allocations
// however many elements are stored.
func TestCoordCountsAllocsIndependentOfCount(t *testing.T) {
	sparse := func(nnz int) *DistArray {
		a := NewSparse("ratings", 300, 200)
		rng := rand.New(rand.NewSource(3))
		for a.Len() < nnz {
			a.SetAt(rng.Float64()+1, rng.Int63n(300), rng.Int63n(200))
		}
		return a
	}
	for _, tc := range []struct {
		name string
		a    *DistArray
		dims []int
	}{
		{"sparse 2D, 200 elements", sparse(200), []int{0, 1}},
		{"sparse 2D, 20000 elements", sparse(20000), []int{0, 1}},
		{"sparse 2D, time before space", sparse(200), []int{1, 0}},
		{"dense 1D", NewDense("samples", 5000), []int{0}},
		{"dense 2D", NewDense("grid", 30, 70), []int{1, 0}},
	} {
		want := make([][]int64, len(tc.dims))
		for k, d := range tc.dims {
			want[k] = make([]int64, tc.a.dims[d])
		}
		tc.a.ForEach(func(idx []int64, _ float64) {
			for k, d := range tc.dims {
				want[k][idx[d]]++
			}
		})
		var got [][]int64
		allocs := testing.AllocsPerRun(5, func() { got = tc.a.CoordCounts(tc.dims...) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CoordCounts(%v) differs from the flattening count", tc.name, tc.dims)
		}
		if allocs > 3 {
			t.Errorf("%s: CoordCounts allocates %v times, want at most 3", tc.name, allocs)
		}
	}
}
