package dsm

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// TestFlatAccessorsMatchIndexTuples: AtFlat and SetFlat at Flatten(idx)
// read and write what At and SetAt do at idx, dense and sparse (where a
// zero write drops the entry), and a flattened offset outside the array
// panics as an out-of-bounds tuple does.
func TestFlatAccessorsMatchIndexTuples(t *testing.T) {
	for _, a := range []*DistArray{NewDense("A", 3, 4, 5), NewSparse("A", 3, 4, 5)} {
		for off := int64(0); off < 60; off++ {
			a.SetFlat(off, float64(off)+0.5)
		}
		a.ForEach(func(idx []int64, v float64) {
			if off := a.Flatten(idx...); v != float64(off)+0.5 || a.AtFlat(off) != a.At(idx...) {
				t.Fatalf("dense=%v: %v holds %v, AtFlat(%d) reads %v", a.IsDense(), idx, v, off, a.AtFlat(off))
			}
		})
		a.SetFlat(a.Flatten(2, 3, 4), 0)
		if a.At(2, 3, 4) != 0 || !a.IsDense() && a.Len() != 59 {
			t.Errorf("dense=%v: a zero SetFlat left %v, %d stored", a.IsDense(), a.At(2, 3, 4), a.Len())
		}
		for _, off := range []int64{-1, 60} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(r.(string), "out of bounds") {
						t.Errorf("dense=%v: AtFlat(%d) did not panic out of bounds: %v", a.IsDense(), off, r)
					}
				}()
				a.AtFlat(off)
			}()
		}
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
// sparse array — an empty range among them — come back from one list of
// records bit for bit.
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
			var records []byte
			for _, p := range ps {
				records = AppendPartition(records, p)
			}
			got, err := readRecords(records)
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

// readRecords reads records back to back, as a frame carries them,
// until none are left.
func readRecords(data []byte) ([]*Partition, error) {
	var ps []*Partition
	for r := bytes.NewReader(data); r.Len() > 0; {
		p, err := ReadPartition(r, math.MaxUint64)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// record hand-builds the record of an array named "w": the uvarints
// (rank, extents, dim, lo, hi), the layout byte, then rest.
func record(fields []uint64, layout byte, rest ...byte) []byte {
	b := []byte{1, 'w'}
	for _, f := range fields {
		b = binary.AppendUvarint(b, f)
	}
	return append(append(b, layout), rest...)
}

// floats frames vs as a record's values.
func floats(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = AppendFloat(b, v)
	}
	return b
}

// TestDecodeRejectsPayloadsOffTheirExtents: a record whose dense
// payload does not fill its extents, whose sparse offsets lie outside
// them, repeat or fall, whose extents are not positive or multiply past
// 2^63 − 1, whose range does not span its extent, that stores a zero or
// names an unknown layout, decodes to an error — through DecodeArray,
// DecodePartition and, behind a good partition, ReadPartition — not
// to an array that faults on its last element. A forged dense or sparse
// count followed by nothing costs at most one chunk of storage.
func TestDecodeRejectsPayloadsOffTheirExtents(t *testing.T) {
	good := AppendPartition(nil, NewDense("w", 4, 4).ExtractRange(1, 0, 2))
	whole4x4 := []uint64{2, 4, 4, 0, 0, 4}
	// sparse frames a sparse record of count stored elements, given as
	// (offset gap, value) pairs.
	sparse := func(fields []uint64, count uint64, pairs ...float64) []byte {
		b := binary.AppendUvarint(nil, count)
		for i := 0; i+1 < len(pairs); i += 2 {
			b = AppendFloat(binary.AppendUvarint(b, uint64(pairs[i])), pairs[i+1])
		}
		return record(fields, layoutSparse, b...)
	}
	forged := map[string][]byte{
		"forged dense count":  record([]uint64{1, 1 << 40, 0, 0, 1 << 40}, layoutDense),
		"forged sparse count": sparse([]uint64{1, 1 << 40, 0, 0, 1 << 40}, 1<<40),
	}
	cases := map[string][]byte{
		"short dense payload":     record(whole4x4, layoutDense, floats(1, 2, 3)...),
		"long dense payload":      record(whole4x4, layoutDense, floats(make([]float64, 17)...)...),
		"zero extent":             sparse([]uint64{2, 4, 0, 0, 0, 4}, 0),
		"no extents":              sparse([]uint64{0, 0, 0, 0}, 1, 1, 1),
		"extent product overflow": sparse([]uint64{2, 1 << 32, 1 << 32, 0, 0, 1 << 32}, 0),
		"range off its extent":    record([]uint64{2, 4, 4, 1, 0, 3}, layoutDense, floats(make([]float64, 16)...)...),
		"offset past extents":     sparse(whole4x4, 2, 4, 1, 13, 1),
		"negative offset":         sparse(whole4x4, 1, 0, 1),
		"zero gap":                sparse(whole4x4, 2, 4, 1, 0, 1),
		"stored zero":             sparse(whole4x4, 1, 4, 0),
		"unknown layout":          record(whole4x4, 2, floats(make([]float64, 16)...)...),
	}
	maps.Copy(cases, forged)
	for name, rec := range cases {
		for codec, decode := range map[string]func() error{
			"DecodeArray":     func() error { _, err := DecodeArray(rec); return err },
			"DecodePartition": func() error { _, err := DecodePartition(rec); return err },
			"ReadPartition":   func() error { _, err := readRecords(slices.Concat(good, rec)); return err },
		} {
			if decode() == nil {
				t.Errorf("%s: %s accepted it", name, codec)
			}
		}
	}
	// One chunk of storage is 512 KiB; a race build also allocates the
	// chunk once more while growing it.
	const bound = 3 * growChunk * 8
	for name, rec := range forged {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodePartition(rec)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > bound {
			t.Errorf("%s followed by nothing allocated %d bytes, want <= %d", name, grown, bound)
		}
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
	if b.Len() != 0 {
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

// Property: a buffer is the map it replaced — each element's combined
// update is 0 + its updates in order (a first -0 update flushes as
// +0), handed to the UDF in first-write order, bitwise, across flushes
// that reuse its slots, over a dense target and a sparse one — and
// flushing with the Add UDF is equivalent to having applied every write
// directly.
func TestBufferEquivalenceProperty(t *testing.T) {
	bits := math.Float64bits
	for _, tc := range []struct {
		name   string
		mk     func() *DistArray
		spread int64 // offsets are spread*k, k < 64
	}{
		{"dense", func() *DistArray { return NewDense("w", 64) }, 1},
		{"sparse", func() *DistArray { return NewSparse("w", 1<<20) }, 16411},
	} {
		f := func(writes []uint16, vals []int8, cycle uint8) bool {
			n := min(len(writes), len(vals))
			every := 1 + int(cycle%24) // writes per flush
			direct, buffered := tc.mk(), tc.mk()
			model := &mapModel{m: map[int64]float64{}}
			var got []float64
			buf := NewBuffer(buffered, func(cur, u float64) float64 {
				got = append(got, u)
				return cur + u
			})
			pending, order := map[int64]float64{}, []int64(nil)
			flush := func() bool {
				got = got[:0]
				if buf.Flush(buffered) != len(order) || buf.Len() != 0 || len(got) != len(order) {
					return false
				}
				for i, off := range order {
					if bits(got[i]) != bits(pending[off]) {
						return false
					}
					model.set(off, model.m[off]+pending[off])
				}
				clear(pending)
				order = order[:0]
				for off := int64(0); off < 64*tc.spread; off += tc.spread {
					if bits(buffered.AtFlat(off)) != bits(model.m[off]) {
						return false
					}
				}
				return buffered.IsDense() || buffered.Len() == len(model.m)
			}
			for i := 0; i < n; i++ {
				off := int64(writes[i]%64) * tc.spread
				v := float64(vals[i]) / 4
				if vals[i] == math.MinInt8 {
					v = math.Copysign(0, -1)
				}
				direct.AddAt(v, off)
				buf.Put(v, off)
				if _, ok := pending[off]; !ok {
					order = append(order, off)
				}
				pending[off] += v
				if (i+1)%every == 0 && !flush() {
					return false
				}
			}
			if !flush() {
				return false
			}
			for off := int64(0); off < 64*tc.spread; off += tc.spread {
				if math.Abs(direct.AtFlat(off)-buffered.AtFlat(off)) > 1e-9 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestBufferPutFlushAllocFree: a buffer in steady use — the same
// elements buffered and flushed pass after pass — allocates nothing,
// over a dense target and a sparse one.
func TestBufferPutFlushAllocFree(t *testing.T) {
	for _, a := range []*DistArray{NewDense("w", 1<<16), NewSparse("z", 1<<30)} {
		b := NewBuffer(a, nil)
		n := int64(a.dims[0])
		pass := func() {
			for i := int64(0); i < 2000; i++ {
				b.Put(0.5, i*7919%n)
			}
			b.Flush(a)
		}
		pass() // the first pass grows the slot table and inserts the sparse target's elements
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s: Put and Flush allocate %v times per pass, want 0", a.Name(), allocs)
		}
		if got, want := a.AtFlat(7919), 0.5*22; got != want { // AllocsPerRun warms up with a pass of its own
			t.Errorf("%s: element 7919 = %v after 22 passes, want %v", a.Name(), got, want)
		}
	}
}

// TestBufferFlushRefusesOtherExtents: the buffer flattens offsets with
// its own array's strides, so flushing into a same-named array of other
// extents would update the wrong coordinates; it panics naming both
// and writes nothing.
func TestBufferFlushRefusesOtherExtents(t *testing.T) {
	b := NewBuffer(NewDense("w", 4, 8), nil)
	b.Put(1, 3, 5)
	other := NewDense("w", 8, 4)
	defer func() {
		want := `dsm: flushing buffer of "w" [4 8] into "w" [8 4]`
		if r := recover(); r != want {
			t.Errorf("Flush into other extents: %v, want %q", r, want)
		}
		if d, _ := other.DenseData(); slices.ContainsFunc(d, func(v float64) bool { return v != 0 }) {
			t.Error("Flush into other extents wrote to the array")
		}
	}()
	b.Flush(other)
}

// Unflatten converts a flattened offset back to an index tuple.
func (a *DistArray) Unflatten(off int64) []int64 {
	return a.unflattenInto(make([]int64, len(a.dims)), off)
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := NewDense("W", 3, 4)
	a.SetAt(1.5, 2, 3)
	b := NewSparse("Z", 10, 10)
	b.SetAt(-2, 9, 0)
	man := &Manifest{Clock: 1}
	if _, err := WriteCheckpoint(dir, man, []*DistArray{a, b}, 0); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCheckpoint(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if restored["W"].At(2, 3) != 1.5 || restored["Z"].At(9, 0) != -2 {
		t.Fatal("checkpoint round trip lost data")
	}
	if !restored["W"].IsDense() || restored["Z"].IsDense() {
		t.Fatal("density not preserved")
	}
	if _, err := RestoreCheckpoint(dir, &Manifest{Clock: 2, Arrays: []string{"W"}}); err == nil {
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

// TestSparseForEachAllocsIndependentOfCount: a sparse walk's
// allocations do not grow with the element count — with the columns
// merged and with a tail of unmerged inserts to sort.
func TestSparseForEachAllocsIndependentOfCount(t *testing.T) {
	count := func(nnz int, tail bool) float64 {
		a := NewSparse("ratings", 300, 200)
		rng := rand.New(rand.NewSource(3))
		for a.Len() < nnz {
			a.SetAt(rng.Float64()+1, rng.Int63n(300), rng.Int63n(200))
		}
		a.sparse.merge()
		for k := 0; tail && k < mergeMin; k++ {
			a.SetAt(rng.Float64()+1, rng.Int63n(300), rng.Int63n(200))
		}
		if got := len(a.sparse.offs) > a.sparse.sorted; got != tail {
			t.Fatalf("%d elements: tail = %v, want %v", nnz, got, tail)
		}
		var sum float64
		return testing.AllocsPerRun(5, func() { a.ForEach(func(_ []int64, v float64) { sum += v }) })
	}
	for _, tail := range []bool{false, true} {
		if small, large := count(200, tail), count(20000, tail); small != large {
			t.Errorf("tail %v: ForEach allocates %v times over 200 elements, %v over 20000", tail, small, large)
		}
	}
}
