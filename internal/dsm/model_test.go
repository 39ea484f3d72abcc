package dsm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// mapModel is the map-backed sparse array the columns replaced: a zero
// write — +0 or -0 — deletes, AddAt stores 0 + v over an absent
// element, and an absent element reads +0.
type mapModel struct{ m map[int64]float64 }

func (m *mapModel) set(off int64, v float64) {
	if v == 0 {
		delete(m.m, off)
		return
	}
	m.m[off] = v
}

func (m *mapModel) add(off int64, v float64) { m.set(off, m.m[off]+v) }

// check compares a with the model bitwise: its count, every read of an
// offset in pool, its walk (order, tuples, values) and its encoding.
func (m *mapModel) check(t *testing.T, what string, a *DistArray, pool []int64) {
	t.Helper()
	bits := math.Float64bits
	if a.Len() != len(m.m) {
		t.Fatalf("%s: Len = %d, the map model holds %d", what, a.Len(), len(m.m))
	}
	for _, off := range pool {
		if got, want := a.AtFlat(off), m.m[off]; bits(got) != bits(want) {
			t.Fatalf("%s: element %d reads %v, the map model %v", what, off, got, want)
		}
	}
	keys := make([]int64, 0, len(m.m))
	for off := range m.m {
		keys = append(keys, off)
	}
	slices.Sort(keys)
	i := 0
	a.ForEach(func(idx []int64, v float64) {
		if i >= len(keys) || a.Flatten(idx...) != keys[i] || bits(v) != bits(m.m[keys[i]]) {
			t.Fatalf("%s: walk step %d visits %v = %v, off the map model's %d elements in order", what, i, idx, v, len(keys))
		}
		i++
	})
	if i != len(keys) {
		t.Fatalf("%s: walk visits %d elements, the map model holds %d", what, i, len(keys))
	}
}

// TestSparseColumnsEqualMapModel runs seeded random op sequences on a
// sparse DistArray and on the map model side by side and compares them
// bitwise after every op: SetAt of quarters, +0 and -0; AddAt, also to
// zero; inserts right after walks; Map, also to ±0; Clone;
// RangePartitions and ExtractRange written back into a fresh array;
// Encode/DecodeArray; CoordCounts. A stamp taken before each op holds
// after it exactly when the op only read. Two shapes cover a direct
// index and a hashed one, and the sequences reach merges and walks over
// a tail.
func TestSparseColumnsEqualMapModel(t *testing.T) {
	covered := map[string]int{}
	for _, dims := range [][]int64{{6, 7}, {500, 700}} {
		total := dims[0] * dims[1]
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]int64, 0, 160) // the offsets ops touch: collisions are common
			for len(pool) < cap(pool) {
				pool = append(pool, rng.Int63n(total))
			}
			slices.Sort(pool)
			pool = slices.Compact(pool)
			a := NewSparse("z", dims...)
			m := &mapModel{m: map[int64]float64{}}
			value := func() float64 {
				switch rng.Intn(6) {
				case 0:
					return 0
				case 1:
					return math.Copysign(0, -1)
				}
				return math.Round(rng.NormFloat64()*8) / 4 // quarters: sums cancel
			}
			pick := func() int64 { return pool[rng.Intn(len(pool))] }
			for op := 0; op < 400; op++ {
				what := func(name string) string { return fmt.Sprintf("%s (dims %v, seed %d, op %d)", name, dims, seed, op) }
				st := a.Stamp()
				wrote := true
				switch k := rng.Intn(20); {
				case k < 7:
					off, v := pick(), value()
					a.SetFlat(off, v)
					m.set(off, v)
				case k < 10:
					off := pick()
					v := value()
					if rng.Intn(3) == 0 {
						v = -m.m[off] // to zero
					}
					a.AddAt(v, a.Unflatten(off)...)
					m.add(off, v)
				case k < 12:
					// A walk, early-stopped half the time, then inserts.
					if len(a.sparse.offs) > a.sparse.sorted {
						covered["walk over a tail"]++
					}
					stop := rng.Intn(len(m.m) + 1)
					n := 0
					a.ForEachUntil(func([]int64, float64) bool { n++; return n < stop })
					wrote = false
					for r := rng.Intn(40); r > 0; r-- {
						if off := pick(); m.m[off] == 0 {
							wrote = true
							v := float64(1 + rng.Intn(8))
							a.SetFlat(off, v)
							m.set(off, v)
							if a.sparse.sorted > 0 && len(a.sparse.offs) == a.sparse.sorted {
								covered["merge"]++
							}
						}
					}
				case k == 12:
					f := func(v float64) float64 { return -(v - 0.25) } // 0.25 goes to -0
					a.Map(f)
					for off, v := range m.m {
						m.set(off, f(v))
					}
				case k == 14:
					c := a.Clone()
					m.check(t, what("Clone"), c, pool)
					if rng.Intn(2) == 0 {
						// The original must not see the clone's writes.
						c.SetFlat(pick(), 99)
						m.check(t, what("the original after a write to its Clone"), a, pool)
					} else {
						a, st = c, c.Stamp()
					}
					wrote = false
				case k == 15:
					dim := rng.Intn(2)
					cuts := []int64{rng.Int63n(dims[dim] + 1), rng.Int63n(dims[dim] + 1)}
					slices.Sort(cuts)
					ps := a.RangePartitions(dim, 3, cuts)
					for _, p := range ps {
						p.Local.ForEach(func(idx []int64, v float64) {
							idx[dim] += p.Lo
							if off := a.Flatten(idx...); math.Float64bits(m.m[off]) != math.Float64bits(v) {
								t.Fatalf("%s: partition [%d,%d) holds %v = %v, the map model %v", what("RangePartitions"), p.Lo, p.Hi, idx, v, m.m[off])
							}
						})
					}
					b := NewSparse("z", dims...)
					for _, p := range ps {
						p.WriteBack(b)
					}
					m.check(t, what("RangePartitions → WriteBack"), b, pool)
					ek, ev := a.ExtractRange(dim, cuts[0], cuts[1]).Local.Entries()
					if mk, mv := ps[1].Local.Entries(); !reflect.DeepEqual(ek, mk) || !reflect.DeepEqual(ev, mv) {
						t.Fatalf("%s: ExtractRange differs from the middle range partition", what("ExtractRange"))
					}
					wrote = false
					if rng.Intn(2) == 0 {
						a, st = b, b.Stamp()
					}
				case k == 16:
					blob, err := a.Encode()
					if err != nil {
						t.Fatal(err)
					}
					b, err := DecodeArray(blob)
					if err != nil {
						t.Fatal(err)
					}
					m.check(t, what("Encode → DecodeArray"), b, pool)
					wrote = false
					if rng.Intn(2) == 0 {
						a, st = b, b.Stamp()
					}
				default:
					got := a.CoordCounts(1, 0)
					want := [][]int64{make([]int64, dims[1]), make([]int64, dims[0])}
					for off := range m.m {
						idx := a.Unflatten(off)
						want[0][idx[1]]++
						want[1][idx[0]]++
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: CoordCounts differ from the map model's", what("CoordCounts"))
					}
					wrote = false
				}
				if held := st.Holds(a); held == wrote {
					t.Fatalf("%s: a stamp taken before the op holds = %v after it", what("Stamp"), held)
				}
				m.check(t, what("op"), a, pool)
				covered[map[bool]string{true: "direct index", false: "hashed index"}[a.sparse.idx.direct]]++
			}
		}
	}
	for _, c := range []string{"direct index", "hashed index", "merge", "walk over a tail"} {
		if covered[c] == 0 {
			t.Errorf("no op sequence reached a %s", c)
		}
	}
}

// TestSparseConcurrentReaders: reads write nothing — walks, also over a
// tail of unmerged inserts and past deleted elements, point reads,
// counts, clones, partitions and encoding from several goroutines at
// once see what one reader sees, and the race detector (make race)
// holds them to it.
func TestSparseConcurrentReaders(t *testing.T) {
	a := NewSparse("z", 300, 200)
	rng := rand.New(rand.NewSource(5))
	for a.Len() < 5000 {
		a.SetAt(rng.Float64()+1, rng.Int63n(300), rng.Int63n(200))
	}
	for k := 0; k < 20; k++ {
		a.SetAt(0, rng.Int63n(300), rng.Int63n(200)) // deletes
		a.SetAt(rng.Float64()+1, rng.Int63n(300), rng.Int63n(200))
	}
	tail := len(a.sparse.offs) - a.sparse.sorted
	if tail == 0 {
		t.Fatal("the array has no tail to walk")
	}
	ref := a.Clone() // what one reader sees, read before a is
	keys, vals := ref.Entries()
	counts := ref.CoordCounts(0, 1)
	st := a.Stamp()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				k, v := a.Entries()
				if !reflect.DeepEqual(k, keys) || !reflect.DeepEqual(v, vals) {
					t.Error("a concurrent walk differs from the lone one")
					return
				}
				for i, idx := range keys {
					if a.At(idx...) != vals[i] {
						t.Errorf("a concurrent read of %v differs", idx)
						return
					}
				}
				if a.Len() != len(keys) || !reflect.DeepEqual(a.CoordCounts(0, 1), counts) || a.Clone().Len() != len(keys) {
					t.Error("a concurrent count or clone differs")
					return
				}
				a.RangePartitions(1, 2, []int64{100})
				a.Vec(7)
				if _, err := a.Encode(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !st.Holds(a) || len(a.sparse.offs)-a.sparse.sorted != tail {
		t.Error("concurrent reads wrote to the array")
	}
}
