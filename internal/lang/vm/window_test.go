package vm

import (
	"fmt"
	"math"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// winView binds a partition the way the distributed runtime does: global
// extents and coordinates, dense storage for the window only.
type winView struct {
	p    *dsm.Partition
	dims []int64
}

func (v winView) Dims() []int64                   { return v.dims }
func (v winView) At(idx ...int64) float64         { return v.p.At(idx...) }
func (v winView) SetAt(x float64, idx ...int64)   { v.p.SetAt(x, idx...) }
func (v winView) DenseData() ([]float64, []int64) { return v.p.Local.DenseData() }
func (v winView) Window() (int, int64, int64)     { return v.p.Dim, v.p.Lo, v.p.Hi }

// atView hides a view's dense storage: every access takes At/SetAt, the
// reference path.
type atView struct{ lang.ArrayAccess }

type windowProg struct {
	name   string
	src    string
	arrays map[string][]int64  // first the iteration space "data"
	cuts   map[string][3]int64 // array → (dim, lo, hi)
	// inWindow reports whether the iteration's accesses all land inside
	// the cuts.
	inWindow func(key []int64) bool
	// faults are iterations that leave a window or the array.
	faults [][]int64
}

var windowProgs = []windowProg{
	{
		name:   "rows",
		src:    mfSrc,
		arrays: map[string][]int64{"ratings": {12, 10}, "W": {4, 12}, "H": {4, 10}},
		cuts:   map[string][3]int64{"W": {1, 3, 9}, "H": {1, 2, 7}},
		inWindow: func(k []int64) bool {
			return k[0] >= 3 && k[0] < 9 && k[1] >= 2 && k[1] < 7
		},
		faults: [][]int64{{0, 3}, {4, 8}, {4, 99}, {-1, 3}},
	},
	{
		name: "points",
		src: `
for (key, v) in data
    a = max(D[1, key[1]], 0)
    b = min(Wt[2, key[2]], 5)
    c = T[key[1]]
    D[2, key[1]] += a + v
    Wt[1, key[2]] = b * c
    D[3, key[1]] -= 1
    T[key[1]] = c + 1
    Wt[3, key[2]] *= 2
    s += a + b + c
end
`,
		arrays: map[string][]int64{"data": {12, 10}, "D": {6, 12}, "Wt": {6, 10}, "T": {12}},
		cuts:   map[string][3]int64{"D": {1, 3, 9}, "Wt": {1, 2, 7}, "T": {0, 3, 9}},
		inWindow: func(k []int64) bool {
			return k[0] >= 3 && k[0] < 9 && k[1] >= 2 && k[1] < 7
		},
		faults: [][]int64{{2, 3}, {9, 3}, {4, 7}, {40, 3}, {4, -2}},
	},
	{
		name: "ranges",
		src: `
for (key, v) in data
    p = A[2:4, key[2]]
    A[1:3, key[2]] = p + v
    B[key[1], 2:4] *= 2
    q = C[3:5, key[2]]
    C[3:5, key[2]] = q * v
    C[4:4, key[2]] -= 1
    r = B[key[1], :]
    B[key[1], 1:2] += q[1]
    s += dot(p, p) + dot(q, q) + dot(r, r)
end
`,
		arrays: map[string][]int64{"data": {12, 10}, "A": {6, 10}, "B": {12, 5}, "C": {8, 10}},
		cuts:   map[string][3]int64{"A": {1, 2, 7}, "B": {0, 3, 9}, "C": {0, 2, 6}},
		inWindow: func(k []int64) bool {
			return k[0] >= 3 && k[0] < 9 && k[1] >= 2 && k[1] < 7
		},
		faults: [][]int64{{4, 1}, {2, 3}, {4, 30}, {11, 3}},
	},
	{
		// The window cuts the dimension a row view and a range span.
		name: "cut-range-dim",
		src: `
for (key, v) in data
    x = E[:, key[2]]
    y = E[1:3, key[2]]
    s += dot(x, x) + dot(y, y)
end
`,
		arrays:   map[string][]int64{"data": {4, 5}, "E": {4, 5}},
		cuts:     map[string][3]int64{"E": {0, 1, 3}},
		inWindow: func([]int64) bool { return false },
		faults:   [][]int64{{0, 0}, {1, 4}},
	},
}

type windowRun struct {
	done     int
	err      string
	panicked string
	arrays   map[string]*dsm.DistArray
	s        float64
}

// runWindowed executes keys on a fresh kernel whose non-iteration arrays
// are bound through bind, and returns the arrays after writing the
// partitions back.
func runWindowed(t *testing.T, wp windowProg, prog *Prog, cuts map[string][3]int64,
	wrap func(winView) lang.ArrayAccess, keys [][]int64, vals []float64) windowRun {
	t.Helper()
	arrays := buildArrays(&lang.Env{Arrays: wp.arrays}, fillFloats, 7)
	k := prog.NewKernel()
	var parts []*dsm.Partition
	for name, a := range arrays {
		if name == prog.Loop().IterVar {
			continue
		}
		var view lang.ArrayAccess = a
		if cut, ok := cuts[name]; ok {
			p := a.ExtractRange(int(cut[0]), cut[1], cut[2])
			parts = append(parts, p)
			view = wrap(winView{p: p, dims: a.Dims()})
		}
		if err := k.BindArray(name, view); err != nil {
			t.Fatalf("%s: %v", wp.name, err)
		}
	}
	k.SetGlobal("step_size", 0.05)
	k.SetGlobal("s", 0)
	res := windowRun{arrays: arrays}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.panicked = fmt.Sprint(r)
			}
		}()
		done, err := k.RunBlock(keys, vals, func(i int) { res.done = i + 1 })
		if err != nil {
			res.err = err.Error()
		}
		res.done = done
	}()
	for _, p := range parts {
		p.WriteBack(arrays[p.Array])
	}
	res.s, _ = k.Global("s")
	return res
}

func sameWindowRun(t *testing.T, label string, got, want windowRun) {
	t.Helper()
	if got.done != want.done || got.err != want.err || got.panicked != want.panicked {
		t.Fatalf("%s: stopped after %d (err %q, panic %q), want %d (err %q, panic %q)",
			label, got.done, got.err, got.panicked, want.done, want.err, want.panicked)
	}
	if math.Float64bits(got.s) != math.Float64bits(want.s) {
		t.Fatalf("%s: accumulator %v, want %v", label, got.s, want.s)
	}
	for name, w := range want.arrays {
		g := got.arrays[name]
		w.ForEach(func(idx []int64, v float64) {
			if gv := g.At(idx...); math.Float64bits(gv) != math.Float64bits(v) {
				t.Fatalf("%s: %s%v = %v, want %v", label, name, idx, gv, v)
			}
		})
	}
}

// TestWindowBindingEqualsWholeArray: a kernel whose arrays are bound as
// dense windows (lang.DenseWindow over a partition) computes bitwise
// what the same kernel computes on the whole arrays and what it computes
// through the views' At/SetAt alone — for point loads and stores, fused
// clamped loads, row views, range loads, stores and compound updates,
// on windows cutting the first, the last and the range dimension. A
// window covering the whole array ([0, extent)) is one more such view.
func TestWindowBindingEqualsWholeArray(t *testing.T) {
	dense := func(v winView) lang.ArrayAccess { return v }
	viaAt := func(v winView) lang.ArrayAccess { return atView{v} }
	for _, wp := range windowProgs {
		loop, err := lang.Parse(wp.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(loop, &lang.CompileEnv{Arrays: wp.arrays, Globals: []string{"step_size", "s"}})
		if err != nil {
			t.Fatalf("%s: %v", wp.name, err)
		}
		iter := buildArrays(&lang.Env{Arrays: wp.arrays}, fillFloats, 7)[loop.IterVar]
		var keys [][]int64
		var vals []float64
		all, allVals := collectKeys(iter, false)
		for i, key := range all {
			if wp.inWindow(key) {
				keys, vals = append(keys, key), append(vals, allVals[i])
			}
		}
		whole := runWindowed(t, wp, prog, nil, nil, keys, vals)
		if whole.err != "" || whole.panicked != "" || whole.done != len(keys) {
			t.Fatalf("%s: whole-array run stopped after %d of %d: %s%s", wp.name, whole.done, len(keys), whole.err, whole.panicked)
		}
		full := map[string][3]int64{}
		for name, cut := range wp.cuts {
			full[name] = [3]int64{cut[0], 0, wp.arrays[name][cut[0]]}
		}
		sameWindowRun(t, wp.name+": window [0, extent)", runWindowed(t, wp, prog, full, dense, keys, vals), whole)
		if len(keys) > 0 {
			sameWindowRun(t, wp.name+": dense windows", runWindowed(t, wp, prog, wp.cuts, dense, keys, vals), whole)
			sameWindowRun(t, wp.name+": windows via At", runWindowed(t, wp, prog, wp.cuts, viaAt, keys, vals), whole)
		}

		// A coordinate outside the window or the array takes the view's
		// At/SetAt: same fault, same point, same state as the At path.
		for _, bad := range wp.faults {
			fk := append(append([][]int64{}, keys[:min(len(keys), 3)]...), bad)
			fv := make([]float64, len(fk))
			got := runWindowed(t, wp, prog, wp.cuts, dense, fk, fv)
			if got.panicked == "" && got.err == "" {
				t.Fatalf("%s: iteration %v did not fault", wp.name, bad)
			}
			sameWindowRun(t, fmt.Sprintf("%s: fault at %v", wp.name, bad), got, runWindowed(t, wp, prog, wp.cuts, viaAt, fk, fv))
		}
	}
}

// TestWindowRebindDropsStorage: binding a view with no dense storage
// over a window binding leaves the kernel holding none of the old
// storage — how the runtime releases a partition between blocks — and a
// window outside the array is refused.
func TestWindowRebindDropsStorage(t *testing.T) {
	p := compileMF(t)
	k, w, _ := bindMF(t, p)
	part := w.ExtractRange(1, 10, 20)
	if err := k.BindArray("W", winView{p: part, dims: w.Dims()}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunIteration([]int64{12, 7}, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("W", atView{w}); err != nil {
		t.Fatal(err)
	}
	wi := p.arrayIx["W"]
	if k.dense[wi] != nil || k.win[wi][1] != (dimWin{}) {
		t.Fatal("kernel still holds the window's storage after rebinding")
	}
	for j := range p.accs {
		if int(p.accs[j].ai) == wi && (k.racc[j].data != nil || k.racc[j].d0 != 0) {
			t.Fatalf("access site %d still mirrors the window's storage", j)
		}
	}
	for _, bad := range []dsm.Partition{
		{Dim: 2, Lo: 0, Hi: 1, Local: part.Local},
		{Dim: 1, Lo: -1, Hi: 9, Local: part.Local},
		{Dim: 1, Lo: 95, Hi: 105, Local: part.Local},
		{Dim: 1, Lo: 9, Hi: 5, Local: part.Local},
	} {
		bad := bad
		if err := k.BindArray("W", winView{p: &bad, dims: w.Dims()}); err == nil {
			t.Fatalf("window [%d,%d) on dim %d of %v accepted", bad.Lo, bad.Hi, bad.Dim, w.Dims())
		}
	}
}
