package vm

import (
	"math"
	"math/rand"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

const mfSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
end
`

func compileMF(t testing.TB) *Prog {
	t.Helper()
	loop, err := lang.Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays: map[string][]int64{
			"ratings": {100, 100}, "W": {16, 100}, "H": {16, 100},
		},
		Globals: []string{"step_size"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func bindMF(t testing.TB, p *Prog) (*Kernel, *dsm.DistArray, *dsm.DistArray) {
	t.Helper()
	k := p.NewKernel()
	w := dsm.NewDense("W", 16, 100)
	h := dsm.NewDense("H", 16, 100)
	w.FillRandn(rand.New(rand.NewSource(1)), 0.1)
	h.FillRandn(rand.New(rand.NewSource(2)), 0.1)
	for name, a := range map[string]*dsm.DistArray{
		"ratings": dsm.NewSparse("ratings", 100, 100), "W": w, "H": h,
	} {
		if err := k.BindArray(name, a); err != nil {
			t.Fatal(err)
		}
	}
	if !k.SetGlobal("step_size", 0.01) {
		t.Fatal("step_size not a global")
	}
	return k, w, h
}

// bindExample compiles a shipped example program and binds it to dense
// arrays filled with small positive integers: valid 1-based topic
// assignments for LDA, benign values elsewhere.
func bindExample(t testing.TB, file string, globals map[string]float64) *Kernel {
	t.Helper()
	prog, err := lang.ParseProgram(exampleProgramSources(t)[file])
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers, Globals: prog.Globals})
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	k := p.NewKernel()
	rng := rand.New(rand.NewSource(17))
	bound := map[string]*dsm.DistArray{}
	for name, dims := range prog.Env.Arrays {
		bound[name] = dsm.NewDense(name, dims...)
		bound[name].Map(func(float64) float64 { return float64(1 + rng.Intn(6)) })
		if err := k.BindArray(name, bound[name]); err != nil {
			t.Fatal(err)
		}
	}
	for name, target := range prog.Env.Buffers {
		if err := k.BindBuffer(name, dsm.NewBuffer(bound[target], nil)); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range globals {
		if !k.SetGlobal(name, v) {
			t.Fatalf("%s: %s is not a global", file, name)
		}
	}
	k.SetRng(rand.New(rand.NewSource(99)))
	return k
}

// TestVMZeroAllocs: the acceptance criterion — a steady-state VM
// iteration of the MF, LDA and SLR bodies performs zero allocations,
// both per-iteration and batched; LDA's topic and sampling loops run
// lane-wise throughout.
func TestVMZeroAllocs(t *testing.T) {
	mf, _, _ := bindMF(t, compileMF(t))
	lda := bindExample(t, "lda.orion", map[string]float64{"K": 6, "alpha": 0.5, "beta": 0.1, "vbeta": 8})
	slr := bindExample(t, "slr.orion", map[string]float64{"step_size": 0.05})
	for _, tc := range []struct {
		name string
		k    *Kernel
		keys [][]int64
		vals []float64
		// lanes is how many loops of an iteration run lane-wise.
		lanes int
	}{
		{"MF", mf, [][]int64{{3, 7}, {4, 9}, {1, 2}, {3, 7}}, []float64{1.5, 2, 0.5, 1.5}, 0},
		{"LDA", lda, [][]int64{{3, 7}, {4, 9}, {1, 2}, {3, 7}}, []float64{1, 1, 1, 1}, 2},
		{"SLR", slr, [][]int64{{5}, {6}, {7}, {5}}, []float64{0.73, 0.21, 0.5, 0.73}, 0},
	} {
		k, key, val := tc.k, tc.keys[0], tc.vals[0]
		for i := 0; i < 4; i++ {
			if err := k.RunIteration(key, val); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := k.RunIteration(key, val); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("vm %s iteration allocates %v times, want 0", tc.name, allocs)
		}
		allocs = testing.AllocsPerRun(200, func() {
			if n, err := k.RunBlock(tc.keys, tc.vals, nil); err != nil || n != len(tc.keys) {
				t.Fatalf("%s RunBlock: n=%d err=%v", tc.name, n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("vm %s block allocates %v times, want 0", tc.name, allocs)
		}
		// 4 warm-up and 201 measured iterations (AllocsPerRun adds one),
		// then 201 blocks of len(keys).
		if want := tc.lanes * (4 + 201 + 201*len(tc.keys)); k.laneRuns != want {
			t.Errorf("vm %s ran %d loops lane-wise, want %d", tc.name, k.laneRuns, want)
		}
	}
}

// TestRunBlockStopsAtFault: a mid-block fault reports the number of
// fully completed iterations and leaves their effects in place.
func TestRunBlockStopsAtFault(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    A[key[1], 1] = v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays: map[string][]int64{"data": {4, 4}, "A": {4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	a := dsm.NewDense("A", 4, 4)
	if err := k.BindArray("A", a); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 4, 4)); err != nil {
		t.Fatal(err)
	}
	// Third key is out of bounds: iteration 2 panics after 0 and 1 land.
	keys := [][]int64{{0, 0}, {1, 0}, {9, 0}, {2, 0}}
	vals := []float64{10, 20, 30, 40}
	// The panic unwinds through RunBlock, so progress is observed via
	// the onIter callback rather than the (lost) return value.
	var done int
	var panicked bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		_, _ = k.RunBlock(keys, vals, func(i int) { done = i + 1 })
	}()
	if !panicked {
		t.Fatal("expected the out-of-bounds write to panic")
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if a.At(0, 0) != 10 || a.At(1, 0) != 20 {
		t.Fatalf("completed iterations not applied: %v %v", a.At(0, 0), a.At(1, 0))
	}
}

// TestRunBlockOnIter: the per-iteration callback observes accumulator
// state after each iteration, in order.
func TestRunBlockOnIter(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    acc += v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	if err := k.BindArray("data", dsm.NewDense("data", 4)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	slot := k.GlobalSlot("acc")
	keys := [][]int64{{0}, {1}, {2}}
	vals := []float64{1, 2, 4}
	var seen []float64
	done, err := k.RunBlock(keys, vals, func(i int) {
		seen = append(seen, k.GlobalAt(slot))
	})
	if err != nil || done != 3 {
		t.Fatalf("done=%d err=%v", done, err)
	}
	want := []float64{1, 3, 7}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("after iteration %d acc=%v, want %v", i, seen[i], want[i])
		}
	}
}

// TestVMRowViewIsZeroCopy: a consume borrow of a dense full-first-dim
// range must be a live view of the array's storage, not a copy.
func TestVMRowViewIsZeroCopy(t *testing.T) {
	src := "for (key, v) in data\n    s = dot(W[:, 1], W[:, 1])\n    acc += s\nend\n"
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {2}, "W": {8, 4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lowered site must use the row-view opcode, not materialize.
	views := 0
	for _, in := range p.code {
		if in.op == opRowViewV {
			views++
		}
	}
	if views != 2 {
		t.Fatalf("expected 2 opRowViewV sites, found %d", views)
	}
	k := p.NewKernel()
	w := dsm.NewDense("W", 8, 4)
	w.FillRandn(rand.New(rand.NewSource(3)), 1)
	if err := k.BindArray("W", w); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 2)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	if err := k.RunIteration([]int64{0}, 0); err != nil {
		t.Fatal(err)
	}
	// DSL subscripts are 1-based: W[:, 1] is the 0-based column 0.
	var want float64
	col := w.Vec(0)
	for _, e := range col {
		want += e * e
	}
	got, _ := k.Global("acc")
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("acc = %v, want %v", got, want)
	}
}

// TestVMSparseFallback: arrays without dense backing run through the
// interface paths and still match the interpreter (covered broadly by
// the differential tests; this pins the explicit sparse binding).
func TestVMSparseFallback(t *testing.T) {
	src := "for (key, v) in data\n    S[key[1], 1] += 2\n    x = S[key[1], 1]\n    acc += x\nend\n"
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {3}, "S": {3, 3}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	s := dsm.NewSparse("S", 3, 3)
	if err := k.BindArray("S", s); err != nil {
		t.Fatal(err)
	}
	if err := k.BindArray("data", dsm.NewDense("data", 3)); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	for i := int64(0); i < 3; i++ {
		if err := k.RunIteration([]int64{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := k.Global("acc"); got != 6 {
		t.Fatalf("acc = %v, want 6", got)
	}
	if s.At(2, 0) != 2 {
		t.Fatalf("S[2,0] = %v, want 2", s.At(2, 0))
	}
}

// TestVMRunLoop: RunLoop walks the bound iteration space like the
// closure backend, stopping early on error when supported.
func TestVMRunLoop(t *testing.T) {
	loop, err := lang.Parse("for (key, v) in data\n    acc += v\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"data": {4}},
		Globals: []string{"acc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := p.NewKernel()
	d := dsm.NewDense("data", 4)
	for i := int64(0); i < 4; i++ {
		d.SetAt(float64(i+1), i)
	}
	if err := k.BindArray("data", d); err != nil {
		t.Fatal(err)
	}
	k.SetGlobal("acc", 0)
	if err := k.RunLoop(); err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Global("acc"); got != 10 {
		t.Fatalf("acc = %v, want 10", got)
	}
}

// TestFoldedChecksKeepFaultOrder: a presence check that foldCheck moved
// into its access's miss path faults where the check did. MF with H
// left unbound fails in its first iteration with the interpreter's text
// and W; a body that writes W before it reads the unbound H leaves the
// interpreter's partial W writes; a key too short for the literal key
// load between a folded check and its access still reports the unbound
// array, as the check before the load did; and a check folds only into
// an access reporting its message, so W[W[1, k], k]'s write check, which
// the subscript's read of W would report as a read, stays.
func TestFoldedChecksKeepFaultOrder(t *testing.T) {
	const partial = `
for (key, rv) in ratings
    W[1, key[1]] = rv
    x = H[1, key[2]]
    W[2, key[1]] = x
end
`
	keys := [][]int64{{3, 7}, {4, 9}}
	for _, tc := range []struct {
		name, src, unbound string
		keys               [][]int64
		want               string
		chks               int // presence checks left unfolded
	}{
		{"mf, H unbound", mfSrc, "H", keys, `lang: read of unknown array "H"`, 0},
		{"partial W writes, H unbound", partial, "H", keys, `lang: read of unknown array "H"`, 0},
		{"short key, H unbound", mfSrc, "H", [][]int64{{3}}, `lang: read of unknown array "H"`, 0},
		{"short key, W unbound", mfSrc, "W", [][]int64{{}}, `lang: read of unknown array "W"`, 0},
		{"short key, all bound", mfSrc, "", [][]int64{{3}}, "lang: key subscript 2 out of range", 0},
		{"write check before a read, W unbound", "for (key, rv) in ratings\n    W[W[1, key[1]], key[1]] = rv\nend\n",
			"W", keys, `lang: write to unknown array "W"`, 1},
	} {
		loop, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		dims := map[string][]int64{"ratings": {100, 100}, "W": {16, 100}, "H": {16, 100}}
		p, err := Compile(loop, &lang.CompileEnv{Arrays: dims, Globals: []string{"step_size"}})
		if err != nil {
			t.Fatal(err)
		}
		chks := 0
		for _, in := range p.code {
			if in.op == opArrChk {
				chks++
			}
		}
		if chks != tc.chks {
			t.Fatalf("%s: %d presence checks left unfolded, want %d", tc.name, chks, tc.chks)
		}
		m, k := lang.NewMachine(), p.NewKernel()
		m.Globals["step_size"] = 0.01
		k.SetGlobal("step_size", 0.01)
		arrays := map[string][2]*dsm.DistArray{}
		for name, d := range dims {
			if name == tc.unbound {
				continue
			}
			a, b := dsm.NewDense(name, d...), dsm.NewDense(name, d...)
			a.FillRandn(rand.New(rand.NewSource(5)), 0.1)
			b.FillRandn(rand.New(rand.NewSource(5)), 0.1)
			m.Arrays[name], arrays[name] = a, [2]*dsm.DistArray{a, b}
			if err := k.BindArray(name, b); err != nil {
				t.Fatal(err)
			}
		}
		vals := []float64{1.5, 2}
		var ref error
		refDone := 0
		for i, key := range tc.keys {
			if ref = m.RunIteration(loop, key, vals[i]); ref != nil {
				break
			}
			refDone++
		}
		done, err := k.RunBlock(tc.keys, vals[:len(tc.keys)], nil)
		if ref == nil || ref.Error() != tc.want || err == nil || err.Error() != ref.Error() || done != refDone {
			t.Fatalf("%s: vm stopped after %d with %v, interpreter after %d with %v, want %q",
				tc.name, done, err, refDone, ref, tc.want)
		}
		for name, ab := range arrays {
			x, _ := ab[0].DenseData()
			y, _ := ab[1].DenseData()
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
					t.Fatalf("%s: %s differs from the interpreter's at flat offset %d", tc.name, name, i)
				}
			}
		}
	}
}
