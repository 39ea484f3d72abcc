package lang

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orion/internal/dsm"
)

// ---------------------------------------------------------------------
// Differential harness: run a program under both backends and require
// bitwise-identical outcomes — same stop point, same error or panic,
// same DistArray contents, same global/accumulator values.
// ---------------------------------------------------------------------

const (
	fillFloats = iota // uniform [0,1) values
	fillInts          // small integers 1..6 (usable as subscripts)
)

// buildArrays makes one dense DistArray per declared array,
// deterministically filled (sorted name order, seeded generator).
func buildArrays(env *Env, scheme int, seed int64) map[string]*dsm.DistArray {
	names := make([]string, 0, len(env.Arrays))
	for n := range env.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*dsm.DistArray, len(names))
	for _, n := range names {
		a := dsm.NewDense(n, env.Arrays[n]...)
		a.Map(func(v float64) float64 {
			if scheme == fillInts {
				return float64(1 + rng.Intn(6))
			}
			return rng.Float64()
		})
		out[n] = a
	}
	return out
}

// collectKeys lists the iteration space's (key, val) pairs in walk
// order, optionally restricted to interior points (all 1-based coords
// in [2, dim-1]) so boundary-relative stencils stay in bounds.
func collectKeys(iter *dsm.DistArray, interior bool) (keys [][]int64, vals []float64) {
	dims := iter.Dims()
	iter.ForEach(func(idx []int64, v float64) {
		if interior {
			for d, c := range idx {
				if c < 1 || c > dims[d]-2 {
					return
				}
			}
		}
		keys = append(keys, idx)
		vals = append(vals, v)
	})
	return keys, vals
}

// diffGlobals picks deterministic values for the loop's driver globals:
// accumulators start at zero (as dslkernel initializes them), known
// hyperparameters get values that keep the examples in bounds, and the
// rest get distinct arbitrary constants.
func diffGlobals(env *Env, loop *Loop, declared []string) map[string]float64 {
	known := map[string]float64{
		"step_size": 0.05, "K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8,
	}
	accums := map[string]bool{}
	for _, a := range Accumulators(loop) {
		accums[a] = true
	}
	set := map[string]bool{}
	var names []string
	add := func(ns []string) {
		for _, n := range ns {
			if !set[n] {
				set[n] = true
				names = append(names, n)
			}
		}
	}
	add(declared)
	if spec, err := Analyze(loop, env); err == nil {
		add(spec.Inherited)
	}
	add(Accumulators(loop))
	sort.Strings(names)
	out := make(map[string]float64, len(names))
	for i, n := range names {
		switch {
		case accums[n]:
			out[n] = 0
		default:
			if v, ok := known[n]; ok {
				out[n] = v
			} else {
				out[n] = 0.3 + 0.11*float64(i)
			}
		}
	}
	return out
}

// backendResult is one backend's observable outcome.
type backendResult struct {
	arrays   map[string]*dsm.DistArray
	stop     int // iterations fully executed before the run ended
	errMsg   string
	panicked bool
	panicMsg string
	globals  map[string]float64
}

func runOne(step func(i int) error, n int) (stop int, errMsg string, panicked bool, panicMsg string) {
	for i := 0; i < n; i++ {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicked = true
					panicMsg = fmt.Sprint(r)
				}
			}()
			err = step(i)
		}()
		if panicked {
			return i, "", true, panicMsg
		}
		if err != nil {
			return i, err.Error(), false, ""
		}
	}
	return n, "", false, ""
}

type diffConfig struct {
	scheme   int
	interior bool
	budget   int64
	vecLimit int64
	seed     int64
	maxIters int
}

// runInterp executes the program on the tree-walking interpreter.
func runInterp(prog *Program, globals map[string]float64, cfg diffConfig) backendResult {
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
	m := NewMachine()
	for n, a := range arrays {
		m.Arrays[n] = a
	}
	for n, target := range prog.Env.Buffers {
		m.Buffers[n] = dsm.NewBuffer(arrays[target], nil)
	}
	for n, v := range globals {
		m.Globals[n] = v
	}
	m.Rng = rand.New(rand.NewSource(cfg.seed + 1))
	m.StepBudget = cfg.budget
	m.VecLimit = cfg.vecLimit
	keys, vals := collectKeys(arrays[prog.Loop.IterVar], cfg.interior)
	if cfg.maxIters > 0 && len(keys) > cfg.maxIters {
		keys, vals = keys[:cfg.maxIters], vals[:cfg.maxIters]
	}
	res := backendResult{arrays: arrays, globals: map[string]float64{}}
	res.stop, res.errMsg, res.panicked, res.panicMsg = runOne(func(i int) error {
		return m.RunIteration(prog.Loop, keys[i], vals[i])
	}, len(keys))
	// Flush buffers so buffered updates land in the arrays we compare.
	for n, b := range m.Buffers {
		b.(*dsm.Buffer).Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		res.globals[n] = m.Globals[n].(float64)
	}
	return res
}

// runCompiled executes the program on the closure-compiled backend.
func runCompiled(t *testing.T, prog *Program, globals map[string]float64, cfg diffConfig) (backendResult, *NotCompilableError) {
	t.Helper()
	names := make([]string, 0, len(globals))
	for n := range globals {
		names = append(names, n)
	}
	sort.Strings(names)
	cl, err := CompileLoop(prog.Loop, &CompileEnv{
		Arrays:  prog.Env.Arrays,
		Buffers: prog.Env.Buffers,
		Globals: names,
	})
	if err != nil {
		nce, ok := err.(*NotCompilableError)
		if !ok {
			t.Fatalf("CompileLoop failed with %T: %v", err, err)
		}
		return backendResult{}, nce
	}
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
	k := cl.NewKernel()
	for n, a := range arrays {
		if err := k.BindArray(n, a); err != nil {
			t.Fatalf("BindArray(%s): %v", n, err)
		}
	}
	bufs := map[string]*dsm.Buffer{}
	for n, target := range prog.Env.Buffers {
		bufs[n] = dsm.NewBuffer(arrays[target], nil)
		if err := k.BindBuffer(n, bufs[n]); err != nil {
			t.Fatalf("BindBuffer(%s): %v", n, err)
		}
	}
	for n, v := range globals {
		if !k.SetGlobal(n, v) {
			t.Fatalf("SetGlobal(%s) not accepted", n)
		}
	}
	k.SetRng(rand.New(rand.NewSource(cfg.seed + 1)))
	k.SetStepBudget(cfg.budget)
	k.SetVecLimit(cfg.vecLimit)
	keys, vals := collectKeys(arrays[prog.Loop.IterVar], cfg.interior)
	if cfg.maxIters > 0 && len(keys) > cfg.maxIters {
		keys, vals = keys[:cfg.maxIters], vals[:cfg.maxIters]
	}
	res := backendResult{arrays: arrays, globals: map[string]float64{}}
	res.stop, res.errMsg, res.panicked, res.panicMsg = runOne(func(i int) error {
		return k.RunIteration(keys[i], vals[i])
	}, len(keys))
	for n, b := range bufs {
		b.Flush(arrays[prog.Env.Buffers[n]])
	}
	for _, n := range names {
		v, _ := k.Global(n)
		res.globals[n] = v
	}
	return res, nil
}

// compareResults requires the two backends' outcomes to be identical,
// bit for bit.
func compareResults(t *testing.T, label string, interp, compiled backendResult) {
	t.Helper()
	if interp.stop != compiled.stop {
		t.Fatalf("%s: interp stopped after %d iterations, compiled after %d (interp err=%q panic=%q; compiled err=%q panic=%q)",
			label, interp.stop, compiled.stop, interp.errMsg, interp.panicMsg, compiled.errMsg, compiled.panicMsg)
	}
	if interp.errMsg != compiled.errMsg {
		t.Fatalf("%s: error mismatch:\ninterp:   %q\ncompiled: %q", label, interp.errMsg, compiled.errMsg)
	}
	if interp.panicked != compiled.panicked || interp.panicMsg != compiled.panicMsg {
		t.Fatalf("%s: panic mismatch:\ninterp:   %v %q\ncompiled: %v %q",
			label, interp.panicked, interp.panicMsg, compiled.panicked, compiled.panicMsg)
	}
	for n, a := range interp.arrays {
		b := compiled.arrays[n]
		mismatch := ""
		a.ForEach(func(idx []int64, v float64) {
			if mismatch != "" {
				return
			}
			if w := b.At(idx...); math.Float64bits(w) != math.Float64bits(v) {
				mismatch = fmt.Sprintf("array %s%v: interp %v, compiled %v", n, idx, v, w)
			}
		})
		if mismatch != "" {
			t.Fatalf("%s: %s", label, mismatch)
		}
	}
	for n, v := range interp.globals {
		if w := compiled.globals[n]; math.Float64bits(w) != math.Float64bits(v) {
			t.Fatalf("%s: global %s: interp %v, compiled %v", label, n, v, w)
		}
	}
}

// diffProgram runs one parsed program under both backends and compares.
// Returns false when the program is outside the compiled subset.
func diffProgram(t *testing.T, label string, prog *Program, cfg diffConfig) bool {
	t.Helper()
	globals := diffGlobals(prog.Env, prog.Loop, prog.Globals)
	compiled, nce := runCompiled(t, prog, globals, cfg)
	if nce != nil {
		return false
	}
	interp := runInterp(prog, globals, cfg)
	compareResults(t, label, interp, compiled)
	return true
}

// exampleProgramSources loads every shipped .orion program.
func exampleProgramSources(t testing.TB) map[string]string {
	pattern := filepath.Join("..", "..", "examples", "*", "*.orion")
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found at %s (err=%v)", pattern, err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		out[filepath.Base(f)] = string(src)
	}
	return out
}

// TestDifferentialExamples: every shipped example must compile and
// produce bitwise-identical results under both backends, across two
// fill schemes and both full and interior walks.
func TestDifferentialExamples(t *testing.T) {
	for name, src := range exampleProgramSources(t) {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, scheme := range []int{fillFloats, fillInts} {
			for _, interior := range []bool{false, true} {
				label := fmt.Sprintf("%s/scheme=%d/interior=%v", name, scheme, interior)
				cfg := diffConfig{scheme: scheme, interior: interior, seed: 42}
				if !diffProgram(t, label, prog, cfg) {
					t.Fatalf("%s: example is outside the compiled subset", label)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Randomized differential property tests.
// ---------------------------------------------------------------------

// typedExpr generates a random float-typed expression over a fixed
// differential environment (arrays A 4x4 and B 3x4, vector p, floats
// x/y, global g, loop key/val).
func typedFloatExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(7) {
		case 0:
			return &Num{Val: float64(rng.Intn(5))}
		case 1:
			return &Ident{Name: "x"}
		case 2:
			return &Ident{Name: "y"}
		case 3:
			return &Ident{Name: "g"}
		case 4:
			return &Ident{Name: "v"}
		case 5:
			return &Index{Base: "key", Subs: []Expr{&Num{Val: float64(1 + rng.Intn(2))}}}
		default:
			return &Num{Val: rng.Float64()}
		}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []string{"+", "-", "*", "/"}
		return &BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedFloatExpr(rng, depth-1), R: typedFloatExpr(rng, depth-1)}
	case 1:
		return &UnOp{Op: "-", X: typedFloatExpr(rng, depth-1)}
	case 2:
		fns := []string{"abs", "abs2", "sqrt", "exp", "sigmoid", "floor", "ceil"}
		return &Call{Fn: fns[rng.Intn(len(fns))], Args: []Expr{typedFloatExpr(rng, depth-1)}}
	case 3:
		fn := []string{"min", "max"}[rng.Intn(2)]
		return &Call{Fn: fn, Args: []Expr{typedFloatExpr(rng, depth-1), typedFloatExpr(rng, depth-1)}}
	case 4:
		return &Index{Base: "A", Subs: []Expr{typedSub(rng), typedSub(rng)}}
	case 5:
		return &Call{Fn: "dot", Args: []Expr{typedVecExpr(rng, depth-1), typedVecExpr(rng, depth-1)}}
	case 6:
		return &Index{Base: "p", Subs: []Expr{typedSub(rng)}}
	default:
		return &Call{Fn: "rand"}
	}
}

// typedSub generates a subscript expression that is usually in bounds
// for a 4-extent dimension (out-of-bounds panics are compared too, but
// should be rare so runs make progress).
func typedSub(rng *rand.Rand) Expr {
	switch rng.Intn(6) {
	case 0:
		return &Index{Base: "key", Subs: []Expr{&Num{Val: 2}}} // key[2] in 1..4
	case 1:
		return &Ident{Name: "x"}
	default:
		return &Num{Val: float64(1 + rng.Intn(4))}
	}
}

func typedVecExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &Index{Base: "A", Subs: []Expr{&RangeExpr{Full: true}, typedSub(rng)}}
		case 1:
			return &Call{Fn: "zeros", Args: []Expr{&Num{Val: 4}}}
		default:
			return &Ident{Name: "p"}
		}
	}
	switch rng.Intn(4) {
	case 0:
		ops := []string{"+", "-", "*"}
		return &BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedVecExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 1:
		return &BinOp{Op: "*", L: typedFloatExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 2:
		return &UnOp{Op: "-", X: typedVecExpr(rng, depth-1)}
	default:
		return typedVecExpr(rng, 0)
	}
}

func typedStmt(rng *rand.Rand, depth int) Stmt {
	ops := []string{"=", "+=", "-=", "*=", "/="}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(7) {
		case 0:
			return &Assign{Target: &Ident{Name: []string{"x", "y"}[rng.Intn(2)]},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 1:
			v := typedVecExpr(rng, 2)
			op := "="
			if _, isIdent := v.(*Ident); isIdent || rng.Intn(2) == 0 {
				op = []string{"+=", "-=", "*="}[rng.Intn(3)]
			}
			return &Assign{Target: &Ident{Name: "p"}, Op: op, Value: v}
		case 2:
			return &Assign{Target: &Index{Base: "p", Subs: []Expr{typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 3:
			return &Assign{Target: &Index{Base: "A", Subs: []Expr{typedSub(rng), typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 4:
			return &Assign{Target: &Index{Base: "A", Subs: []Expr{&RangeExpr{Full: true}, typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedVecExpr(rng, 2)}
		case 5:
			return &Assign{Target: &Index{Base: "buf", Subs: []Expr{typedSub(rng), typedSub(rng)}},
				Op: []string{"+=", "-="}[rng.Intn(2)], Value: typedFloatExpr(rng, 2)}
		default:
			return &Assign{Target: &Ident{Name: "acc"}, Op: "+=", Value: typedFloatExpr(rng, 2)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		cmp := []string{"<", "<=", ">", ">=", "==", "!="}
		st := &If{Cond: &BinOp{Op: cmp[rng.Intn(len(cmp))],
			L: typedFloatExpr(rng, 1), R: typedFloatExpr(rng, 1)},
			Then: []Stmt{typedStmt(rng, depth-1)}}
		if rng.Intn(2) == 0 {
			st.Else = []Stmt{typedStmt(rng, depth-1)}
		}
		return st
	case 1:
		return &ForRange{Var: "k", Lo: &Num{Val: 1}, Hi: &Num{Val: float64(1 + rng.Intn(3))},
			Body: []Stmt{typedStmt(rng, depth-1)}}
	default:
		return &ExprStmt{X: typedFloatExpr(rng, 2)}
	}
}

// TestDifferentialRandomPrograms: randomly generated (mostly
// well-typed) loops must behave identically under both backends.
func TestDifferentialRandomPrograms(t *testing.T) {
	env := &Env{
		Arrays: map[string][]int64{
			"data": {5, 4},
			"A":    {4, 4},
			"B":    {3, 4},
		},
		Buffers: map[string]string{"buf": "A"},
	}
	rng := rand.New(rand.NewSource(2026))
	compiledCount := 0
	for trial := 0; trial < 300; trial++ {
		loop := &Loop{KeyVar: "key", ValVar: "v", IterVar: "data"}
		// A prelude defines the locals so later statements mostly hit
		// the defined path; error paths still occur via OOB subscripts
		// and vector length mismatches.
		loop.Body = []Stmt{
			&Assign{Target: &Ident{Name: "x"}, Op: "=", Value: &Index{Base: "key", Subs: []Expr{&Num{Val: 2}}}},
			&Assign{Target: &Ident{Name: "y"}, Op: "=", Value: &Ident{Name: "v"}},
			&Assign{Target: &Ident{Name: "p"}, Op: "=", Value: &Call{Fn: "zeros", Args: []Expr{&Num{Val: 4}}}},
		}
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			loop.Body = append(loop.Body, typedStmt(rng, 2))
		}
		// Round-trip through source so the test covers exactly what the
		// wire protocol ships.
		src := loop.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated loop does not parse: %v\n%s", trial, err, src)
		}
		prog := &Program{Env: env, Globals: []string{"g"}, Loop: parsed}
		cfg := diffConfig{scheme: fillInts, seed: int64(trial), maxIters: 20}
		if diffProgram(t, fmt.Sprintf("trial %d:\n%s", trial, src), prog, cfg) {
			compiledCount++
		}
	}
	if compiledCount < 200 {
		t.Fatalf("only %d/300 random programs were compilable — generator or compiler subset too narrow", compiledCount)
	}
}

// TestDifferentialRandomASTs reuses the untyped AST generator: whenever
// one of its (frequently ill-typed) loops happens to compile, the two
// backends must still agree.
func TestDifferentialRandomASTs(t *testing.T) {
	env := &Env{Arrays: map[string][]int64{
		"data": {4, 3},
		"A":    {4, 3},
	}}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		loop := &Loop{KeyVar: "key", ValVar: "v", IterVar: "data"}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			loop.Body = append(loop.Body, randomStmt(rng, 2))
		}
		prog := &Program{Env: env, Loop: loop}
		cfg := diffConfig{scheme: fillInts, seed: int64(trial), maxIters: 12}
		diffProgram(t, fmt.Sprintf("trial %d:\n%s", trial, loop.String()), prog, cfg)
	}
}

// ---------------------------------------------------------------------
// Compiled-backend unit tests.
// ---------------------------------------------------------------------

func compileMF(t testing.TB) (*CompiledLoop, *Loop) {
	t.Helper()
	loop, err := Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := CompileLoop(loop, &CompileEnv{
		Arrays: map[string][]int64{
			"ratings": {100, 100}, "W": {16, 100}, "H": {16, 100},
		},
		Globals: []string{"step_size"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, loop
}

func bindMF(t testing.TB, cl *CompiledLoop) (*CompiledKernel, *dsm.DistArray, *dsm.DistArray) {
	t.Helper()
	k := cl.NewKernel()
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

// TestCompiledMFMatchesInterp: spot-check the MF body end to end.
func TestCompiledMFMatchesInterp(t *testing.T) {
	cl, loop := compileMF(t)
	k, w, h := bindMF(t, cl)

	m := NewMachine()
	wi := w.Clone()
	hi := h.Clone()
	m.Arrays["ratings"] = dsm.NewSparse("ratings", 100, 100)
	m.Arrays["W"] = wi
	m.Arrays["H"] = hi
	m.Globals["step_size"] = float64(0.01)

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		key := []int64{int64(rng.Intn(100)), int64(rng.Intn(100))}
		val := rng.Float64() * 5
		if err := k.RunIteration(key, val); err != nil {
			t.Fatalf("compiled iteration %d: %v", i, err)
		}
		if err := m.RunIteration(loop, key, val); err != nil {
			t.Fatalf("interp iteration %d: %v", i, err)
		}
	}
	for r := 0; r < 16; r++ {
		for c := 0; c < 100; c++ {
			if math.Float64bits(w.At(int64(r), int64(c))) != math.Float64bits(wi.At(int64(r), int64(c))) {
				t.Fatalf("W[%d,%d] diverged: %v vs %v", r, c, w.At(int64(r), int64(c)), wi.At(int64(r), int64(c)))
			}
			if math.Float64bits(h.At(int64(r), int64(c))) != math.Float64bits(hi.At(int64(r), int64(c))) {
				t.Fatalf("H[%d,%d] diverged: %v vs %v", r, c, h.At(int64(r), int64(c)), hi.At(int64(r), int64(c)))
			}
		}
	}
}

// TestCompiledZeroAllocs: the acceptance criterion — a steady-state
// compiled MF SGD iteration performs zero allocations.
func TestCompiledZeroAllocs(t *testing.T) {
	cl, _ := compileMF(t)
	k, _, _ := bindMF(t, cl)
	key := []int64{3, 7}
	// Warm the scratch slabs.
	for i := 0; i < 4; i++ {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := k.RunIteration(key, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled MF iteration allocates %v times, want 0", allocs)
	}
}

// TestCompiledSpeedup: the compiled backend must beat the interpreter
// by a wide margin on the MF body (acceptance says >= 3x; assert a
// conservative 2x so CI noise cannot flake the gate).
func TestCompiledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	loop, err := Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := compileMF(t)
	k, _, _ := bindMF(t, cl)
	m := NewMachine()
	m.Arrays["ratings"] = dsm.NewSparse("ratings", 100, 100)
	m.Arrays["W"] = dsm.NewDense("W", 16, 100)
	m.Arrays["H"] = dsm.NewDense("H", 16, 100)
	m.Globals["step_size"] = float64(0.01)
	key := []int64{3, 7}

	compiled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := k.RunIteration(key, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	interp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.RunIteration(loop, key, 1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	ci := compiled.NsPerOp()
	ii := interp.NsPerOp()
	if ci <= 0 || ii <= 0 {
		t.Skipf("timer resolution too coarse: compiled %d ns, interp %d ns", ci, ii)
	}
	if ii < 2*ci {
		t.Fatalf("compiled backend is not >=2x faster: interp %d ns/iter, compiled %d ns/iter", ii, ci)
	}
	t.Logf("interp %d ns/iter, compiled %d ns/iter (%.1fx)", ii, ci, float64(ii)/float64(ci))
}

// TestNotCompilable: constructs outside the compiled subset must be
// rejected with *NotCompilableError (so callers fall back), never
// miscompiled.
func TestNotCompilable(t *testing.T) {
	env := &CompileEnv{
		Arrays:  map[string][]int64{"data": {4, 4}, "A": {4, 4}},
		Globals: []string{"g"},
	}
	cases := []struct{ name, src string }{
		{"key as value", "for (key, v) in data\n    x = key\nend\n"},
		{"vector aliasing", "for (key, v) in data\n    p = A[:, 1]\n    q = p\nend\n"},
		{"whole-array ref", "for (key, v) in data\n    x = A\nend\n"},
		{"vector comparison", "for (key, v) in data\n    p = A[:, 1] < 2\nend\n"},
		{"type conflict", "for (key, v) in data\n    x = 1\n    x = A[:, 1]\nend\n"},
		{"if non-bool", "for (key, v) in data\n    if v\n        x = 1\n    end\nend\n"},
		{"unknown function", "for (key, v) in data\n    x = frob(v)\nend\n"},
		{"arity mismatch", "for (key, v) in data\n    x = A[1]\nend\n"},
		{"two ranges", "for (key, v) in data\n    p = A[:, :]\nend\n"},
		{"local shadows array", "for (key, v) in data\n    A = 1\nend\n"},
		{"global vec assign", "for (key, v) in data\n    g = A[:, 1]\nend\n"},
	}
	for _, tc := range cases {
		loop, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		_, err = CompileLoop(loop, env)
		if err == nil {
			t.Fatalf("%s: expected NotCompilableError, compiled fine", tc.name)
		}
		if _, ok := err.(*NotCompilableError); !ok {
			t.Fatalf("%s: error %T is not *NotCompilableError: %v", tc.name, err, err)
		}
	}
}

// TestCompiledRuntimeErrors: runtime faults must carry the exact
// interpreter messages (the differential fuzzer depends on it).
func TestCompiledRuntimeErrors(t *testing.T) {
	env := &CompileEnv{
		Arrays:  map[string][]int64{"data": {4, 4}, "A": {4, 4}, "B": {3, 4}},
		Globals: []string{"g"},
	}
	cases := []struct{ name, src, want string }{
		{"undefined read", "for (key, v) in data\n    if v < 0\n        x = 1\n    end\n    y = x\nend\n",
			`lang: undefined variable "x"`},
		{"compound undefined", "for (key, v) in data\n    if v < 0\n        x = 1\n    end\n    x += 1\nend\n",
			`lang: += of undefined variable "x"`},
		{"key oob", "for (key, v) in data\n    x = key[3]\nend\n",
			"lang: key subscript 3 out of range"},
		{"dot mismatch", "for (key, v) in data\n    x = dot(A[:, 1], B[:, 1])\nend\n",
			"lang: dot needs two equal-length vectors"},
		{"vec length mismatch", "for (key, v) in data\n    p = A[:, 1] + B[:, 1]\nend\n",
			"lang: vector length mismatch 4 vs 3"},
		{"range write mismatch", "for (key, v) in data\n    A[:, 1] = B[:, 1]\nend\n",
			"lang: A: vector length 3 does not match range 1:4"},
		{"rand without rng", "for (key, v) in data\n    x = rand()\nend\n",
			"lang: rand() requires a Machine with an Rng"},
		{"vec subscript oob", "for (key, v) in data\n    p = zeros(2)\n    x = p[5]\nend\n",
			"lang: vector subscript 5 out of range"},
		{"undefined global", "for (key, v) in data\n    x = g\nend\n",
			`lang: undefined variable "g"`},
	}
	for _, tc := range cases {
		loop, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		cl, err := CompileLoop(loop, env)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		k := cl.NewKernel()
		for name, dims := range env.Arrays {
			if err := k.BindArray(name, dsm.NewDense(name, dims...)); err != nil {
				t.Fatal(err)
			}
		}
		err = k.RunIteration([]int64{0, 0}, 1)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// ---------------------------------------------------------------------
// Satellite: RunLoop early termination.
// ---------------------------------------------------------------------

// countingIter is an iteration-space double that counts visits. The
// base version only supports the legacy full-walk ForEach.
type countingIter struct {
	n      int
	visits int
}

func (c *countingIter) Dims() []int64                 { return []int64{int64(c.n)} }
func (c *countingIter) At(idx ...int64) float64       { return 0 }
func (c *countingIter) SetAt(v float64, idx ...int64) {}
func (c *countingIter) ForEach(f func(idx []int64, v float64)) {
	for i := 0; i < c.n; i++ {
		c.visits++
		f([]int64{int64(i)}, 0)
	}
}

// stoppingIter additionally supports early termination.
type stoppingIter struct{ countingIter }

func (c *stoppingIter) ForEachUntil(f func(idx []int64, v float64) bool) {
	for i := 0; i < c.n; i++ {
		c.visits++
		if !f([]int64{int64(i)}, 0) {
			return
		}
	}
}

// TestRunLoopStopsOnError: an iteration error must stop the walk when
// the iteration space supports early termination, and must still
// surface (skipping the tail) when it does not.
func TestRunLoopStopsOnError(t *testing.T) {
	// x is defined only when v > 0; the iterator yields v = 0, so the
	// read errors on the first iteration under both backends.
	loop, err := Parse("for (key, v) in data\n    if v > 0\n        x = 1\n    end\n    y = x\nend\n")
	if err != nil {
		t.Fatal(err)
	}

	m := NewMachine()
	stopper := &stoppingIter{countingIter{n: 100}}
	m.Arrays["data"] = stopper
	if err := m.RunLoop(loop); err == nil {
		t.Fatal("expected an error")
	}
	if stopper.visits != 1 {
		t.Fatalf("early-terminating walk visited %d elements, want 1", stopper.visits)
	}

	m2 := NewMachine()
	legacy := &countingIter{n: 100}
	m2.Arrays["data"] = legacy
	if err := m2.RunLoop(loop); err == nil {
		t.Fatal("expected an error")
	}
	if legacy.visits != 100 {
		t.Fatalf("legacy walk visited %d elements, want 100 (skip semantics)", legacy.visits)
	}

	// The compiled backend stops early too.
	cl, err := CompileLoop(loop, &CompileEnv{Arrays: map[string][]int64{"data": {100}}})
	if err != nil {
		t.Fatal(err)
	}
	k := cl.NewKernel()
	stopper2 := &stoppingIter{countingIter{n: 100}}
	if err := k.BindArray("data", stopper2); err != nil {
		t.Fatal(err)
	}
	if err := k.RunLoop(); err == nil {
		t.Fatal("expected an error")
	}
	if stopper2.visits != 1 {
		t.Fatalf("compiled early-terminating walk visited %d elements, want 1", stopper2.visits)
	}
}

// TestDistArrayForEachUntil: the DistArray implementation visits in
// ForEach order and stops on demand, for dense and sparse layouts.
func TestDistArrayForEachUntil(t *testing.T) {
	dense := dsm.NewDense("d", 3, 2)
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 2; j++ {
			dense.SetAt(float64(i*10+j), i, j)
		}
	}
	sparse := dsm.NewSparse("s", 5)
	sparse.SetAt(1, 4)
	sparse.SetAt(2, 1)
	sparse.SetAt(3, 3)
	for _, a := range []*dsm.DistArray{dense, sparse} {
		var full, until [][]int64
		a.ForEach(func(idx []int64, v float64) {
			full = append(full, append([]int64(nil), idx...))
		})
		a.ForEachUntil(func(idx []int64, v float64) bool {
			until = append(until, append([]int64(nil), idx...))
			return true
		})
		if fmt.Sprint(full) != fmt.Sprint(until) {
			t.Fatalf("%s: order differs: %v vs %v", a.Name(), full, until)
		}
		var count int
		a.ForEachUntil(func(idx []int64, v float64) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Fatalf("%s: early stop visited %d elements, want 2", a.Name(), count)
		}
	}
}

// TestStepBudgetParity: both backends hit the budget at the same point
// with the same error.
func TestStepBudgetParity(t *testing.T) {
	src := "for (key, v) in data\n    acc = 0\n    for k = 1:100\n        acc += k\n    end\nend\n"
	prog := &Program{
		Env:  &Env{Arrays: map[string][]int64{"data": {3, 3}}},
		Loop: mustParse(t, src),
	}
	cfg := diffConfig{scheme: fillInts, seed: 5, budget: 150, vecLimit: 64}
	if !diffProgram(t, "step budget", prog, cfg) {
		t.Fatal("budget program should be compilable")
	}
}

func mustParse(t *testing.T, src string) *Loop {
	t.Helper()
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return loop
}
