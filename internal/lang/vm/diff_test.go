package vm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// ---------------------------------------------------------------------
// Three-way differential harness: run a program under the interpreter,
// the closure compiler, and the bytecode VM, and require bitwise-
// identical outcomes — same stop point, same error or panic, same
// DistArray contents, same global/accumulator values. The two compiled
// backends must also agree exactly on what is compilable.
// ---------------------------------------------------------------------

const (
	fillFloats = iota // uniform [0,1) values
	fillInts          // small integers 1..6 (usable as subscripts)
)

func buildArrays(env *lang.Env, scheme int, seed int64) map[string]*dsm.DistArray {
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

func diffGlobals(env *lang.Env, loop *lang.Loop, declared []string) map[string]float64 {
	known := map[string]float64{
		"step_size": 0.05, "K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8,
	}
	accums := map[string]bool{}
	for _, a := range lang.Accumulators(loop) {
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
	if spec, err := lang.Analyze(loop, env); err == nil {
		add(spec.Inherited)
	}
	add(lang.Accumulators(loop))
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

type backendResult struct {
	arrays   map[string]*dsm.DistArray
	stop     int
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
	block    bool // drive the VM through RunBlock instead of RunIteration
}

func runInterp(prog *lang.Program, globals map[string]float64, cfg diffConfig) backendResult {
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
	m := lang.NewMachine()
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
	for n, b := range m.Buffers {
		b.(*dsm.Buffer).Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		res.globals[n] = m.Globals[n].(float64)
	}
	return res
}

// kernelAPI is the surface shared by the two compiled backends; the
// harness drives both through it.
type kernelAPI interface {
	BindArray(name string, a lang.ArrayAccess) error
	BindBuffer(name string, b lang.BufferAccess) error
	SetRng(r lang.RandSource)
	SetStepBudget(n int64)
	SetVecLimit(n int64)
	SetGlobal(name string, v float64) bool
	Global(name string) (float64, bool)
	RunIteration(key []int64, val float64) error
}

func globalNames(globals map[string]float64) []string {
	names := make([]string, 0, len(globals))
	for n := range globals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runKernel(t *testing.T, prog *lang.Program, globals map[string]float64, cfg diffConfig, k kernelAPI, runBlock func(keys [][]int64, vals []float64, progress *int) (int, error)) backendResult {
	t.Helper()
	arrays := buildArrays(prog.Env, cfg.scheme, cfg.seed)
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
	if runBlock != nil {
		// progress escapes through the onIter callback: when a panic
		// unwinds RunBlock, its return value is lost, but the completed
		// count written per iteration survives.
		var progress int
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.panicked = true
					res.panicMsg = fmt.Sprint(r)
				}
			}()
			done, err := runBlock(keys, vals, &progress)
			progress = done
			if err != nil {
				res.errMsg = err.Error()
			}
		}()
		res.stop = progress
	} else {
		res.stop, res.errMsg, res.panicked, res.panicMsg = runOne(func(i int) error {
			return k.RunIteration(keys[i], vals[i])
		}, len(keys))
	}
	for n, b := range bufs {
		b.Flush(arrays[prog.Env.Buffers[n]])
	}
	for n := range globals {
		v, _ := k.Global(n)
		res.globals[n] = v
	}
	return res
}

func compareResults(t *testing.T, label, bname string, ref, got backendResult) {
	t.Helper()
	if ref.stop != got.stop {
		t.Fatalf("%s: interp stopped after %d iterations, %s after %d (interp err=%q panic=%q; %s err=%q panic=%q)",
			label, ref.stop, bname, got.stop, ref.errMsg, ref.panicMsg, bname, got.errMsg, got.panicMsg)
	}
	if ref.errMsg != got.errMsg {
		t.Fatalf("%s: error mismatch:\ninterp: %q\n%s: %q", label, ref.errMsg, bname, got.errMsg)
	}
	if ref.panicked != got.panicked || ref.panicMsg != got.panicMsg {
		t.Fatalf("%s: panic mismatch:\ninterp: %v %q\n%s: %v %q",
			label, ref.panicked, ref.panicMsg, bname, got.panicked, got.panicMsg)
	}
	for n, a := range ref.arrays {
		b := got.arrays[n]
		mismatch := ""
		a.ForEach(func(idx []int64, v float64) {
			if mismatch != "" {
				return
			}
			if w := b.At(idx...); canonBits(w) != canonBits(v) {
				mismatch = fmt.Sprintf("array %s%v: interp %v, %s %v", n, idx, v, bname, w)
			}
		})
		if mismatch != "" {
			t.Fatalf("%s: %s", label, mismatch)
		}
	}
	for n, v := range ref.globals {
		if w := got.globals[n]; canonBits(w) != canonBits(v) {
			t.Fatalf("%s: global %s: interp %v, %s %v", label, n, v, bname, w)
		}
	}
}

// canonBits is Float64bits with NaN payloads collapsed to one value.
// Go leaves NaN propagation unspecified — with two NaN operands, which
// payload `a*b` returns depends on the operand the compiler places in
// the destination register, so independently compiled backends can
// legitimately disagree on NaN sign and payload bits. Every non-NaN
// value still compares bitwise, signed zeros included.
func canonBits(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// diffProgram runs one parsed program under all three backends.
// Returns false when the program is outside the compiled subset — in
// which case BOTH compiled backends must have rejected it.
func diffProgram(t *testing.T, label string, prog *lang.Program, cfg diffConfig) bool {
	t.Helper()
	globals := diffGlobals(prog.Env, prog.Loop, prog.Globals)
	cenv := &lang.CompileEnv{
		Arrays:  prog.Env.Arrays,
		Buffers: prog.Env.Buffers,
		Globals: globalNames(globals),
	}
	cl, clErr := lang.CompileLoop(prog.Loop, cenv)
	p, vmErr := Compile(prog.Loop, cenv)
	if (clErr == nil) != (vmErr == nil) {
		t.Fatalf("%s: backends disagree on compilability:\nclosure: %v\nvm:      %v", label, clErr, vmErr)
	}
	if clErr != nil {
		if _, ok := clErr.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: CompileLoop failed with %T: %v", label, clErr, clErr)
		}
		if _, ok := vmErr.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: vm.Compile failed with %T: %v", label, vmErr, vmErr)
		}
		return false
	}
	interp := runInterp(prog, globals, cfg)
	compiled := runKernel(t, prog, globals, cfg, cl.NewKernel(), nil)
	compareResults(t, label, "compiled", interp, compiled)
	vk := p.NewKernel()
	var blockFn func([][]int64, []float64, *int) (int, error)
	if cfg.block {
		blockFn = func(keys [][]int64, vals []float64, progress *int) (int, error) {
			return vk.RunBlock(keys, vals, func(i int) { *progress = i + 1 })
		}
	}
	vmRes := runKernel(t, prog, globals, cfg, vk, blockFn)
	compareResults(t, label, "vm", interp, vmRes)
	return true
}

func exampleProgramSources(t testing.TB) map[string]string {
	pattern := filepath.Join("..", "..", "..", "examples", "*", "*.orion")
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

// TestDifferentialExamples: every shipped example must compile under
// both compiled backends and produce bitwise-identical results across
// all three, across fill schemes, walk restrictions, and both the
// per-iteration and batched (RunBlock) VM drivers.
func TestDifferentialExamples(t *testing.T) {
	for name, src := range exampleProgramSources(t) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, scheme := range []int{fillFloats, fillInts} {
			for _, interior := range []bool{false, true} {
				for _, block := range []bool{false, true} {
					label := fmt.Sprintf("%s/scheme=%d/interior=%v/block=%v", name, scheme, interior, block)
					cfg := diffConfig{scheme: scheme, interior: interior, seed: 42, block: block}
					if !diffProgram(t, label, prog, cfg) {
						t.Fatalf("%s: example is outside the compiled subset", label)
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Randomized three-way differential property tests.
// ---------------------------------------------------------------------

func typedFloatExpr(rng *rand.Rand, depth int) lang.Expr {
	if depth <= 0 {
		switch rng.Intn(7) {
		case 0:
			return &lang.Num{Val: float64(rng.Intn(5))}
		case 1:
			return &lang.Ident{Name: "x"}
		case 2:
			return &lang.Ident{Name: "y"}
		case 3:
			return &lang.Ident{Name: "g"}
		case 4:
			return &lang.Ident{Name: "v"}
		case 5:
			return &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: float64(1 + rng.Intn(2))}}}
		default:
			return &lang.Num{Val: rng.Float64()}
		}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []string{"+", "-", "*", "/"}
		return &lang.BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedFloatExpr(rng, depth-1), R: typedFloatExpr(rng, depth-1)}
	case 1:
		return &lang.UnOp{Op: "-", X: typedFloatExpr(rng, depth-1)}
	case 2:
		fns := []string{"abs", "abs2", "sqrt", "exp", "sigmoid", "floor", "ceil"}
		return &lang.Call{Fn: fns[rng.Intn(len(fns))], Args: []lang.Expr{typedFloatExpr(rng, depth-1)}}
	case 3:
		fn := []string{"min", "max"}[rng.Intn(2)]
		return &lang.Call{Fn: fn, Args: []lang.Expr{typedFloatExpr(rng, depth-1), typedFloatExpr(rng, depth-1)}}
	case 4:
		return &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}}
	case 5:
		return &lang.Call{Fn: "dot", Args: []lang.Expr{typedVecExpr(rng, depth-1), typedVecExpr(rng, depth-1)}}
	case 6:
		return &lang.Index{Base: "p", Subs: []lang.Expr{typedSub(rng)}}
	default:
		return &lang.Call{Fn: "rand"}
	}
}

func typedSub(rng *rand.Rand) lang.Expr {
	switch rng.Intn(6) {
	case 0:
		return &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: 2}}}
	case 1:
		return &lang.Ident{Name: "x"}
	default:
		return &lang.Num{Val: float64(1 + rng.Intn(4))}
	}
}

func typedVecExpr(rng *rand.Rand, depth int) lang.Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &lang.Index{Base: "A", Subs: []lang.Expr{&lang.RangeExpr{Full: true}, typedSub(rng)}}
		case 1:
			return &lang.Call{Fn: "zeros", Args: []lang.Expr{&lang.Num{Val: 4}}}
		default:
			return &lang.Ident{Name: "p"}
		}
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"+", "-", "*"}
		return &lang.BinOp{Op: ops[rng.Intn(len(ops))],
			L: typedVecExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 1:
		return &lang.BinOp{Op: "*", L: typedFloatExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}
	case 2:
		// The AxpyRow fusion shape: vec ± scalar*vec.
		return &lang.BinOp{Op: []string{"+", "-"}[rng.Intn(2)],
			L: typedVecExpr(rng, depth-1),
			R: &lang.BinOp{Op: "*", L: typedFloatExpr(rng, depth-1), R: typedVecExpr(rng, depth-1)}}
	case 3:
		return &lang.UnOp{Op: "-", X: typedVecExpr(rng, depth-1)}
	default:
		return typedVecExpr(rng, 0)
	}
}

func typedStmt(rng *rand.Rand, depth int) lang.Stmt {
	ops := []string{"=", "+=", "-=", "*=", "/="}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return &lang.Assign{Target: &lang.Ident{Name: []string{"x", "y"}[rng.Intn(2)]},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 1:
			v := typedVecExpr(rng, 2)
			op := "="
			if _, isIdent := v.(*lang.Ident); isIdent || rng.Intn(2) == 0 {
				op = []string{"+=", "-=", "*="}[rng.Intn(3)]
			}
			return &lang.Assign{Target: &lang.Ident{Name: "p"}, Op: op, Value: v}
		case 2:
			return &lang.Assign{Target: &lang.Index{Base: "p", Subs: []lang.Expr{typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 3:
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedFloatExpr(rng, 2)}
		case 4:
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: []lang.Expr{&lang.RangeExpr{Full: true}, typedSub(rng)}},
				Op: ops[rng.Intn(len(ops))], Value: typedVecExpr(rng, 2)}
		case 5:
			// Partial-range update on the second dimension (strided).
			return &lang.Assign{Target: &lang.Index{Base: "A", Subs: []lang.Expr{typedSub(rng),
				&lang.RangeExpr{Lo: &lang.Num{Val: 1}, Hi: &lang.Num{Val: 4}}}},
				Op: []string{"=", "+=", "*="}[rng.Intn(3)], Value: typedVecExpr(rng, 1)}
		case 6:
			return &lang.Assign{Target: &lang.Index{Base: "buf", Subs: []lang.Expr{typedSub(rng), typedSub(rng)}},
				Op: []string{"+=", "-="}[rng.Intn(2)], Value: typedFloatExpr(rng, 2)}
		default:
			return &lang.Assign{Target: &lang.Ident{Name: "acc"}, Op: "+=", Value: typedFloatExpr(rng, 2)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		cmp := []string{"<", "<=", ">", ">=", "==", "!="}
		st := &lang.If{Cond: &lang.BinOp{Op: cmp[rng.Intn(len(cmp))],
			L: typedFloatExpr(rng, 1), R: typedFloatExpr(rng, 1)},
			Then: []lang.Stmt{typedStmt(rng, depth-1)}}
		if rng.Intn(2) == 0 {
			st.Else = []lang.Stmt{typedStmt(rng, depth-1)}
		}
		return st
	case 1:
		return &lang.ForRange{Var: "k", Lo: &lang.Num{Val: 1}, Hi: &lang.Num{Val: float64(1 + rng.Intn(3))},
			Body: []lang.Stmt{typedStmt(rng, depth-1)}}
	default:
		return &lang.ExprStmt{X: typedFloatExpr(rng, 2)}
	}
}

// TestDifferentialRandomPrograms: randomly generated (mostly
// well-typed) loops must behave identically under all three backends.
func TestDifferentialRandomPrograms(t *testing.T) {
	env := &lang.Env{
		Arrays: map[string][]int64{
			"data": {5, 4},
			"A":    {4, 4},
			"B":    {3, 4},
		},
		Buffers: map[string]string{"buf": "A"},
	}
	rng := rand.New(rand.NewSource(2027))
	compiledCount := 0
	for trial := 0; trial < 300; trial++ {
		loop := &lang.Loop{KeyVar: "key", ValVar: "v", IterVar: "data"}
		loop.Body = []lang.Stmt{
			&lang.Assign{Target: &lang.Ident{Name: "x"}, Op: "=", Value: &lang.Index{Base: "key", Subs: []lang.Expr{&lang.Num{Val: 2}}}},
			&lang.Assign{Target: &lang.Ident{Name: "y"}, Op: "=", Value: &lang.Ident{Name: "v"}},
			&lang.Assign{Target: &lang.Ident{Name: "p"}, Op: "=", Value: &lang.Call{Fn: "zeros", Args: []lang.Expr{&lang.Num{Val: 4}}}},
		}
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			loop.Body = append(loop.Body, typedStmt(rng, 2))
		}
		src := loop.String()
		parsed, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated loop does not parse: %v\n%s", trial, err, src)
		}
		prog := &lang.Program{Env: env, Globals: []string{"g"}, Loop: parsed}
		cfg := diffConfig{scheme: fillInts, seed: int64(trial), maxIters: 20, block: trial%2 == 0}
		if diffProgram(t, fmt.Sprintf("trial %d:\n%s", trial, src), prog, cfg) {
			compiledCount++
		}
	}
	if compiledCount < 200 {
		t.Fatalf("only %d/300 random programs were compilable — generator or compiler subset too narrow", compiledCount)
	}
}

// TestVMNotCompilable: the VM must reject exactly the constructs the
// closure backend rejects, with *lang.NotCompilableError.
func TestVMNotCompilable(t *testing.T) {
	env := &lang.CompileEnv{
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
		loop, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		_, err = Compile(loop, env)
		if err == nil {
			t.Fatalf("%s: expected NotCompilableError, compiled fine", tc.name)
		}
		if _, ok := err.(*lang.NotCompilableError); !ok {
			t.Fatalf("%s: error %T is not *lang.NotCompilableError: %v", tc.name, err, err)
		}
	}
}

// TestVMRuntimeErrors: runtime faults must carry the exact interpreter
// messages (the three-way differential fuzzer depends on it).
func TestVMRuntimeErrors(t *testing.T) {
	env := &lang.CompileEnv{
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
		{"axpy length mismatch", "for (key, v) in data\n    p = A[:, 1] + v * B[:, 1]\nend\n",
			"lang: vector length mismatch 4 vs 3"},
		{"range write mismatch", "for (key, v) in data\n    A[:, 1] = B[:, 1]\nend\n",
			"lang: A: vector length 3 does not match range 1:4"},
		{"rand without rng", "for (key, v) in data\n    x = rand()\nend\n",
			"lang: rand() requires a Machine with an Rng"},
		{"vec subscript oob", "for (key, v) in data\n    p = zeros(2)\n    x = p[5]\nend\n",
			"lang: vector subscript 5 out of range"},
		{"undefined global", "for (key, v) in data\n    x = g\nend\n",
			`lang: undefined variable "g"`},
		{"fused axpy length mismatch", "for (key, v) in data\n    p = A[:, 1]\n    A[:, 1] = p - v * (2 * B[:, 1])\nend\n",
			"lang: vector length mismatch 4 vs 3"},
		{"fused store range mismatch", "for (key, v) in data\n    p = A[:, 1]\n    B[:, 1] = p - v * (2 * p)\nend\n",
			"lang: B: vector length 4 does not match range 1:3"},
	}
	for _, tc := range cases {
		loop, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		p, err := Compile(loop, env)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		k := p.NewKernel()
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

// rewriteProgs hold optimize's rewrites to their legality rules. Each
// names what fusions prints for its borrowed column locals and AxpyRows,
// and must run bitwise as the interpreter does, faults included
// (TestRewriteLegality); they also seed FuzzExecDifferential, and
// TestCompileCensus pins their counts.
var rewriteProgs = []struct{ name, src, want string }{
	// Both updates fuse and H_row is borrowed: W_row stays materialized,
	// so H's update reads it unchanged past W's store.
	{"mf", "array ratings 4 4\narray W 3 4\narray H 3 4\nglobal step_size\n---" + mfSrc, "borrow scaled+store scaled+store"},
	// w is read twice, so it stays materialized.
	{"read-twice", `array data 4 4
array A 4 4
global g
---
for (key, v) in data
    p = A[:, key[1]]
    w = v * p
    A[:, key[1]] = p - g * w
    acc += dot(w, w)
end
`, "borrow store"},
	// The scale c is written between w's definition and its read.
	{"scale-redefined", `array data 4 4
array A 4 4
global g
---
for (key, v) in data
    p = A[:, key[1]]
    c = v + 1
    w = c * p
    c = -2 * v
    A[:, key[1]] = p - g * w
    acc += c
end
`, "borrow store"},
	// The scaled vector p is rebound, then written element-wise, between
	// w's definition and its read.
	{"vector-redefined", `array data 4 4
array A 4 4
global g
---
for (key, v) in data
    p = A[:, key[1]]
    w = v * p
    p = A[:, key[2]]
    A[:, key[1]] = p - g * w
    q = A[:, key[2]]
    u = v * q
    q[2] = 7
    A[:, key[2]] = q + g * u
end
`, "store store"},
	// The destination is also an operand, viewed in place: A[:, j] with
	// j == k on the diagonal keys, A[:, k] itself as l, and a column of
	// B while a row of B is stored, which crosses it. No store fuses.
	{"dest-operand", `array data 4 4
array A 4 4
array B 4 4
global g
---
for (key, v) in data
    q = A[:, key[1]]
    A[:, key[1]] = q - g * (v * A[:, key[2]])
    A[:, key[2]] = A[:, key[2]] + g * q
    r = B[key[1], :]
    B[key[1], :] = r - g * (v * B[:, key[2]])
end
`, "scaled plain scaled"},
	// w views W and is read past a store to W: it stays materialized.
	// This is why MF's W_row must stay materialized for H_grad.
	{"delayed-operand", `array data 4 4
array W 4 4
array H 4 4
global g
---
for (key, v) in data
    w = v * W[:, key[1]]
    W[:, key[1]] = W[:, key[1]] * 0.5
    h = H[:, key[2]]
    H[:, key[2]] = h - g * w
end
`, "borrow store"},
	// l and c*v differ in length: the fused op faults as AxpyRow did.
	{"length-mismatch", `array data 4 4
array A 4 4
array B 3 4
global g
---
for (key, v) in data
    p = A[:, key[1]]
    A[:, key[1]] = p - g * (v * B[:, key[2]])
end
`, "borrow scaled+store"},
	// The result is longer than the range it is stored to: the fused
	// store misses and faults on opRowStV's reference path.
	{"range-mismatch", `array data 4 4
array A 4 4
array B 3 4
global g
---
for (key, v) in data
    p = A[:, key[2]]
    B[:, key[2]] = p - g * (v * p)
end
`, "borrow scaled+store"},
	// A column local is borrowed only where no read can see its array
	// change: p is read after a store to A (the same column when
	// key[1] == key[2]), and q is written element-wise; r's array is
	// stored only by r's last read, in place.
	{"borrow", `array data 4 4
array A 4 4
array B 4 4
array C 4 4
global g
---
for (key, v) in data
    p = A[:, key[1]]
    A[:, key[2]] = p * v
    acc += dot(p, p)
    q = C[:, key[1]]
    q[1] = v
    acc += dot(q, q)
    r = B[:, key[2]]
    B[:, key[2]] = r - g * (v * q)
end
`, "borrow scaled+store"},
	// CSE: a scalar recomputed after its operand, a local or a global,
	// was written is not shared; one recomputed with nothing written
	// between is.
	{"cse-redefined", `array data 4 4
global g
---
for (key, v) in data
    x = v * 3
    a = (x + 1) * 2
    x = v - 5
    b = (x + 1) * 2
    c = (g + 1) * 2
    g = v
    d = (g + 1) * 2
    e = (g + 1) * 2
    acc += a + b + c + d + e
end
`, ""},
	// Facts cross blocks: x is defined in both arms of the if/else, so
	// its check after the join is elided; y in one arm only, so its
	// check stays and faults in the first iteration that skipped the
	// arm, as the interpreter does.
	{"both-arms", `array data 4 4
---
for (key, v) in data
    if v > 0.5
        x = v * 2
    else
        x = v + 1
    end
    if v > 0.25
        y = x
    end
    acc += x * x + y
end
`, ""},
	// z is defined only inside a for body, which runs zero trips when
	// key[1] is 1: its check after the loop stays.
	{"zero-trips", `array data 4 4
---
for (key, v) in data
    for k = 2:key[1]
        z = v * k
    end
    acc += z
end
`, ""},
	// x + 1 is computed before the if and again after it: p shares it,
	// since nothing between writes x; q, after an arm that writes x,
	// does not.
	{"cse-arm", `array data 4 4
---
for (key, v) in data
    x = v * 3
    a = (x + 1) * 2
    if v > 0.5
        w = v
    end
    p = (x + 1) * 4
    if v > 0.5
        x = v - 5
    end
    q = (x + 1) * 2
    acc += a + p + q
end
`, ""},
	// No float local or literal: the shared temp is register 0.
	{"no-locals", `array data 4 4
global g h
---
for key in data
    acc += g * h + g * h
end
`, ""},
	// Literal point stores, plain and compound: every literal, negated
	// ones included, has its own pin, and each point store reads the
	// value from that pin.
	{"const-stores", `array data 4 4
array A 4 4
---
for (key, v) in data
    A[1, 1] = 1
    A[1, 2] = -1
    A[1, 3] = 2
    A[1, 4] = -2
    A[2, 1] = 3
    A[2, 2] = -3
    A[2, 3] += -4
    A[2, 4] *= 4
end
`, ""},
	// c may be undefined at the inner loop's header, but laneFor refuses
	// the loop for reading T without its loop variable after it noted
	// that need: the shape's reason stands.
	{"lane-shape-first", `array data 4 4
array T 6
---
for (key, v) in data
    if v > 0.5
        c = v
    end
    for k = 1:3
        u = T[k] * c
        w = u + T[1]
    end
    acc += c
end
`, ""},
	// s is read before a lane loop that reduces into it and again after:
	// the second read is not the first's value.
	{"lane-global", `array data 4 4
array T 6
global s
---
for (key, v) in data
    a = s * 2
    for k = 1:4
        s = s + T[k]
    end
    b = s * 2
    acc += a + b
end
`, ""},
	// The sampling loop's ifs with an else: the loop stays scalar.
	{"select-else", `array data 4 4
array T 6
---
for (key, v) in data
    chosen = 0
    total = 0
    for k = 1:4
        total = total + T[k]
        if v <= total
            chosen = k
        else
            chosen = 0
        end
    end
    acc += chosen
end
`, ""},
	// chosen, which the if assigns, is read by another statement of the
	// trip: the loop stays scalar.
	{"select-read", `array data 4 4
array T 6
---
for (key, v) in data
    chosen = 0
    total = 0
    for k = 1:4
        total = total + T[k]
        if v <= total
            chosen = k
        end
        w = chosen * 2
    end
    acc += chosen + w
end
`, ""},
	// The if compares the running sum before the trip adds to it, an
	// exclusive prefix: the loop stays scalar.
	{"select-before", `array data 4 4
array T 6
---
for (key, v) in data
    chosen = 0
    total = 0
    for k = 1:4
        if chosen == 0
            if v <= total
                chosen = k
            end
        end
        total = total + T[k]
    end
    acc += chosen + total
end
`, ""},
}

// fusions describes each vector local's borrowed column ("borrow") and
// each AxpyRow of p in code order: "scaled" when it scales its w inline,
// "store" when it writes a range site, "plain" when neither.
func fusions(p *Prog) string {
	var out []string
	for _, in := range p.code {
		if in.op == opRowViewV && int(in.a) < p.numVec {
			out = append(out, "borrow")
		}
		if in.op != opAxpyRow {
			continue
		}
		var f []string
		if ax := p.axpys[in.d]; ax.c >= 0 {
			f = append(f, "scaled")
		}
		if p.axpys[in.d].acc >= 0 {
			f = append(f, "store")
		}
		if len(f) == 0 {
			f = []string{"plain"}
		}
		out = append(out, strings.Join(f, "+"))
	}
	return strings.Join(out, " ")
}

// TestRewriteLegality: fuseRows fuses exactly where its rule allows — a
// single-use c*v whose operands nothing writes in between, a result
// stored with nothing between that can fault, no operand viewing the
// destination — borrowRows borrows only a column no read could see
// change, and every program, the CSE one included, runs bitwise as the
// interpreter does, stop point and fault text included. So does every
// lane program (laneProgs), with every global defined and no budget.
func TestRewriteLegality(t *testing.T) {
	for _, lp := range laneProgs {
		prog, err := lang.ParseProgram(lp.src)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		for _, scheme := range []int{fillFloats, fillInts} {
			for _, block := range []bool{false, true} {
				label := fmt.Sprintf("lane/%s/scheme=%d/block=%v", lp.name, scheme, block)
				diffProgram(t, label, prog, diffConfig{scheme: scheme, seed: 5, block: block})
			}
		}
	}
	for _, fp := range rewriteProgs {
		prog, err := lang.ParseProgram(fp.src)
		if err != nil {
			t.Fatalf("%s: %v", fp.name, err)
		}
		p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: globalNames(diffGlobals(prog.Env, prog.Loop, prog.Globals))})
		if err != nil {
			t.Fatalf("%s: %v", fp.name, err)
		}
		if got := fusions(p); got != fp.want {
			t.Errorf("%s: AxpyRows %q, want %q", fp.name, got, fp.want)
		}
		for _, scheme := range []int{fillFloats, fillInts} {
			for _, block := range []bool{false, true} {
				label := fmt.Sprintf("%s/scheme=%d/block=%v", fp.name, scheme, block)
				diffProgram(t, label, prog, diffConfig{scheme: scheme, seed: 5, block: block})
			}
		}
	}
}
