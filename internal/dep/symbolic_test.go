package dep

import (
	"math/rand"
	"testing"

	"orion/internal/ir"
)

// interleaveLoop mirrors examples/strided/interleave.orion: each
// iteration k updates out[2k] and out[2k+1] — stride-2 windows with
// different residues, so distinct iterations never collide.
func interleaveLoop() *ir.LoopSpec {
	even := []ir.Subscript{ir.Affine(0, 2, -1, 1)} // element 2k+1 (DSL 2*key[1])
	odd := []ir.Subscript{ir.Affine(0, 2, 0, 1)}   // element 2k+2 (DSL 2*key[1]+1)
	return &ir.LoopSpec{
		Name:           "interleave",
		IterSpaceArray: "cells",
		Dims:           []int64{8},
		Refs: []ir.ArrayRef{
			{Array: "out", Subs: even},
			{Array: "out", Subs: even, IsWrite: true},
			{Array: "out", Subs: odd},
			{Array: "out", Subs: odd, IsWrite: true},
		},
	}
}

func TestStridedInterleaveProvenIndependent(t *testing.T) {
	set, err := Analyze(interleaveLoop())
	if err != nil {
		t.Fatal(err)
	}
	if !set.Empty() {
		t.Fatalf("stride-2 interleave must be proven independent, got %v", set)
	}
	// Cross-check the proof against exhaustive enumeration.
	oracle := NewOracle(interleaveLoop(), map[string][]int64{"out": {32}})
	iters := oracle.Iterations()
	for i := range iters {
		for j := i + 1; j < len(iters); j++ {
			if oracle.Dependent(iters[i], iters[j]) {
				t.Fatalf("oracle disagrees: iterations %v and %v conflict", iters[i], iters[j])
			}
		}
	}
}

func TestEqualStrideDistance(t *testing.T) {
	// A[2k] = f(A[2(k-1)]): equal strides with offset difference 2 give
	// the exact distance-1 dependence, not a conservative +inf.
	loop := &ir.LoopSpec{
		Name:           "strided_stencil",
		IterSpaceArray: "v",
		Dims:           []int64{8},
		Ordered:        true,
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.Affine(0, 2, -4, 1)}},                // 2k-2
			{Array: "A", Subs: []ir.Subscript{ir.Affine(0, 2, -2, 1)}, IsWrite: true}, // 2k
		},
	}
	set, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range set.Vectors() {
		switch v.String() {
		case "(1)":
			found = true
		default:
			t.Errorf("unexpected vector %v", v)
		}
	}
	if !found {
		t.Fatalf("want exact distance-1 vector, got %v", set)
	}
}

func TestMixedStrideGCDIndependent(t *testing.T) {
	// Write A[4k+2] (even) vs read A[2k+1] (odd): gcd(2,4)=2 never
	// divides the odd offset difference, so the pair is independent
	// even though the element ranges overlap.
	loop := &ir.LoopSpec{
		Name:           "gcd",
		IterSpaceArray: "v",
		Dims:           []int64{8},
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.Affine(0, 2, -1, 1)}},                // 2k+1
			{Array: "A", Subs: []ir.Subscript{ir.Affine(0, 4, -2, 1)}, IsWrite: true}, // 4k+2
		},
	}
	set, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Empty() {
		t.Fatalf("mixed-stride parity-disjoint pair must be independent, got %v", set)
	}
}

func TestSymbolicStrideGuard(t *testing.T) {
	// out[s*k + j], j in [1, 8] (examples/guarded's tile loop): not
	// provable statically, but under s >= 8 the windows of distinct
	// iterations are disjoint.
	win := []ir.Subscript{ir.AffineVar(0, "stride", 0, 8)}
	loop := &ir.LoopSpec{
		Name:           "tile",
		IterSpaceArray: "tiles",
		Dims:           []int64{6},
		Refs: []ir.ArrayRef{
			{Array: "out", Subs: win},
			{Array: "out", Subs: win, IsWrite: true},
		},
	}
	d, err := AnalyzeDetail(loop)
	if err != nil {
		t.Fatal(err)
	}
	if d.Set.Empty() {
		t.Fatal("unguarded set must stay conservative")
	}
	if d.Guard == nil {
		t.Fatal("want a synthesized guard")
	}
	if got := d.Guard.String(); got != "stride >= 8" {
		t.Fatalf("guard = %q, want %q", got, "stride >= 8")
	}
	if !d.GuardedSet.Empty() {
		t.Fatalf("1-D tile loop must be independent under its guard, got %v", d.GuardedSet)
	}
}

func TestSymbolicGuardMultiDimKeepsZeroDistance(t *testing.T) {
	// 2-D iteration space, windows strided by dim 0 only: two
	// iterations sharing key[1] touch the same window no matter how
	// large the stride is, so the guarded set must keep a vector with
	// distance 0 in dim 0 — dropping the pair entirely would be
	// unsound.
	win := []ir.Subscript{ir.AffineVar(0, "s", 0, 2)}
	loop := &ir.LoopSpec{
		Name:           "tile2d",
		IterSpaceArray: "grid",
		Dims:           []int64{3, 3},
		Ordered:        true,
		Refs: []ir.ArrayRef{
			{Array: "out", Subs: win},
			{Array: "out", Subs: win, IsWrite: true},
		},
	}
	d, err := AnalyzeDetail(loop)
	if err != nil {
		t.Fatal(err)
	}
	if d.Guard == nil {
		t.Fatal("want a synthesized guard")
	}
	if d.GuardedSet.Empty() {
		t.Fatal("guarded set must keep the same-key residual dependence")
	}
	// Concretely: iterations (0,0) and (0,1) conflict at any stride.
	if d.GuardedSet.ConflictFree([]int64{0, 0}, []int64{0, 1}) {
		t.Fatal("iterations sharing the strided dimension must stay dependent under the guard")
	}
	// While iterations differing in dim 0 are guard-independent.
	if !d.GuardedSet.ConflictFree([]int64{0, 0}, []int64{1, 0}) {
		t.Fatal("iterations apart in the strided dimension must be independent under the guard")
	}
}

func TestSymbolicGuardDisjointWindows(t *testing.T) {
	// Same symbolic stride, windows [0,1] for the read and [4,5] for
	// the write: under s >= 6 even the zero-distance residue is empty,
	// so the guarded set is fully independent.
	loop := &ir.LoopSpec{
		Name:           "halves",
		IterSpaceArray: "v",
		Dims:           []int64{4},
		Refs: []ir.ArrayRef{
			{Array: "out", Subs: []ir.Subscript{ir.AffineVar(0, "s", 0, 2)}},
			{Array: "out", Subs: []ir.Subscript{ir.AffineVar(0, "s", 4, 2)}, IsWrite: true},
		},
	}
	d, err := AnalyzeDetail(loop)
	if err != nil {
		t.Fatal(err)
	}
	if d.Guard == nil {
		t.Fatal("want a synthesized guard")
	}
	if got := d.Guard.String(); got != "s >= 6" {
		t.Fatalf("guard = %q, want %q", got, "s >= 6")
	}
	if !d.GuardedSet.Empty() {
		t.Fatalf("disjoint windows must be independent under the guard, got %v", d.GuardedSet)
	}
}

func TestSymbolicVsNumericConservative(t *testing.T) {
	// A symbolic stride against a numeric subscript is not guardable:
	// no guard, fully conservative set.
	loop := &ir.LoopSpec{
		Name:           "mixed",
		IterSpaceArray: "v",
		Dims:           []int64{4},
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.AffineVar(0, "s", 0, 1)}},
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, 0)}, IsWrite: true},
		},
	}
	d, err := AnalyzeDetail(loop)
	if err != nil {
		t.Fatal(err)
	}
	if d.Guard != nil {
		t.Fatalf("symbolic-vs-numeric must not synthesize a guard, got %v", d.Guard)
	}
	if d.Set.Empty() {
		t.Fatal("symbolic-vs-numeric must stay conservative")
	}
}

func TestGuardMergesAtomsAcrossArrays(t *testing.T) {
	// Two independent tile patterns on different variables produce a
	// conjunction, canonically ordered by variable name.
	winS := []ir.Subscript{ir.AffineVar(0, "s", 0, 4)}
	winT := []ir.Subscript{ir.AffineVar(0, "t", 0, 2)}
	loop := &ir.LoopSpec{
		Name:           "two_vars",
		IterSpaceArray: "v",
		Dims:           []int64{4},
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: winS},
			{Array: "A", Subs: winS, IsWrite: true},
			{Array: "B", Subs: winT},
			{Array: "B", Subs: winT, IsWrite: true},
		},
	}
	d, err := AnalyzeDetail(loop)
	if err != nil {
		t.Fatal(err)
	}
	if d.Guard == nil {
		t.Fatal("want a synthesized guard")
	}
	if got := d.Guard.String(); got != "s >= 4 && t >= 2" {
		t.Fatalf("guard = %q, want %q", got, "s >= 4 && t >= 2")
	}
}

func TestMergeAtoms(t *testing.T) {
	got := mergeAtoms([]GuardAtom{
		{Var: "t", Min: 2},
		{Var: "s", Min: 3},
		{Var: "s", Min: 8},
		{Var: "t", Min: 1},
	})
	want := []GuardAtom{{Var: "s", Min: 8}, {Var: "t", Min: 2}}
	if len(got) != len(want) {
		t.Fatalf("mergeAtoms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeAtoms = %v, want %v", got, want)
		}
	}
}

func TestGuardEval(t *testing.T) {
	g := &Guard{Atoms: []GuardAtom{{Var: "stride", Min: 8}}}
	cases := []struct {
		name    string
		globals map[string]float64
		ok      bool
	}{
		{"holds at threshold", map[string]float64{"stride": 8}, true},
		{"holds above", map[string]float64{"stride": 16}, true},
		{"below threshold", map[string]float64{"stride": 7}, false},
		{"missing variable", map[string]float64{}, false},
		{"non-integral", map[string]float64{"stride": 8.5}, false},
		{"negative", map[string]float64{"stride": -8}, false},
	}
	for _, c := range cases {
		ok, why := g.Eval(c.globals)
		if ok != c.ok {
			t.Errorf("%s: Eval = %v (%s), want %v", c.name, ok, why, c.ok)
		}
		if !ok && why == "" {
			t.Errorf("%s: failure must carry an explanation", c.name)
		}
	}
}

// randomAffineLoop extends randomLoop's generator with affine-window
// subscripts, both numeric and symbolic (single driver variable "s"),
// over 1-subscript arrays so the oracle enumeration stays small.
func randomAffineLoop(rng *rand.Rand) (*ir.LoopSpec, map[string][]int64) {
	dims := []int64{int64(2 + rng.Intn(2)), int64(2 + rng.Intn(2))}
	arrays := []string{"A", "B"}
	bounds := map[string][]int64{"A": {24}, "B": {24}}
	nRefs := 2 + rng.Intn(4)
	var refs []ir.ArrayRef
	for i := 0; i < nRefs; i++ {
		arr := arrays[rng.Intn(len(arrays))]
		var sub ir.Subscript
		switch rng.Intn(4) {
		case 0:
			sub = ir.Index(rng.Intn(2), int64(rng.Intn(3)-1))
		case 1:
			sub = ir.Const(int64(rng.Intn(4)))
		case 2:
			coeff := int64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				coeff = -coeff
			}
			sub = ir.Affine(rng.Intn(2), coeff, int64(rng.Intn(5)-2), int64(1+rng.Intn(3)))
		default:
			sub = ir.AffineVar(rng.Intn(2), "s", int64(rng.Intn(4)), int64(1+rng.Intn(3)))
		}
		refs = append(refs, ir.ArrayRef{Array: arr, Subs: []ir.Subscript{sub}, IsWrite: rng.Intn(2) == 0})
	}
	loop := &ir.LoopSpec{
		Name:           "random_affine",
		IterSpaceArray: "iter",
		Dims:           dims,
		Ordered:        rng.Intn(2) == 0,
		Refs:           refs,
	}
	return loop, bounds
}

// FuzzRangeAnalysis drives random affine/symbolic loops through the
// symbolic tier and verifies both soundness claims by brute force:
//
//  1. Set: any iteration pair the exhaustive oracle finds dependent
//     (symbolic strides unbound, i.e. over all bindings) must not be
//     ConflictFree.
//  2. GuardedSet: under bindings satisfying the synthesized guard, any
//     oracle-dependent pair must not be ConflictFree in the guarded set.
func FuzzRangeAnalysis(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		loop, bounds := randomAffineLoop(rng)
		d, err := AnalyzeDetail(loop)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewOracle(loop, bounds)
		iters := oracle.Iterations()
		for i := 0; i < len(iters); i++ {
			for j := i + 1; j < len(iters); j++ {
				if oracle.Dependent(iters[i], iters[j]) && d.Set.ConflictFree(iters[i], iters[j]) {
					t.Fatalf("unsound set.\nloop: %s\nset: %v\niterations %v and %v dependent per oracle but ConflictFree",
						loop, d.Set, iters[i], iters[j])
				}
			}
		}
		if d.Guard == nil {
			return
		}
		min := int64(1)
		for _, a := range d.Guard.Atoms {
			if a.Var != "s" {
				t.Fatalf("unexpected guard variable in %v", d.Guard)
			}
			min = a.Min
		}
		for _, s := range []int64{min, min + 1, min + 5} {
			bound := NewOracle(loop, bounds)
			bound.SetVar("s", s)
			if ok, why := d.Guard.Eval(map[string]float64{"s": float64(s)}); !ok {
				t.Fatalf("binding s=%d should satisfy %v: %s", s, d.Guard, why)
			}
			for i := 0; i < len(iters); i++ {
				for j := i + 1; j < len(iters); j++ {
					if bound.Dependent(iters[i], iters[j]) && d.GuardedSet.ConflictFree(iters[i], iters[j]) {
						t.Fatalf("unsound guarded set at s=%d.\nloop: %s\nguard: %v\nguarded: %v\niterations %v and %v dependent per oracle but ConflictFree",
							s, loop, d.Guard, d.GuardedSet, iters[i], iters[j])
					}
				}
			}
		}
	})
}

// TestFuzzSeedsSoundness runs the fuzz property over a deterministic
// spread of seeds so `go test` exercises it without -fuzz.
func TestFuzzSeedsSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		loop, bounds := randomAffineLoop(rng)
		d, err := AnalyzeDetail(loop)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle := NewOracle(loop, bounds)
		iters := oracle.Iterations()
		for i := 0; i < len(iters); i++ {
			for j := i + 1; j < len(iters); j++ {
				if oracle.Dependent(iters[i], iters[j]) && d.Set.ConflictFree(iters[i], iters[j]) {
					t.Fatalf("trial %d: unsound set.\nloop: %s\nset: %v\npair %v %v",
						trial, loop, d.Set, iters[i], iters[j])
				}
			}
		}
		if d.Guard == nil {
			continue
		}
		var min int64 = 1
		for _, a := range d.Guard.Atoms {
			min = a.Min
		}
		bound := NewOracle(loop, bounds)
		bound.SetVar("s", min)
		for i := 0; i < len(iters); i++ {
			for j := i + 1; j < len(iters); j++ {
				if bound.Dependent(iters[i], iters[j]) && d.GuardedSet.ConflictFree(iters[i], iters[j]) {
					t.Fatalf("trial %d: unsound guarded set at s=%d.\nloop: %s\nguard: %v\nguarded: %v\npair %v %v",
						trial, min, loop, d.Guard, d.GuardedSet, iters[i], iters[j])
				}
			}
		}
	}
}
