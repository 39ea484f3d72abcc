//go:build vmcount

package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// TestDispatchCensus pins how many instructions exec dispatches per
// iteration of each benchmark body (mf_rotate and mf_ordered both run
// MF's) at small extents, Halt included: the dynamic half of
// TestCompileCensus, counted by the tally only a vmcount build carries
// (`make vm-count`). MF and SLR are straight-line, so their counts equal
// their instruction counts; LDA's varies with the sampled topics, so it
// runs a seeded run of keys, at K = 6 and at the benchmark's K = 16. A
// count moves only with the lowering: LDA went 46.59 → 45.59 when the
// sampling loop's bound K became the value loaded before the topic loop
// (TestCompileCensus), one load per token; then 45.59 → 23.00, and
// 80.00 → 23.00 at K = 16, when the sampling loop went lane-wise (its
// running sum a scan, its ifs sels): each trip's VElemArith, JmpCmpNot
// and ForNext became one opLanes per token, so the count no longer
// depends on K or on the topics drawn.
func TestDispatchCensus(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
		k               float64 // LDA's K; 0 keeps diffGlobals'
	}{
		{"benchmark/mf", benchMFProg, "13.00", 0},
		{"benchmark/slr", benchSLRProg, "11.00", 0},
		{"benchmark/lda", benchLDAProg, "23.00", 0},
		{"benchmark/lda K=16", benchLDAProg, "23.00", 16},
	} {
		name := tc.name
		prog, err := lang.ParseProgram(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		globals := diffGlobals(prog.Env, prog.Loop, prog.Globals)
		if tc.k > 0 {
			globals["K"] = tc.k
		}
		p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: globalNames(globals)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := p.NewKernel()
		// Every array holds small integers (LDA's topics, 1..6 ≤ K); the
		// iteration space's values are uniform in [0, 1).
		arrays := buildArrays(prog.Env, fillInts, 17)
		rng := rand.New(rand.NewSource(17))
		arrays[prog.Loop.IterVar].Map(func(float64) float64 { return rng.Float64() })
		for n, a := range arrays {
			if err := k.BindArray(n, a); err != nil {
				t.Fatal(err)
			}
		}
		for n, target := range prog.Env.Buffers {
			if err := k.BindBuffer(n, dsm.NewBuffer(arrays[target], nil)); err != nil {
				t.Fatal(err)
			}
		}
		for n, v := range globals {
			k.SetGlobal(n, v)
		}
		k.SetRng(rand.New(rand.NewSource(18)))
		keys, vals := collectKeys(arrays[prog.Loop.IterVar], false)
		keys, vals = keys[:64], vals[:64]
		if done, err := k.RunBlock(keys, vals, nil); err != nil || done != len(keys) {
			t.Fatalf("%s: stopped after %d: %v", name, done, err)
		}
		var total uint64
		for _, n := range k.ops.n {
			total += n
		}
		if got := fmt.Sprintf("%.2f", float64(total)/float64(len(keys))); got != tc.want {
			t.Errorf("%s: %s instructions per iteration, want %s", name, got, tc.want)
		}
	}
}
