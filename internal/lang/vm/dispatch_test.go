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
// runs a seeded run of keys. A count moves only with the lowering: LDA
// went 46.59 → 45.59 when the sampling loop's bound K became the value
// loaded before the topic loop (TestCompileCensus), one load per token.
func TestDispatchCensus(t *testing.T) {
	want := map[string]string{
		"benchmark/mf":  "13.00",
		"benchmark/slr": "11.00",
		"benchmark/lda": "45.59",
	}
	for name, src := range map[string]string{
		"benchmark/mf": benchMFProg, "benchmark/slr": benchSLRProg, "benchmark/lda": benchLDAProg,
	} {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		globals := diffGlobals(prog.Env, prog.Loop, prog.Globals)
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
		if got := fmt.Sprintf("%.2f", float64(total)/float64(len(keys))); got != want[name] {
			t.Errorf("%s: %s instructions per iteration, want %s", name, got, want[name])
		}
	}
}
