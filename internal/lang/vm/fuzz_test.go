package vm

import (
	"testing"

	"orion/internal/lang"
)

// fuzzSeeds are FuzzExecDifferential's seeds beyond the example corpus,
// laneProgs and rewriteProgs.
var fuzzSeeds = []string{
	"array data 6 4\narray A 4 4\nbuffer b A\nglobal g\n---\nfor (key, v) in data\n    p = A[:, key[2]]\n    s = dot(p, p)\n    if s > g\n        A[:, key[2]] = p - 0.5 * p\n    end\n    b[key[2], 1] += s\n    acc += s\nend\n",
	"array data 4 4\narray A 4 4\nglobal g\n---\nfor (key, v) in data\n    p = A[:, key[2]]\n    A[:, key[2]] = p - g * p\n    A[key[1], 2:3] += p[1]\nend\n",
}

// FuzzExecDifferential: any program that parses and analyzes clean and
// falls inside the compiled subset must behave bitwise-identically
// under the interpreter, the closure compiler, and the bytecode VM —
// same stop point, same error or panic, same DistArray and global
// values — and the two compiled backends must agree exactly on what is
// compilable. Seeded with the full shipped example corpus, the lane
// programs (laneProgs) and the rewrite programs (rewriteProgs).
func FuzzExecDifferential(f *testing.F) {
	for _, src := range exampleProgramSources(f) {
		f.Add(src)
	}
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	for _, lp := range laneProgs {
		f.Add(lp.src)
	}
	for _, fp := range rewriteProgs {
		f.Add(fp.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			return
		}
		if _, err := lang.Analyze(prog.Loop, prog.Env); err != nil {
			return
		}
		// Bound the execution: small arrays only, few iterations, a
		// step budget for runaway inner loops, and a vector length cap.
		total := int64(0)
		for _, dims := range prog.Env.Arrays {
			if len(dims) > 3 {
				return
			}
			n := int64(1)
			for _, d := range dims {
				n *= d
			}
			total += n
		}
		if total > 1<<15 {
			return
		}
		cfg := diffConfig{
			scheme:   fillInts,
			seed:     11,
			budget:   1 << 14,
			vecLimit: 1 << 10,
			maxIters: 128,
		}
		diffProgram(t, "fuzz program:\n"+src, prog, cfg)
	})
}
