package vm

import (
	"fmt"
	"strings"
	"testing"

	"orion/internal/lang"
)

// The benchmark's loop bodies (benchmark/workloads.go) over small
// extents; ldaBody is its LDA body.
const (
	benchMFProg = `array ratings 30 25
array W 8 30
array H 8 25
global step_size err
---
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
    err += abs2(diff)
end
`
	benchSLRProg = `array samples 300
array weights 65536
buffer w_buf weights
global step_size
---
for (key, v) in samples
    idx = floor(v * 50000) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`
	benchLDAProg = "array tokens 20 30\narray z 20 30\narray doc_topic 16 20\narray word_topic 16 30\narray totals 16\n" +
		"buffer tot_buf totals\nglobal K alpha beta vbeta\n---" + ldaBody
)

// censusPrograms is every loop the repository commits: the example
// corpus, the benchmark bodies and FuzzExecDifferential's seeds.
func censusPrograms(t *testing.T) map[string]string {
	out := map[string]string{
		"benchmark/mf": benchMFProg, "benchmark/slr": benchSLRProg, "benchmark/lda": benchLDAProg,
	}
	for name, src := range exampleProgramSources(t) {
		out["examples/"+name] = src
	}
	for i, src := range fuzzSeeds {
		out[fmt.Sprintf("seed/%d", i)] = src
	}
	for _, lp := range laneProgs {
		out["lane/"+lp.name] = lp.src
	}
	for _, fp := range rewriteProgs {
		out["rewrite/"+fp.name] = fp.src
	}
	return out
}

// TestCompileCensus pins what vm.Compile makes of every committed loop:
// its instruction count (Halt included), and, for each inner for in
// source order, "lanes" when it lowered lane-wise, else why not. No
// committed loop is refused, and the corpus holds five reasons an inner
// loop stays scalar. Counts move only with a deliberate change to the
// lowering. Against a lowering that loaded each negated literal with its
// own instruction and had no optimize, every count fell by what the
// later changes removed: a negated literal operand (-2 * diff) reads its
// own pin, which no instruction writes; CSE shares a repeated scalar,
// such as a second read of a global; foldCheck drops each presence
// check its access's miss path now runs; and fuseRows drops the c*v
// temporary and the range store of each fused AxpyRow. MF went 23 → 13:
// two literal loads, one shared -2*diff, one shared step_size, two
// checks, two temporaries and two stores. No count rose. When elision and CSE moved
// onto one analysis whose facts cross blocks, LDA went 42 → 41: the
// sampling loop's bound K, loaded after the topic loop, is the value
// p = zeros(K) loaded before it, which nothing in between writes. LDA
// went 41 → 42 when its sampling loop went lane-wise: one opLanes more,
// and no scalar trip dispatched on the lane path (TestDispatchCensus).
// Reading the loop variable stopped refusing a loop then: zero-trips
// went lane-wise, 9 → 10.
func TestCompileCensus(t *testing.T) {
	want := map[string]string{
		"benchmark/lda":             "42: lanes; lanes",
		"benchmark/mf":              "13",
		"benchmark/slr":             "11",
		"examples/fixed.orion":      "5",
		"examples/interleave.orion": "10",
		"examples/lda.orion":        "42: lanes; lanes",
		"examples/mf.orion":         "13",
		"examples/slr.orion":        "11",
		"examples/stencil.orion":    "15",
		"examples/tile.orion":       "12: writes out[((stride * key[1]) + j)]",
		"examples/unsafe.orion":     "7",
		"rewrite/borrow":            "15",
		"rewrite/both-arms":         "12",
		"rewrite/cse-arm":           "14",
		"rewrite/lane-global":       "15: lanes",
		"rewrite/lane-shape-first":  "14: T read without the loop variable",
		"rewrite/zero-trips":        "10: lanes",
		"rewrite/cse-redefined":     "20",
		"rewrite/const-stores":      "9",
		"rewrite/delayed-operand":   "11",
		"rewrite/dest-operand":      "15",
		"rewrite/length-mismatch":   "7",
		"rewrite/mf":                "11",
		"rewrite/no-locals":         "5",
		"rewrite/range-mismatch":    "5",
		"rewrite/read-twice":        "8",
		"rewrite/scale-redefined":   "9",
		"rewrite/vector-redefined":  "12",
		"lane/budget":               "10: lanes",
		"lane/column":               "28: lanes",
		"lane/fold-order":           "13: lanes",
		"lane/invariant-fold":       "6: lanes",
		"lane/lda":                  "42: lanes; lanes",
		"lane/maybe-defined":        "24: c may be undefined; p may be undefined",
		"lane/nan":                  "23: lanes",
		"lane/negzero":              "15: lanes",
		"lane/oob-last":             "13: lanes",
		"lane/short-vector":         "14: lanes",
		"lane/trips":                "18: lanes; lanes",
		"lane/undefined-global":     "12: lanes",
		"lane/vector-lo":            "11: lanes",
		"lane/window-cut":           "11: lanes",
		"lane/select-zero":          "18: lanes",
		"lane/select-entry":         "15: lanes",
		"lane/select-undefined":     "19: lanes",
		"lane/select-nan":           "25: lanes",
		"lane/select-short-vector":  "23: lanes; lanes",
		"lane/select-overwritten":   "28: lanes",
		"lane/select-budget":        "15: lanes",
		"rewrite/select-else":       "13: if with else",
		"rewrite/select-read":       "15: reads chosen, which an if assigns",
		"rewrite/select-before":     "13: carries total across trips",
		"seed/0":                    "9",
		"seed/1":                    "8",
	}
	progs := censusPrograms(t)
	if len(progs) != len(want) {
		t.Errorf("%d committed loops, %d pinned", len(progs), len(want))
	}
	for name, src := range progs {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: globalNames(diffGlobals(prog.Env, prog.Loop, prog.Globals))})
		if err != nil {
			t.Errorf("%s: refused: %v", name, err)
			continue
		}
		got, sep := fmt.Sprint(len(p.code)), ": "
		for _, n := range p.forNotes {
			if n == "" {
				n = "lanes"
			}
			got, sep = got+sep+n, "; "
		}
		if got != want[name] {
			t.Errorf("%s: %q, want %q", name, got, want[name])
		}
		if dead := unreached(p); dead != "" {
			t.Errorf("%s: carries %s no instruction reaches", name, dead)
		}
	}
}

// unreached names the access sites and lane loops p carries that no
// instruction reaches, such as a refused lane loop could leave behind.
func unreached(p *Prog) string {
	used, lanes := make([]bool, len(p.accs)), 0
	for _, in := range p.code {
		if site, _ := (&comp{axpys: p.axpys}).siteOf(&in); site >= 0 {
			used[site] = true
		}
		if in.op != opLanes {
			continue
		}
		lanes++
		for _, r := range p.lanes[in.a].regs {
			if r.kind == laneSite {
				used[r.x] = true
			}
		}
	}
	var dead []string
	if lanes != len(p.lanes) {
		dead = append(dead, fmt.Sprintf("%d lane loops", len(p.lanes)-lanes))
	}
	for i, u := range used {
		if !u {
			dead = append(dead, fmt.Sprintf("site %d", i))
		}
	}
	return strings.Join(dead, ", ")
}

// TestLDATopicLoopHasNoTripOps: the LDA body's topic and sampling
// loops, on their lane paths, dispatch no instruction per trip: each
// opLanes follows opForInit and leaves by its opForCond's exit, past the
// loop's opForNext.
func TestLDATopicLoopHasNoTripOps(t *testing.T) {
	prog, err := lang.ParseProgram(benchLDAProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers, Globals: prog.Globals})
	if err != nil {
		t.Fatal(err)
	}
	var lanes []int
	for pc, in := range p.code {
		if in.op == opLanes {
			lanes = append(lanes, pc)
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("%d lane loops, want the topic and sampling loops", len(lanes))
	}
	// The topic loop: three clamped loads, five arithmetic ops into p[k],
	// one fold. The sampling loop: one scan, then a comparison of chosen,
	// one of u with the scan, and chosen's assignment.
	for i, want := range []string{"9 ops, 0 sels", "1 ops, 3 sels"} {
		pc, in := lanes[i], p.code[lanes[i]]
		exit := p.code[pc+1].c
		if p.code[pc-1].op != opForInit || p.code[pc+1].op != opForCond || p.code[exit-1].op != opForNext {
			t.Fatalf("opLanes at %d does not bracket its loop: %v before, %v after, exit %d after %v",
				pc, p.code[pc-1].op, p.code[pc+1].op, exit, p.code[exit-1].op)
		}
		ln := p.lanes[in.a]
		if got := fmt.Sprintf("%d ops, %d sels", len(ln.ops), len(ln.sels)); got != want {
			t.Errorf("loop %d takes %s, want %s", i+1, got, want)
		}
	}
}
