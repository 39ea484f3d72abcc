package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// ldaBody is the collapsed-Gibbs LDA loop the benchmark and
// examples/lda_dsl run: its topic loop is lane-wise, its sampling loop
// (an if, a carried chosen) is not.
const ldaBody = `
for (key, occ) in tokens
    zi = z[key[1], key[2]]
    doc_topic[zi, key[1]] -= 1
    word_topic[zi, key[2]] -= 1
    tot_buf[zi] -= 1

    p = zeros(K)
    total = 0
    for k = 1:K
        nd = max(doc_topic[k, key[1]], 0)
        nw = max(word_topic[k, key[2]], 0)
        nt = max(totals[k], 1)
        p[k] = (nd + alpha) * (nw + beta) / (nt + vbeta)
        total = total + p[k]
    end

    u = rand() * total
    chosen = 0
    acc = 0
    for k = 1:K
        acc = acc + p[k]
        if chosen == 0
            if u <= acc
                chosen = k
            end
        end
    end
    if chosen == 0
        chosen = K
    end

    doc_topic[chosen, key[1]] += 1
    word_topic[chosen, key[2]] += 1
    tot_buf[chosen] += 1
    z[key[1], key[2]] = chosen
end
`

// laneProg is a program whose inner loops lower lane-wise, run on every
// binding laneBindings names.
type laneProg struct {
	name, src string
	// globals binds the run's globals; nil binds every declared one as
	// the differential harness does. A declared global left out is
	// undefined.
	globals map[string]float64
	budget  int64
	// cuts are the windowed binding's partitions: array → (dim, lo, hi).
	// inWindow keeps the keys whose invariant coordinates they hold.
	cuts     map[string][3]int64
	inWindow func(key []int64) bool
	// lanes names the bindings on which the lane path must run.
	lanes string
}

var laneProgs = []laneProg{
	{
		name: "lda",
		src: "array tokens 5 8\narray z 5 8\narray doc_topic 6 5\narray word_topic 6 8\narray totals 6\n" +
			"buffer tot_buf totals\nglobal K alpha beta vbeta\n---" + ldaBody,
		globals:  map[string]float64{"K": 6, "alpha": 0.5, "beta": 0.1, "vbeta": 0.8},
		cuts:     map[string][3]int64{"doc_topic": {1, 1, 4}, "word_topic": {1, 2, 7}},
		inWindow: func(k []int64) bool { return k[0] >= 1 && k[0] < 4 && k[1] >= 2 && k[1] < 7 },
		lanes:    "whole window served",
	},
	{
		// The lane runs along dimension 1 (a strided gather), at v and
		// v ± c, and the loop variable and lane-private locals are read
		// after the loop.
		name: "column",
		src: `array data 4 5
array A 4 7
array B 9
global s
---
for (key, v) in data
    total = 0
    for k = 2:5
        x = A[key[1], k] * v + A[key[1], k + 1]
        y = x - B[k - 1] / B[k + 1]
        total = total + y
    end
    s += total + k * 1000 + x + y
end
`,
		cuts:  map[string][3]int64{"A": {1, 1, 6}, "B": {0, 0, 9}},
		lanes: "whole window served",
	},
	{
		// Trip counts 0 to 3 by key; a zero-trip loop leaves everything
		// as it was.
		name: "trips",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    total = v
    for k = key[1]:3
        total = total + T[k] * v
    end
    for k = 2:key[1]
        total += T[k + 2]
    end
    s += total
end
`,
		lanes: "whole window served",
	},
	{
		// max and min keep the scalar NaN order: max(NaN, 2) and min(2,
		// NaN) are NaN, max(2, NaN) and min(NaN, 2) are 2.
		name: "nan",
		src: `array data 4 5
array D 6 4
global s u
---
for (key, v) in data
    total = 0
    for k = 1:6
        a = D[k, key[1]] * 0 / 0
        b = max(a, 2)
        c = min(2, a)
        d = max(2, a)
        e = min(a, 2)
        total = total + (d + e)
    end
    s += total
    u += b + c
end
`,
		lanes: "whole window served",
	},
	{
		// A fold of -0 terms from -0 stays -0.
		name: "negzero",
		src: `array data 4 5
array D 4 4
array E 4 5
---
for (key, v) in data
    total = 0 * (0 - 1)
    for k = 1:4
        x = 0 * (0 - D[k, key[1]])
        total = total + x
    end
    E[key[1], key[2]] = total
end
`,
		lanes: "whole window served",
	},
	{
		// Terms from e^7 to e^42: a fold in any other order rounds
		// differently.
		name: "fold-order",
		src: `array data 4 5
array F 8 4
global s
---
for (key, v) in data
    total = v / 3
    for k = 1:8
        total += exp(F[k, key[1]] * 7) / 3
    end
    s += total
end
`,
		lanes: "whole window served",
	},
	{
		// A subscript out of range only at the last trip: the scalar loop
		// runs three trips of the reduction, then faults.
		name: "oob-last",
		src: `array data 4 5
array A 4 5
global s
---
for (key, v) in data
    for k = 1:4
        s = s + A[k, key[2]]
        t = A[k + 1, key[1]]
    end
end
`,
	},
	{
		// The window cuts the lane range: the windowed run falls back and
		// faults where the scalar loop leaves the window.
		name: "window-cut",
		src: `array data 4 5
array A 6 5
global s
---
for (key, v) in data
    total = 0
    for k = 1:6
        total = total + A[k, key[2]] * v
    end
    s += total
end
`,
		cuts:  map[string][3]int64{"A": {0, 0, 4}},
		lanes: "whole served",
	},
	{
		// p's scratch keeps the capacity of the first key's 5 elements:
		// the guard must test its length.
		name: "short-vector",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    p = zeros(6 - key[1])
    for k = 1:4
        p[k] = T[k] * v
        s = s + p[k]
    end
end
`,
		lanes: "whole window served",
	},
	{
		name: "undefined-global",
		src: `array data 4 5
array T 6
global s g
---
for (key, v) in data
    for k = 1:3
        s = s + T[k]
        x = g * T[k]
    end
end
`,
		globals: map[string]float64{"s": 0},
	},
	{
		// 11 steps: two keys run lane-wise, the third runs out at trip 3.
		name: "budget",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    total = 0
    for k = 1:4
        total = total + T[k] * v
    end
    s += total
end
`,
		budget: 11,
		lanes:  "whole window served",
	},
	{
		// c and p are defined on some paths only: both loops stay scalar.
		name: "maybe-defined",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    if v > 1
        c = 2
        p = zeros(4)
    end
    total = 0
    for k = 1:3
        total = total + T[k] * c
    end
    for k = 1:4
        p[k] = T[k] + total
    end
    s += total + p[4]
end
`,
	},
	{
		// Folds of loop-invariant terms: the loop has no lane register.
		name: "invariant-fold",
		src: `array data 4 5
global s
---
for (key, v) in data
    for k = 1:3
        s += v
    end
end
`,
		lanes: "whole window served",
	},
	{
		// The first key runs lane-wise; the second starts at p[0].
		name: "vector-lo",
		src: `array data 4 5
global s
---
for (key, v) in data
    p = zeros(4)
    for k = 2 - key[1]:2
        p[k] = v
    end
    s += p[2]
end
`,
		lanes: "whole window served",
	},
	{
		// LDA's sampling loop over lo..hi from 0 or below: a trip that
		// selects 0 leaves chosen == 0, so the next trip may select again,
		// as the scalar loop does.
		name: "select-zero",
		src: `array data 4 5
array T 9
global s
---
for (key, v) in data
    chosen = 0
    acc = 0
    for k = 1 - key[1]:3
        acc = acc + T[k + 4]
        if chosen == 0
            if v <= acc
                chosen = k
            end
        end
    end
    s += chosen * 10 + acc
end
`,
		lanes: "whole window served",
	},
	{
		// chosen enters nonzero except when key[1] is 2: only those keys
		// select.
		name: "select-entry",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    chosen = key[1] - 2
    acc = 0
    for k = 1:6
        acc = acc + T[k]
        if chosen == 0
            if v * 3 <= acc
                chosen = k
            end
        end
    end
    s += chosen
end
`,
		lanes: "whole window served",
	},
	{
		// last is assigned only by a trip that crosses, and is undefined
		// until one does: the read after the loop faults in the first
		// key no trip of which crossed.
		name: "select-undefined",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    acc = 0
    for k = 1:4
        acc = acc + T[k + 2] * key[2]
        if acc >= v * key[1] * 2
            last = k
        end
    end
    s += last
end
`,
		lanes: "whole window served",
	},
	{
		// x / x is NaN where x is 0, and the sum NaN from there on: no
		// comparison with it holds but !=.
		name: "select-nan",
		src: `array data 4 5
array D 6 4
global s t
---
for (key, v) in data
    chosen = 0
    nan = 0
    acc = 0
    for k = 1:6
        x = max(D[k, key[1]] - 3, 0)
        acc = acc + x / x
        if chosen == 0
            if acc >= v - 4
                chosen = k
            end
        end
        if nan == 0
            if acc != acc
                nan = k
            end
        end
    end
    s += chosen * 10 + nan
    t += acc
end
`,
		lanes: "whole window served",
	},
	{
		// p is shorter than the loop where key[1] > 1: in the second key
		// the guard fails and the scalar loop faults at p[4].
		name: "select-short-vector",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    p = zeros(5 - key[1])
    for k = 1:5 - key[1]
        p[k] = T[k] * v
    end
    s += v
    chosen = 0
    acc = 0
    for k = 1:4
        acc = acc + p[k]
        if chosen == 0
            if v <= acc
                chosen = k
            end
        end
    end
    s += chosen
end
`,
		lanes: "whole window served",
	},
	{
		// The ifs read x and p[k] before the trip overwrites them, which
		// the lane ops do before the sels run: the sels read copies.
		name: "select-overwritten",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    p = zeros(4)
    chosen = 0
    big = 0
    for k = 1:4
        x = T[k] * v
        p[k] = x - 6
        if chosen == 0
            if x >= 12
                chosen = k
            end
        end
        if big == 0
            if p[k] >= 6
                big = k
            end
        end
        x = 0 - x
        p[k] = x
    end
    s += chosen * 10 + big + x + p[2]
end
`,
		lanes: "whole window served",
	},
	{
		// 11 steps: two keys run lane-wise, the third runs out at trip 3.
		name: "select-budget",
		src: `array data 4 5
array T 6
global s
---
for (key, v) in data
    chosen = 0
    acc = 0
    for k = 1:4
        acc = acc + T[k] * v
        if chosen == 0
            if 10 <= acc
                chosen = k
            end
        end
    end
    s += chosen + acc
end
`,
		budget: 11,
		lanes:  "whole window served",
	},
}

// laneBindings are the ways a run binds its arrays: whole arrays;
// partitions (winView, counting At/SetAt) cut as laneProg.cuts says;
// views with no dense storage that serve whole runs (runView); and the
// same with holes that refuse some runs.
var laneBindings = []string{"whole", "window", "served", "holes"}

type laneRun struct {
	done          int
	err, panicked string
	arrays        map[string]*dsm.DistArray
	globals       map[string]float64
	laneRuns      int // the VM's lane-wise loops
	atCalls       int // At/SetAt calls reaching the windowed views
}

// runLaneProg runs lp over binding on the VM, or on the interpreter
// when onVM is false, from freshly filled arrays.
func runLaneProg(t *testing.T, lp laneProg, prog *lang.Program, binding string, onVM bool) laneRun {
	t.Helper()
	arrays := buildArrays(prog.Env, fillInts, 5)
	keys, vals := collectKeys(arrays[prog.Loop.IterVar], false)
	if lp.inWindow != nil {
		var k2 [][]int64
		var v2 []float64
		for i, key := range keys {
			if lp.inWindow(key) {
				k2, v2 = append(k2, key), append(v2, vals[i])
			}
		}
		keys, vals = k2, v2
	}
	res := laneRun{arrays: arrays, globals: map[string]float64{}}
	views := map[string]lang.ArrayAccess{}
	var parts []*dsm.Partition
	for name, a := range arrays {
		if name == prog.Loop.IterVar {
			continue
		}
		views[name] = a
		switch cut, isCut := lp.cuts[name]; {
		case binding == "window" && isCut:
			p := a.ExtractRange(int(cut[0]), cut[1], cut[2])
			parts = append(parts, p)
			views[name] = countView{winView{p: p, dims: a.Dims()}, &res.atCalls}
		case binding == "served" || binding == "holes":
			v := &runView{a: a, holes: map[int64]bool{}}
			for off := int64(3); binding == "holes" && off < int64(a.Len()); off += 7 {
				v.holes[off] = true
			}
			views[name] = v
		}
	}
	globals := lp.globals
	if globals == nil {
		globals = diffGlobals(prog.Env, prog.Loop, prog.Globals)
	}
	bufs := map[string]*dsm.Buffer{}
	for name, target := range prog.Env.Buffers {
		bufs[name] = dsm.NewBuffer(arrays[target], nil)
	}
	rng := rand.New(rand.NewSource(9))
	var global func(name string) float64
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.panicked = fmt.Sprint(r)
			}
		}()
		if !onVM {
			m := lang.NewMachine()
			for name, v := range views {
				m.Arrays[name] = v
			}
			for name, b := range bufs {
				m.Buffers[name] = b
			}
			for name, v := range globals {
				m.Globals[name] = v
			}
			m.Rng, m.StepBudget = rng, lp.budget
			global = func(name string) float64 { f, _ := m.Globals[name].(float64); return f }
			for i, key := range keys {
				if err := m.RunIteration(prog.Loop, key, vals[i]); err != nil {
					res.err = err.Error()
					return
				}
				res.done = i + 1
			}
			return
		}
		p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers, Globals: prog.Globals})
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		k := p.NewKernel()
		defer func() { res.laneRuns = k.laneRuns }()
		for name, v := range views {
			if err := k.BindArray(name, v); err != nil {
				t.Fatalf("%s: %v", lp.name, err)
			}
		}
		for name, b := range bufs {
			if err := k.BindBuffer(name, b); err != nil {
				t.Fatalf("%s: %v", lp.name, err)
			}
		}
		for name, v := range globals {
			k.SetGlobal(name, v)
		}
		k.SetRng(rng)
		k.SetStepBudget(lp.budget)
		global = func(name string) float64 { f, _ := k.Global(name); return f }
		done, err := k.RunBlock(keys, vals, func(i int) { res.done = i + 1 })
		if err != nil {
			res.err = err.Error()
		}
		res.done = done
	}()
	for name, b := range bufs {
		b.Flush(arrays[prog.Env.Buffers[name]])
	}
	for _, p := range parts {
		p.WriteBack(arrays[p.Array])
	}
	for _, name := range prog.Globals {
		res.globals[name] = global(name)
	}
	return res
}

func sameLaneRun(t *testing.T, label string, got, want laneRun) {
	t.Helper()
	if got.done != want.done || got.err != want.err || got.panicked != want.panicked {
		t.Fatalf("%s: stopped after %d (err %q, panic %q), want %d (err %q, panic %q)",
			label, got.done, got.err, got.panicked, want.done, want.err, want.panicked)
	}
	for name, v := range want.globals {
		if canonBits(got.globals[name]) != canonBits(v) {
			t.Fatalf("%s: global %s = %v, want %v", label, name, got.globals[name], v)
		}
	}
	for name, w := range want.arrays {
		g := got.arrays[name]
		w.ForEach(func(idx []int64, v float64) {
			if gv := g.At(idx...); canonBits(gv) != canonBits(v) {
				t.Fatalf("%s: %s%v = %v, want %v", label, name, idx, gv, v)
			}
		})
	}
}

// TestLaneLoopsEqualScalar holds every lane program, on every binding,
// bitwise to the interpreter over the same views — values, stop point,
// fault text — and, where the run completes, to the whole-array
// binding. The lane path must run where the program says, and
// in-window lanes of dense windows never reach At/SetAt.
func TestLaneLoopsEqualScalar(t *testing.T) {
	for _, lp := range laneProgs {
		prog, err := lang.ParseProgram(lp.src)
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		whole := runLaneProg(t, lp, prog, "whole", true)
		for _, b := range laneBindings {
			label := lp.name + "/" + b
			got := runLaneProg(t, lp, prog, b, true)
			sameLaneRun(t, label+" vs interpreter", got, runLaneProg(t, lp, prog, b, false))
			complete := got.err == "" && got.panicked == ""
			if complete {
				sameLaneRun(t, label+" vs whole arrays", got, whole)
			}
			if wantLanes := strings.Contains(lp.lanes, b); wantLanes != (got.laneRuns > 0) && b != "holes" {
				t.Fatalf("%s: %d loops ran lane-wise, want lanes: %v", label, got.laneRuns, wantLanes)
			}
			if b == "window" && complete && got.atCalls != 0 {
				t.Fatalf("%s: in-window accesses reached At/SetAt %d times", label, got.atCalls)
			}
		}
	}
}

// TestLaneFaults pins where each guard failure stops: the scalar loop
// raises the fault the interpreter raises.
func TestLaneFaults(t *testing.T) {
	want := map[string]string{
		"oob-last":            "index 4 out of bounds",
		"short-vector":        "lang: vector subscript 4 out of range",
		"undefined-global":    `lang: undefined variable "g"`,
		"budget":              "lang: step budget exhausted",
		"maybe-defined":       `lang: undefined variable "c"`,
		"vector-lo":           "lang: vector subscript 0 out of range",
		"select-undefined":    `lang: undefined variable "last"`,
		"select-short-vector": "lang: vector subscript 4 out of range",
		"select-budget":       "lang: step budget exhausted",
	}
	for _, lp := range laneProgs {
		prog, err := lang.ParseProgram(lp.src)
		if err != nil {
			t.Fatal(err)
		}
		got := runLaneProg(t, lp, prog, "whole", true)
		if fault := got.err + got.panicked; !strings.Contains(fault, want[lp.name]) || (fault == "") != (want[lp.name] == "") {
			t.Errorf("%s: stopped after %d with %q, want a fault containing %q", lp.name, got.done, fault, want[lp.name])
		}
	}
	i := slices.IndexFunc(laneProgs, func(lp laneProg) bool { return lp.name == "window-cut" })
	lp := laneProgs[i]
	prog, _ := lang.ParseProgram(lp.src)
	if got := runLaneProg(t, lp, prog, "window", true); got.panicked == "" || got.done != 0 {
		t.Errorf("window-cut: the windowed run stopped after %d with %q, want a fault in the first key", got.done, got.err+got.panicked)
	}
}
