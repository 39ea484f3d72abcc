package lang

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orion/internal/dep"
	"orion/internal/dsm"
	"orion/internal/ir"
	"orion/internal/sched"
)

// mfSrc is the SGD MF loop of Fig. 5/6 in DSL form.
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

func mfEnv() *Env {
	return &Env{Arrays: map[string][]int64{
		"ratings": {6, 5},
		"W":       {3, 6},
		"H":       {3, 5},
	}}
}

func TestLexBasic(t *testing.T) {
	toks, err := Lex("a = b[1, :] + 2.5e-1 # comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{TokIdent, TokOp, TokIdent, TokLBracket, TokNumber, TokComma,
		TokColon, TokRBracket, TokOp, TokNumber, TokNewline, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, kinds[i], want[i], toks)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("a ! b"); err == nil {
		t.Error("expected error for '!'")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("expected error for '@'")
	}
}

func TestParseMF(t *testing.T) {
	loop, err := Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if loop.KeyVar != "key" || loop.ValVar != "rv" || loop.IterVar != "ratings" {
		t.Fatalf("loop header wrong: %+v", loop)
	}
	if len(loop.Body) != 8 {
		t.Fatalf("body has %d stmts, want 8", len(loop.Body))
	}
	// Round trip through String and Parse again.
	loop2, err := Parse(loop.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, loop.String())
	}
	if loop2.String() != loop.String() {
		t.Fatalf("print/parse not stable:\n%s\nvs\n%s", loop.String(), loop2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"for key in\nend",
		"for (key) in a\nend",
		"for key in a\nx = \nend",
		"for key in a\nif x\nend", // missing end for the loop
		"x = 1",
		"for key in a\n1 = x\nend",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	loop, err := Parse("for k in a\nx = 1 + 2 * 3 ^ 2\nend")
	if err != nil {
		t.Fatal(err)
	}
	got := loop.Body[0].(*Assign).Value.String()
	if got != "(1 + (2 * (3 ^ 2)))" {
		t.Fatalf("precedence wrong: %s", got)
	}
}

func TestParseElseif(t *testing.T) {
	src := `
for k in a
    if x > 1
        y = 1
    elseif x > 0
        y = 2
    else
        y = 3
    end
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifst, ok := loop.Body[0].(*If)
	if !ok || len(ifst.Else) != 1 {
		t.Fatalf("elseif desugaring broken: %s", loop)
	}
	if _, ok := ifst.Else[0].(*If); !ok {
		t.Fatalf("elseif should nest an if: %s", loop)
	}
}

func TestAnalyzeMFMatchesFig6(t *testing.T) {
	loop, err := Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, mfEnv())
	if err != nil {
		t.Fatal(err)
	}
	if spec.IterSpaceArray != "ratings" || spec.Dims[0] != 6 || spec.Dims[1] != 5 {
		t.Fatalf("iteration space wrong: %v", spec)
	}
	// Fig. 6 loop information: reads W[:,key[1]], H[:,key[2]]; writes
	// the same; inherited step_size.
	var reads, writes int
	for _, r := range spec.Refs {
		if r.IsWrite {
			writes++
		} else {
			reads++
		}
	}
	if reads != 2 || writes != 2 {
		t.Fatalf("refs = %v", spec.Refs)
	}
	if len(spec.Inherited) != 1 || spec.Inherited[0] != "step_size" {
		t.Fatalf("inherited = %v", spec.Inherited)
	}
	// Dependence vectors (0,inf),(inf,0) → 2D parallelizable.
	deps, err := dep.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewFromDeps(spec, deps, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != sched.TwoD {
		t.Fatalf("plan = %v, want 2D (deps %v)", plan.Kind, deps)
	}
}

func TestAnalyzeSubscriptForms(t *testing.T) {
	src := `
for (key, v) in grid
    a = A[key[1] + 1, 3]
    B[key[2] - 2, 1:4] = a
    c = C[key[1], key[2]]
    D[5, :] = c + a
end
`
	env := &Env{Arrays: map[string][]int64{
		"grid": {8, 8}, "A": {10, 10}, "B": {10, 10}, "C": {8, 8}, "D": {10, 10},
	}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, env)
	if err != nil {
		t.Fatal(err)
	}
	find := func(array string) ir.ArrayRef {
		for _, r := range spec.Refs {
			if r.Array == array {
				return r
			}
		}
		t.Fatalf("no ref to %s", array)
		return ir.ArrayRef{}
	}
	a := find("A")
	if a.Subs[0].Kind != ir.SubIndex || a.Subs[0].Dim != 0 || a.Subs[0].Const != 1 {
		t.Fatalf("A sub0 = %v", a.Subs[0])
	}
	if a.Subs[1].Kind != ir.SubConst || a.Subs[1].Const != 2 { // 1-based 3 → 0-based 2
		t.Fatalf("A sub1 = %v", a.Subs[1])
	}
	b := find("B")
	if b.Subs[0].Kind != ir.SubIndex || b.Subs[0].Dim != 1 || b.Subs[0].Const != -2 {
		t.Fatalf("B sub0 = %v", b.Subs[0])
	}
	if b.Subs[1].Kind != ir.SubRange || b.Subs[1].Lo != 0 || b.Subs[1].Hi != 3 {
		t.Fatalf("B sub1 = %v", b.Subs[1])
	}
	d := find("D")
	if d.Subs[1].Kind != ir.SubRange || !d.Subs[1].Full {
		t.Fatalf("D sub1 = %v", d.Subs[1])
	}
}

func TestAnalyzeRuntimeSubscript(t *testing.T) {
	src := `
for (key, v) in samples
    idx = floor(v * 10) + 1
    w = weights[idx]
    weights[idx] = w - 0.1
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {100}, "weights": {10}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range spec.Refs {
		if r.Array == "weights" && r.Subs[0].Kind != ir.SubRuntime {
			t.Fatalf("weights subscript should be runtime: %v", r)
		}
	}
}

func TestAnalyzeBufferedWrites(t *testing.T) {
	src := `
for (key, v) in samples
    idx = floor(v * 10) + 1
    g = v - 1
    w_buf[idx] += g
end
`
	env := &Env{
		Arrays:  map[string][]int64{"samples": {100}, "weights": {10}},
		Buffers: map[string]string{"w_buf": "weights"},
	}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, env)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range spec.Refs {
		if r.Array == "weights" && r.IsWrite {
			if !r.Buffered {
				t.Fatalf("buffer write not marked buffered: %v", r)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("buffered write ref missing")
	}
	deps, err := dep.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !deps.Empty() {
		t.Fatalf("buffered-only writes should leave no dependences: %v", deps)
	}
}

func TestAnalyzeAccumulatorInherited(t *testing.T) {
	src := `
for (key, rv) in ratings
    pred = dot(W[:, key[1]], H[:, key[2]])
    err += abs2(rv - pred)
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, mfEnv())
	if err != nil {
		t.Fatal(err)
	}
	has := false
	for _, v := range spec.Inherited {
		if v == "err" {
			has = true
		}
	}
	if !has {
		t.Fatalf("accumulator err should be inherited: %v", spec.Inherited)
	}
}

func TestInterpMFMatchesHandComputation(t *testing.T) {
	loop, err := Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	ratings := dsm.NewSparse("ratings", 6, 5)
	ratings.SetAt(2.0, 1, 2) // one observed entry at (1,2), value 2
	w := dsm.NewDense("W", 3, 6)
	h := dsm.NewDense("H", 3, 5)
	// W[:,1] = (1, 0, 1); H[:,2] = (0.5, 0.5, 0.5)
	w.Vec(1)[0], w.Vec(1)[2] = 1, 1
	h.Vec(2)[0], h.Vec(2)[1], h.Vec(2)[2] = 0.5, 0.5, 0.5
	m.Arrays["ratings"] = ratings
	m.Arrays["W"] = w
	m.Arrays["H"] = h
	m.Globals["step_size"] = float64(0.1)
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	// pred = 1*0.5 + 0 + 1*0.5 = 1; diff = 2 - 1 = 1.
	// New W[:,1] = old + 0.1*2*1*H_row = (1.1, 0.1, 1.1)
	// New H[:,2] = old + 0.1*2*1*W_row_old = (0.7, 0.5, 0.7)
	wantW := []float64{1.1, 0.1, 1.1}
	wantH := []float64{0.7, 0.5, 0.7}
	for i := 0; i < 3; i++ {
		if math.Abs(w.Vec(1)[i]-wantW[i]) > 1e-12 {
			t.Fatalf("W[:,1] = %v, want %v", w.Vec(1), wantW)
		}
		if math.Abs(h.Vec(2)[i]-wantH[i]) > 1e-12 {
			t.Fatalf("H[:,2] = %v, want %v", h.Vec(2), wantH)
		}
	}
}

func TestInterpAccumulator(t *testing.T) {
	src := `
for (key, v) in xs
    err += v * v
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 5)
	xs.SetAt(2, 0)
	xs.SetAt(3, 4)
	m.Arrays["xs"] = xs
	m.Globals["err"] = float64(0)
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	if got := m.Globals["err"].(float64); got != 13 {
		t.Fatalf("err = %v, want 13", got)
	}
}

func TestInterpIfElse(t *testing.T) {
	src := `
for (key, v) in xs
    if v > 1
        big += 1
    else
        small += 1
    end
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 4)
	xs.SetAt(0.5, 0)
	xs.SetAt(2, 1)
	xs.SetAt(3, 2)
	m.Arrays["xs"] = xs
	m.Globals["big"] = float64(0)
	m.Globals["small"] = float64(0)
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	if m.Globals["big"].(float64) != 2 || m.Globals["small"].(float64) != 1 {
		t.Fatalf("big=%v small=%v", m.Globals["big"], m.Globals["small"])
	}
}

func TestInterpBufferWrites(t *testing.T) {
	src := `
for (key, v) in xs
    wbuf[key[1]] += v
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 4)
	xs.SetAt(1.5, 2)
	weights := dsm.NewDense("weights", 4)
	buf := dsm.NewBuffer(weights, nil)
	m.Arrays["xs"] = xs
	m.Arrays["weights"] = weights
	m.Buffers["wbuf"] = buf
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	if weights.At(2) != 0 {
		t.Fatal("buffered write applied too early")
	}
	buf.Flush(weights)
	if weights.At(2) != 1.5 {
		t.Fatalf("weights[2] = %v after flush", weights.At(2))
	}
}

func TestInterpErrors(t *testing.T) {
	cases := []string{
		"for k in xs\ny = nope\nend",             // undefined var
		"for k in xs\ny = unknown(1)\nend",       // unknown function
		"for k in xs\ny = A[1]\nend",             // unknown array
		"for k in xs\ny += 1\nend",               // compound on undefined
		"for k in xs\ny = dot(1, 2)\nend",        // bad builtin args
		"for k in xs\nif 1 + 1\ny = 1\nend\nend", // non-bool condition
	}
	for _, src := range cases {
		loop, err := Parse(src)
		if err != nil {
			t.Fatalf("parse error for %q: %v", src, err)
		}
		m := NewMachine()
		xs := dsm.NewSparse("xs", 3)
		xs.SetAt(1, 0)
		m.Arrays["xs"] = xs
		if err := m.RunLoop(loop); err == nil {
			t.Errorf("expected runtime error for %q", src)
		}
	}
}

func TestPrefetchSliceSLR(t *testing.T) {
	// The Section 4.4/6.3 scenario: subscripts computed from the data
	// record (prefetchable) and a read whose subscript depends on a
	// DistArray value (skipped).
	src := `
for (key, v) in samples
    idx = floor(v * 10) + 1
    scale = 2 * v
    w = weights[idx]
    other = weights[w * 3 + 1]
    unrelated = 12345
    g = w * scale
    wbuf[idx] += g
end
`
	env := &Env{
		Arrays:  map[string][]int64{"samples": {100}, "weights": {50}},
		Buffers: map[string]string{"wbuf": "weights"},
	}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "weights") {
		t.Fatalf("skipped = %v, want the data-dependent read", skipped)
	}
	text := sliced.String()
	if !strings.Contains(text, "__record(weights[idx])") {
		t.Fatalf("slice missing record call:\n%s", text)
	}
	if !strings.Contains(text, "idx =") {
		t.Fatalf("slice must keep the idx definition:\n%s", text)
	}
	if strings.Contains(text, "unrelated") || strings.Contains(text, "g =") || strings.Contains(text, "scale") {
		t.Fatalf("slice kept dead statements:\n%s", text)
	}

	// Run the slice in record mode and check indices.
	m := NewMachine()
	samples := dsm.NewSparse("samples", 100)
	samples.SetAt(0.25, 7) // idx = floor(2.5)+1 = 3 (1-based) → offset 2
	samples.SetAt(0.83, 9) // idx = floor(8.3)+1 = 9 → offset 8
	weights := dsm.NewDense("weights", 50)
	m.Arrays["samples"] = samples
	m.Arrays["weights"] = weights
	m.Recorder = NewRecorder("weights")
	if err := m.RunLoop(sliced); err != nil {
		t.Fatal(err)
	}
	got := m.Recorder.Indices["weights"]
	if len(got) != 2 || got[0] != 2 || got[1] != 8 {
		t.Fatalf("recorded indices = %v, want [2 8]", got)
	}
}

func TestPrefetchSliceControlDependence(t *testing.T) {
	src := `
for (key, v) in samples
    idx = floor(v * 10) + 1
    if v > 0.5
        w = weights[idx]
        sum += w
    end
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {100}, "weights": {50}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("nothing should be skipped: %v", skipped)
	}
	text := sliced.String()
	if !strings.Contains(text, "if (v > 0.5)") {
		t.Fatalf("slice must keep the guard:\n%s", text)
	}
	m := NewMachine()
	samples := dsm.NewSparse("samples", 100)
	samples.SetAt(0.25, 1) // guard false: no record
	samples.SetAt(0.83, 2) // guard true: record offset 8
	m.Arrays["samples"] = samples
	m.Arrays["weights"] = dsm.NewDense("weights", 50)
	m.Recorder = NewRecorder("weights")
	if err := m.RunLoop(sliced); err != nil {
		t.Fatal(err)
	}
	got := m.Recorder.Indices["weights"]
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("recorded = %v, want [8]", got)
	}
}

// TestPrefetchSliceDataDependentGuard: a read guarded by a condition on
// a DistArray value stays on-demand, so the slice names no variable it
// does not define, while a bare read under a condition on a local keeps
// that local's definition.
func TestPrefetchSliceDataDependentGuard(t *testing.T) {
	src := `
for (key, v) in samples
    s = weights[1] * v
    c = v * 2
    if s > 0
        weights[2]
    end
    if c > 1
        weights[3]
    end
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {10}, "weights": {50}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "weights[2]" {
		t.Fatalf("skipped = %v, want [weights[2]]", skipped)
	}
	const want = "for (key, v) in samples\n  __record(weights[1])\n  c = (v * 2)\n  if (c > 1)\n  __record(weights[3])\nend\nend"
	if got := sliced.String(); got != want {
		t.Fatalf("slice %q, want %q", got, want)
	}
}

func TestPrefetchSliceRangeRead(t *testing.T) {
	// Full-range reads record every element of the vector.
	src := `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    pred = dot(W_row, W_row)
end
`
	env := mfEnv()
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, _, err := PrefetchSlice(loop, env, "W")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	ratings := dsm.NewSparse("ratings", 6, 5)
	ratings.SetAt(1, 2, 3)
	m.Arrays["ratings"] = ratings
	m.Arrays["W"] = dsm.NewDense("W", 3, 6)
	m.Recorder = NewRecorder("W")
	if err := m.RunLoop(sliced); err != nil {
		t.Fatal(err)
	}
	got := m.Recorder.Indices["W"]
	// W[:,2] in 0-based coords = offsets 2*3 + {0,1,2}.
	if len(got) != 3 || got[0] != 6 || got[2] != 8 {
		t.Fatalf("recorded = %v, want [6 7 8]", got)
	}
}

func TestAnalyzerRejectsBadPrograms(t *testing.T) {
	env := mfEnv()
	cases := []string{
		"for (key, rv) in nowhere\nx = 1\nend",            // unknown iter space
		"for (key, rv) in ratings\nx = mystery[1]\nend",   // unknown subscripted name
		"for (key, rv) in ratings\nmystery[1] = 1\nend",   // unknown write target
		"for (key, rv) in ratings\nx = unknownfn(1)\nend", // unknown function
	}
	for _, src := range cases {
		loop, err := Parse(src)
		if err != nil {
			t.Fatalf("parse of %q: %v", src, err)
		}
		if _, err := Analyze(loop, env); err == nil {
			t.Errorf("expected analysis error for %q", src)
		}
	}
}

func TestForRangeParseAndInterp(t *testing.T) {
	src := `
for (key, v) in xs
    acc = 0
    for k = 1:4
        acc = acc + k * v
    end
    total += acc
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Reparse round trip.
	if _, err := Parse(loop.String()); err != nil {
		t.Fatalf("reparse: %v\n%s", err, loop.String())
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 3)
	xs.SetAt(2, 0)
	m.Arrays["xs"] = xs
	m.Globals["total"] = float64(0)
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	// acc = (1+2+3+4)*2 = 20
	if got := m.Globals["total"].(float64); got != 20 {
		t.Fatalf("total = %v, want 20", got)
	}
}

func TestForRangeInnerVarSubscriptIsRuntime(t *testing.T) {
	src := `
for (key, v) in xs
    for k = 1:3
        A[k] = A[k] + v
    end
end
`
	env := &Env{Arrays: map[string][]int64{"xs": {8}, "A": {3}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Analyze(loop, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range spec.Refs {
		if r.Array == "A" && r.Subs[0].Kind != ir.SubRuntime {
			t.Fatalf("inner-loop-var subscript should be conservative runtime: %v", r)
		}
	}
	// Conservative runtime subscripts with unbuffered writes: the loop
	// must not be parallelizable without buffers.
	deps, err := dep.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deps.Empty() {
		t.Fatal("inner-var writes must produce conservative dependences")
	}
}

func TestForRangeAccumulatorDetected(t *testing.T) {
	src := `
for (key, v) in xs
    for k = 1:2
        hits += 1
    end
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	accs := Accumulators(loop)
	if len(accs) != 1 || accs[0] != "hits" {
		t.Fatalf("Accumulators = %v", accs)
	}
}

func TestForRangePrefetchSlice(t *testing.T) {
	// The subscript-feeding statement sits inside an inner loop: the
	// slice must keep the loop with only the needed statements.
	src := `
for (key, v) in samples
    base = floor(v * 10)
    for k = 1:2
        idx = base + k
        w = weights[idx]
        junk = w * 2
    end
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {50}, "weights": {20}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	text := sliced.String()
	if !strings.Contains(text, "for k = 1:2") {
		t.Fatalf("slice must keep the inner loop:\n%s", text)
	}
	if strings.Contains(text, "junk") {
		t.Fatalf("slice kept dead code:\n%s", text)
	}
	m := NewMachine()
	samples := dsm.NewSparse("samples", 50)
	samples.SetAt(0.52, 3) // base = 5; idx = 6, 7 → offsets 5, 6
	m.Arrays["samples"] = samples
	m.Arrays["weights"] = dsm.NewDense("weights", 20)
	m.Recorder = NewRecorder("weights")
	if err := m.RunLoop(sliced); err != nil {
		t.Fatal(err)
	}
	got := m.Recorder.Indices["weights"]
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("recorded = %v, want [5 6]", got)
	}
}

func TestForRangeTaintPropagation(t *testing.T) {
	// A variable fed from an array read inside an inner loop must taint
	// subscripts that depend on it — the dependent ref is skipped.
	src := `
for (key, v) in samples
    x = 0
    for k = 1:2
        x = x + weights[1]
    end
    w = weights[x + 1]
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {10}, "weights": {20}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range skipped {
		if strings.Contains(s, "x") {
			found = true
		}
	}
	if !found {
		t.Fatalf("data-dependent ref should be skipped, got skipped=%v", skipped)
	}
}

func TestRandBuiltin(t *testing.T) {
	src := `
for (key, v) in xs
    total += rand()
end
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 4)
	xs.SetAt(1, 0)
	xs.SetAt(1, 1)
	m.Arrays["xs"] = xs
	m.Globals["total"] = float64(0)
	if err := m.RunLoop(loop); err == nil {
		t.Fatal("rand() without an Rng must error")
	}
	m.Globals["total"] = float64(0)
	m.Rng = rand.New(rand.NewSource(7))
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	got := m.Globals["total"].(float64)
	if got <= 0 || got >= 2 {
		t.Fatalf("total = %v, want in (0,2)", got)
	}
	// Deterministic with the same seed.
	m2 := NewMachine()
	m2.Arrays["xs"] = xs
	m2.Globals["total"] = float64(0)
	m2.Rng = rand.New(rand.NewSource(7))
	if err := m2.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
	if m2.Globals["total"].(float64) != got {
		t.Fatal("rand() not deterministic under a fixed seed")
	}
}

func TestInterpMoreErrorPaths(t *testing.T) {
	mkMachine := func() *Machine {
		m := NewMachine()
		xs := dsm.NewSparse("xs", 4)
		xs.SetAt(1, 0)
		m.Arrays["xs"] = xs
		m.Arrays["A"] = dsm.NewDense("A", 3, 4)
		weights := dsm.NewDense("weights", 4)
		m.Buffers["wbuf"] = dsm.NewBuffer(weights, nil)
		return m
	}
	cases := []struct {
		name, src string
	}{
		{"buffer plain assign", "for (k, v) in xs\nwbuf[k[1]] = v\nend"},
		{"buffer vector write", "for (k, v) in xs\nwbuf[k[1]] += zeros(2)\nend"},
		{"two range subscripts", "for (k, v) in xs\ny = A[:, :]\nend"},
		{"vector length mismatch", "for (k, v) in xs\nA[:, k[1]] = zeros(2)\nend"},
		{"scalar write of vector", "for (k, v) in xs\nA[1, k[1]] = zeros(3)\nend"},
		{"key arity", "for (k, v) in xs\ny = k[1, 2]\nend"},
		{"key out of range", "for (k, v) in xs\ny = k[9]\nend"},
		{"subscript arity", "for (k, v) in xs\ny = A[k[1]]\nend"},
		{"length of scalar", "for (k, v) in xs\ny = length(v)\nend"},
		{"dot arity", "for (k, v) in xs\ny = dot(zeros(2))\nend"},
		{"vector condition", "for (k, v) in xs\ny = zeros(2) < zeros(2)\nend"},
	}
	for _, c := range cases {
		loop, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if err := mkMachine().RunLoop(loop); err == nil {
			t.Errorf("%s: expected a runtime error", c.name)
		}
	}
}

func TestInterpVectorOps(t *testing.T) {
	src := `
for (k, v) in xs
    a = zeros(3)
    a[1] = 1
    a[2] = 2
    a[3] = 3
    b = a * 2 + 1
    c = (0 - 1) * a
    s = dot(b, a) + c[2] + length(a) + min(4, 2) + max(1, 5) + a ^ 2
end
`
	// a^2 on a vector is elementwise; result discarded via s? s is
	// scalar + vector -> vector; just check it runs.
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	xs := dsm.NewSparse("xs", 2)
	xs.SetAt(1, 0)
	m.Arrays["xs"] = xs
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSliceSkipsRandSubscripts: a subscript computed from
// rand() is not prefetchable — the slice would draw differently from
// the body, so what it recorded would not be what the body reads. The
// reference is skipped like a data-dependent one and stays on demand;
// a sibling read that does not depend on the draw is still sliced.
func TestPrefetchSliceSkipsRandSubscripts(t *testing.T) {
	src := `
for (key, v) in samples
    r = rand()
    pick = floor(r * 50) + 1
    w = weights[pick]
    u = weights[key[1]]
    if rand() < 0.5
        j = key[1]
    else
        j = 1
    end
    x = weights[j]
    sum += w + u + x
end
`
	env := &Env{Arrays: map[string][]int64{"samples": {50}, "weights": {50}}}
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sliced, skipped, err := PrefetchSlice(loop, env, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"weights[pick]", "weights[j]"}; !slices.Equal(skipped, want) {
		t.Errorf("skipped %v, want %v", skipped, want)
	}
	text := sliced.String()
	if strings.Contains(text, "rand") || strings.Contains(text, "pick") {
		t.Errorf("the slice still draws:\n%s", text)
	}
	if !strings.Contains(text, "__record(weights[key[1]])") {
		t.Errorf("the slice lost the draw-independent read:\n%s", text)
	}
}
