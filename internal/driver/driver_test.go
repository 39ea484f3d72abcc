package driver

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"orion/internal/data"
	"orion/internal/diag"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/sched"
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
    err += abs2(diff)
end
`

func setupMF(t *testing.T, executors int) *Session {
	t.Helper()
	sess, err := NewLocalSession(executors)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols, rank = 40, 30, 6
	ds := data.NewRatings(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 600, Rank: rank, Noise: 0.05, Seed: 3})
	ratings := sess.CreateArray("ratings", false, rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(1))
	sess.CreateArray("W", true, rank, rows).FillRandn(rng, 1.0/rank)
	sess.CreateArray("H", true, rank, cols).FillRandn(rng, 1.0)
	sess.SetGlobal("step_size", 0.05)
	sess.SetGlobal("err", 0)
	return sess
}

// mfLoss recomputes the training loss from the session's gathered
// arrays.
func mfLoss(s *Session) float64 {
	ratings, w, h := s.Array("ratings"), s.Array("W"), s.Array("H")
	var loss float64
	ratings.ForEach(func(idx []int64, v float64) {
		wv := w.Vec(idx[0])
		hv := h.Vec(idx[1])
		var pred float64
		for d := range wv {
			pred += wv[d] * hv[d]
		}
		loss += (pred - v) * (pred - v)
	})
	return loss
}

func TestDriverMFEndToEnd(t *testing.T) {
	sess := setupMF(t, 3)
	defer sess.Close()

	before := mfLoss(sess)
	plan, err := sess.ParallelFor(mfSrc, Passes(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != sched.TwoD {
		t.Fatalf("plan = %v, want 2D", plan.Kind)
	}
	after := mfLoss(sess)
	if after >= before*0.6 {
		t.Fatalf("distributed DSL training did not converge: %v -> %v", before, after)
	}

	// The accumulator aggregates every worker's per-iteration squared
	// error across all passes; it must be positive and finite.
	errSum, err := sess.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	if errSum <= 0 || math.IsNaN(errSum) {
		t.Fatalf("accumulator = %v", errSum)
	}
}

func TestDriverMFRepeatedLoops(t *testing.T) {
	// Calling ParallelFor repeatedly must keep improving (arrays are
	// gathered and redistributed between calls).
	sess := setupMF(t, 2)
	defer sess.Close()
	prev := mfLoss(sess)
	for i := 0; i < 3; i++ {
		if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
			t.Fatal(err)
		}
		cur := mfLoss(sess)
		if cur >= prev {
			t.Fatalf("loop call %d did not improve: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestDriverPlanOf(t *testing.T) {
	sess := setupMF(t, 2)
	defer sess.Close()
	spec, deps, plan, err := sess.PlanOf(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.IterSpaceArray != "ratings" {
		t.Fatalf("spec = %v", spec)
	}
	if deps.Empty() {
		t.Fatal("MF must have dependences")
	}
	if plan.Kind != sched.TwoD {
		t.Fatalf("plan = %v", plan.Kind)
	}
}

const slrSrc = `
for (key, v) in samples
    idx = floor(v * 64) + 1
    w = weights[idx]
    g = sigmoid(w) - v
    w_buf[idx] += 0 - step_size * g
end
`

func TestDriverBufferedSLRWithSynthesizedPrefetch(t *testing.T) {
	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const n, dim = 300, 64
	samples := sess.CreateArray("samples", false, n)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < n; i++ {
		samples.SetAt(rng.Float64()*0.98+0.01, i)
	}
	sess.CreateArray("weights", true, dim)
	if err := sess.CreateBuffer("w_buf", "weights"); err != nil {
		t.Fatal(err)
	}
	sess.SetGlobal("step_size", 0.1)

	plan, err := sess.ParallelFor(slrSrc, Passes(3))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != sched.Independent && plan.Kind != sched.OneD {
		t.Fatalf("plan = %v, want 1D/independent (buffered writes)", plan.Kind)
	}
	// The slicer-synthesized prefetch function must cover every served
	// read: zero slow-path fetches.
	if m := sess.Misses(); m != 0 {
		t.Fatalf("synthesized prefetch missed %d reads", m)
	}
	// Weights moved.
	var moved bool
	sess.Array("weights").ForEach(func(_ []int64, v float64) {
		if v != 0 {
			moved = true
		}
	})
	if !moved {
		t.Fatal("buffered updates never reached the weights")
	}
}

func TestDriverRejectsUnparallelizable(t *testing.T) {
	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.CreateArray("v", false, 16)
	sess.CreateArray("A", true, 16)
	// A[i] reads A[i-1]: a serial chain.
	src := `
for (key, x) in v
    A[key[1]] = A[key[1] - 1] + x
end
`
	_, err = sess.ParallelFor(src, Ordered())
	if err == nil || !strings.Contains(err.Error(), "not") {
		t.Fatalf("expected a not-parallelizable/unsupported error, got %v", err)
	}
}

func TestDriverErrors(t *testing.T) {
	if _, err := NewLocalSession(0); err == nil {
		t.Fatal("zero executors must fail")
	}
	sess, err := NewLocalSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.CreateBuffer("b", "nope"); err == nil {
		t.Fatal("buffer over unknown array must fail")
	}
	if _, err := sess.ParallelFor("for k in nowhere\nx = 1\nend"); err == nil {
		t.Fatal("unknown iteration space must fail")
	}
	if _, err := sess.ParallelFor("not a loop"); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestDriverCheckpointRestore(t *testing.T) {
	sess := setupMF(t, 2)
	defer sess.Close()
	dir := t.TempDir()

	if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}
	mid := mfLoss(sess)
	if err := sess.Checkpoint(dir, "W", "H"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(dir, "W", "H"); err != nil {
		t.Fatal(err)
	}
	if got := mfLoss(sess); math.Abs(got-mid) > 1e-9*mid {
		t.Fatalf("restore did not rewind parameters: %v vs %v", got, mid)
	}
	// Training resumes from the checkpoint.
	if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}
	if mfLoss(sess) >= mid {
		t.Fatal("training after restore did not improve")
	}
	if err := sess.Checkpoint(dir, "nope"); err == nil {
		t.Fatal("checkpoint of unknown array must fail")
	}
	if err := sess.Restore(dir, "W", "nope"); err == nil {
		t.Fatal("restore of an array the checkpoint lacks must fail")
	}
	if err := sess.Restore(t.TempDir()); err == nil {
		t.Fatal("restore from a directory without a checkpoint must fail")
	}
}

func TestDriverMissingGlobalIsCaught(t *testing.T) {
	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.CreateArray("xs", false, 8)
	sess.Array("xs").SetAt(1, 3)
	sess.CreateArray("A", true, 8)
	src := `
for (key, v) in xs
    A[key[1]] = v * mystery
end
`
	if _, err := sess.ParallelFor(src); err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("missing global should produce a clear error, got %v", err)
	}
	// Accumulators are exempt: they default to 0 on workers.
	src2 := `
for (key, v) in xs
    hits += 1
end
`
	if _, err := sess.ParallelFor(src2); err != nil {
		t.Fatalf("accumulator-only loop should run: %v", err)
	}
}

func TestRuntimeKernelPanicSurfacesAsError(t *testing.T) {
	// A loop body that fails at runtime on workers (vector length
	// mismatch) must surface as a ParallelFor error, not a hang.
	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.CreateArray("xs", false, 8)
	sess.Array("xs").SetAt(1, 2)
	sess.CreateArray("A", true, 4, 8)
	sess.SetGlobal("c", 1)
	src := `
for (key, v) in xs
    A[:, key[1]] = zeros(3) * c
end
`
	done := make(chan error, 1)
	go func() {
		_, err := sess.ParallelFor(src)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("runtime kernel failure should propagate")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ParallelFor hung on kernel failure")
	}
}

func TestDriverTextFileAndRandomize(t *testing.T) {
	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	path := filepath.Join(t.TempDir(), "ratings.txt")
	if err := os.WriteFile(path, []byte("0 1 2.5\n3 2 1.0\n# comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	parser := func(line string) ([]int64, float64, bool) {
		var i, j int64
		var v float64
		if _, err := fmt.Sscan(line, &i, &j, &v); err != nil {
			return nil, 0, false
		}
		return []int64{i, j}, v, true
	}
	a, err := sess.CreateArrayFromTextFile("ratings", path, parser, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 || a.At(0, 1) != 2.5 {
		t.Fatalf("loaded array wrong: len=%d", a.Len())
	}
	// Randomize rows of ratings together with a row-aligned table.
	w := sess.CreateArray("Wt", true, 2, 4)
	w.SetAt(9, 0, 3)
	perm, err := sess.Randomize(7, ArrayDim{"ratings", 0}, ArrayDim{"Wt", 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	if got := sess.Array("ratings").At(perm[3], 2); got != 1.0 {
		t.Fatalf("permuted ratings wrong: %v", got)
	}
	if got := sess.Array("Wt").At(0, perm[3]); got != 9 {
		t.Fatalf("companion permutation wrong: %v", got)
	}
	if _, err := sess.Randomize(7, ArrayDim{"nope", 0}); err == nil {
		t.Fatal("unknown array must fail")
	}
}

// TestDriverSingleExecutorMatchesInterpreter: with one executor there
// is exactly one block per pass, executed in iteration order — the
// distributed result must be bitwise identical to serially interpreting
// the same program on the same arrays.
func TestDriverSingleExecutorMatchesInterpreter(t *testing.T) {
	sess := setupMF(t, 1)
	defer sess.Close()

	// Serial interpretation on clones of the session's arrays.
	m := lang.NewMachine()
	ratings := sess.Array("ratings").Clone()
	w := sess.Array("W").Clone()
	h := sess.Array("H").Clone()
	m.Arrays["ratings"] = ratings
	m.Arrays["W"] = w
	m.Arrays["H"] = h
	m.Globals["step_size"] = float64(0.05)
	m.Globals["err"] = float64(0)
	loop, err := lang.Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunLoop(loop); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.ParallelFor(mfSrc, Passes(1)); err != nil {
		t.Fatal(err)
	}

	var maxDiff float64
	w.ForEach(func(idx []int64, v float64) {
		if d := math.Abs(v - sess.Array("W").At(idx...)); d > maxDiff {
			maxDiff = d
		}
	})
	h.ForEach(func(idx []int64, v float64) {
		if d := math.Abs(v - sess.Array("H").At(idx...)); d > maxDiff {
			maxDiff = d
		}
	})
	if maxDiff != 0 {
		t.Fatalf("single-executor distributed run differs from serial interpretation by %g", maxDiff)
	}
}

// TestDriverOrderedWavefrontMatchesSerial: an ordered 2D loop on the
// distributed runtime preserves lexicographic order — the result must
// be bitwise identical to serial interpretation, for any executor
// count: from three on the hand-off successor is not the ring
// predecessor.
func TestDriverOrderedWavefrontMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		sess := setupMF(t, n)

		// Serial reference on clones.
		m := lang.NewMachine()
		ratings := sess.Array("ratings").Clone()
		w := sess.Array("W").Clone()
		h := sess.Array("H").Clone()
		m.Arrays["ratings"] = ratings
		m.Arrays["W"] = w
		m.Arrays["H"] = h
		m.Globals["step_size"] = float64(0.05)
		m.Globals["err"] = float64(0)
		loop, err := lang.Parse(mfSrc)
		if err != nil {
			t.Fatal(err)
		}
		// dsm iteration order is offset order (column-major); ordered
		// execution is lexicographic (row-major). Run the reference in
		// lexicographic order.
		type kv struct {
			key []int64
			val float64
		}
		var items []kv
		ratings.ForEach(func(idx []int64, v float64) {
			items = append(items, kv{append([]int64(nil), idx...), v})
		})
		sort.Slice(items, func(a, b int) bool {
			ka, kb := items[a].key, items[b].key
			if ka[0] != kb[0] {
				return ka[0] < kb[0]
			}
			return ka[1] < kb[1]
		})
		for _, it := range items {
			if err := m.RunIteration(loop, it.key, it.val); err != nil {
				t.Fatal(err)
			}
		}

		plan, err := sess.ParallelFor(mfSrc, Passes(1), Ordered())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != sched.TwoD {
			t.Fatalf("plan = %v", plan.Kind)
		}
		for _, ap := range plan.Arrays {
			if ap.Array == "H" && ap.Place != sched.Wavefront {
				t.Fatalf("%d executors: H placed %v, want it handed down the wavefront", n, ap.Place)
			}
		}
		if e, _ := sess.planFor(mfSrc, true); e.art.TimeParts != min(8*n, 30) {
			t.Errorf("%d executors: time cut into %d parts, want %d", n, e.art.TimeParts, min(8*n, 30))
		}
		var maxDiff float64
		w.ForEach(func(idx []int64, v float64) {
			if d := math.Abs(v - sess.Array("W").At(idx...)); d > maxDiff {
				maxDiff = d
			}
		})
		h.ForEach(func(idx []int64, v float64) {
			if d := math.Abs(v - sess.Array("H").At(idx...)); d > maxDiff {
				maxDiff = d
			}
		})
		if maxDiff != 0 {
			t.Fatalf("%d executors: ordered wavefront differs from serial by %g", n, maxDiff)
		}
		sess.Close()
	}
}

// benchmarkSLR is the benchmark's slr_served body, whose index scale
// is wider than the example's.
const benchmarkSLR = `
array samples 400
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

// TestDriverBackendSelection: every executor runs the VM, and planning
// stands in for it — the loops of the benchmark workloads and of every
// shipped example lie inside the compiled subset, so each plans in a
// session without an ORN018 refusal, and a loop that plans runs.
func TestDriverBackendSelection(t *testing.T) {
	programs := map[string]string{
		"bench-mf":  "array ratings 40 30\narray W 6 40\narray H 6 30\nglobal step_size\n---\n" + mfSrc,
		"bench-lda": "array tokens 40 30\narray z 40 30\narray doc_topic 4 40\narray word_topic 4 30\narray totals 4\nbuffer tot_buf totals\nglobal K alpha beta vbeta\n---\n" + ldaDSL,
		"bench-slr": benchmarkSLR,
	}
	paths, err := filepath.Glob("../../examples/*/*.orion")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(p)] = string(b)
	}
	for name, src := range programs {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sess, err := NewLocalSession(1)
		if err != nil {
			t.Fatal(err)
		}
		for a, dims := range prog.Env.Arrays {
			sess.CreateArray(a, true, dims...)
		}
		for b, target := range prog.Env.Buffers {
			if err := sess.CreateBuffer(b, target); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range prog.Globals {
			sess.SetGlobal(g, 1)
		}
		if _, err := sess.PlanArtifact(prog.Loop.String()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d := sess.Diagnostics().First(diag.CodeNotCompilable); d != nil {
			t.Errorf("%s: %v", name, d)
		}
		sess.Close()
	}

	sess := setupMF(t, 2)
	defer sess.Close()
	if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}
}

// TestDriverRefusesUntypedLoop: a loop outside the statically typed
// subset the executors compile — here q = p aliases a vector, which the
// VM, reusing per-site vector scratch across iterations, cannot model —
// is refused at plan time with ORN018 at the target of q = p (line 4,
// column 5) by ParallelFor, PlanArtifact and KernelBackend alike, and
// nothing ships to the executors.
func TestDriverRefusesUntypedLoop(t *testing.T) {
	const src = `
for (key, v) in data
    p = zeros(3)
    q = p
    s = dot(q, q) + v * 0
end
`
	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.CreateArray("data", true, 10).Map(func(float64) float64 { return 0.5 })

	obs.Flight().Reset()
	const want = "4:5: error[ORN018]: loop body is outside the statically typed subset the executors compile: vector aliasing assignment"
	_, pfErr := sess.ParallelFor(src)
	_, artErr := sess.PlanArtifact(src)
	_, kbErr := sess.KernelBackend(src)
	for what, err := range map[string]error{"ParallelFor": pfErr, "PlanArtifact": artErr, "KernelBackend": kbErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = %v, want an error containing %q", what, err, want)
		}
	}
	for _, ev := range obs.Flight().Events() {
		if strings.HasSuffix(string(ev.Kind), ".ship") {
			t.Errorf("a refused loop shipped: %s %s", ev.Kind, ev.Detail)
		}
	}
	if r := sess.CombinedReport(); r != nil {
		t.Errorf("a refused loop ran: %+v", r)
	}

	// A global the loop reads but the session never set is the same
	// refusal, at the read.
	const unset = "for (key, v) in data\n    s = v * scale\nend\n"
	if _, err := sess.ParallelFor(unset); err == nil || !strings.Contains(err.Error(), `2:13: error[ORN018]`) || !strings.Contains(err.Error(), `"scale"`) {
		t.Errorf("ParallelFor with scale unset = %v, want ORN018 at 2:13 naming scale", err)
	}
}
