package dslkernel

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// aliasing aliases a vector local, which is outside the compiled
// subset: the VM reuses per-site vector scratch across iterations, so
// it cannot make q[1] = ... write through to p as the interpreter does.
const aliasing = `
array data 10
---
for (key, v) in data
    p = zeros(3)
    q = p
    s = dot(q, q) + v * 0
end
`

// defineMsg builds the DefineLoop message a driver would ship for a
// program file.
func defineMsg(t *testing.T, name, src string) *runtime.Msg {
	t.Helper()
	prog, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &runtime.Msg{
		LoopName:    name,
		LoopSrc:     prog.Loop.String(),
		ArrayDims:   prog.Env.Arrays,
		Buffers:     prog.Env.Buffers,
		GlobalNames: prog.Globals,
		GlobalVals:  make([]float64, len(prog.Globals)),
		AccumNames:  lang.Accumulators(prog.Loop),
	}
}

// TestCompileBackendLattice: the VM is the only backend. Every shipped
// example loop and benchmark body compiles into a Block kernel, and a
// DefineLoop whose body is outside the compiled subset fails with the
// refusal's reason and position instead of running anywhere else.
func TestCompileBackendLattice(t *testing.T) {
	programs := map[string]string{}
	for n, src := range benchmarkPrograms {
		programs[n] = src
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
		if ks, err := Compile(defineMsg(t, name, src)); err != nil || ks.Block == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// q = p sits at 3:3 of the shipped source, the loop as rendered.
	const want = `dslkernel: shipped loop at 3:3 is outside the compiled subset: vector aliasing assignment "q" = "p"`
	if _, err := Compile(defineMsg(t, "aliasing", aliasing)); err == nil || err.Error() != want {
		t.Errorf("Compile = %v, want %q", err, want)
	}
}

// The three benchmark workload bodies (benchmark/workloads.go), with
// preambles sized for a test: slr's index is computed from the sample
// value, so values outside [0, 1) drive it out of bounds.
var benchmarkPrograms = map[string]string{
	"bench-mf": `array ratings 30 25
array W 4 30
array H 4 25
global step_size
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
`,
	"bench-slr": `array samples 400
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
`,
}

// fuzzSeeds are FuzzExecDifferential's inline seeds (internal/lang/vm);
// its example seeds and on-disk corpus are read from their files.
var fuzzSeeds = map[string]string{
	"fuzz-seed-1": "array data 6 4\narray A 4 4\nbuffer b A\nglobal g\n---\nfor (key, v) in data\n    p = A[:, key[2]]\n    s = dot(p, p)\n    if s > g\n        A[:, key[2]] = p - 0.5 * p\n    end\n    b[key[2], 1] += s\n    acc += s\nend\n",
	"fuzz-seed-2": "array data 4 4\narray A 4 4\nglobal g\n---\nfor (key, v) in data\n    p = A[:, key[2]]\n    A[:, key[2]] = p - g * p\n    A[key[1], 2:3] += p[1]\nend\n",
	// A slice that assigns a shipped global: every sample must still
	// start from the shipped value.
	"global-write": "array data 8\narray weights 40\nglobal t\n---\nfor (key, v) in data\n    t = t + key[1]\n    w = weights[t]\n    s += w\nend\n",
}

// TestPrefetchCompiledEqualsRecorder: the prefetch function built once
// per DefineLoop, one VM kernel, returns for every sample exactly the
// offset sequence a fresh interpreter Machine with a Recorder reports,
// and nothing on a sample where the slice faults. Runs the slice of every
// array of every shipped example, the benchmark workloads, and the
// FuzzExecDifferential corpus, over in-range and out-of-range samples.
func TestPrefetchCompiledEqualsRecorder(t *testing.T) {
	programs := map[string]string{}
	for n, src := range benchmarkPrograms {
		programs[n] = src
	}
	for n, src := range fuzzSeeds {
		programs[n] = src
	}
	paths, _ := filepath.Glob("../../examples/*/*.orion")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(p)] = string(b)
	}
	corpus := corpusSources(t, "../lang/vm/testdata/fuzz/FuzzExecDifferential")
	for name, src := range corpus {
		programs["corpus-"+name] = src
	}
	if len(paths) == 0 || len(corpus) == 0 {
		t.Fatalf("found %d example programs and %d corpus files", len(paths), len(corpus))
	}

	compiled, faulted, recorded := 0, 0, 0
	for name, src := range programs {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			if strings.HasPrefix(name, "corpus-") {
				continue
			}
			t.Fatalf("%s: %v", name, err)
		}
		var targets []string
		for a := range prog.Env.Arrays {
			if a != prog.Loop.IterVar {
				targets = append(targets, a)
			}
		}
		sort.Strings(targets)
		slice, _, err := lang.PrefetchSlice(prog.Loop, prog.Env, targets...)
		if err != nil || len(slice.Body) == 0 {
			continue
		}
		sliced, err := lang.Parse(slice.String()) // as shipped in the artifact
		if err != nil {
			t.Fatalf("%s: reparsing slice: %v", name, err)
		}
		globals := map[string]float64{"step_size": 0.05, "K": 6, "alpha": 0.1, "beta": 0.01, "vbeta": 0.8, "g": 0.5, "t": 3}
		for g := range globals {
			if !slices.Contains(prog.Globals, g) {
				delete(globals, g)
			}
		}
		env := &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: append(append([]string{}, prog.Globals...), lang.Accumulators(prog.Loop)...)}
		keys, vals := sampleKeys(prog.Env.Arrays[prog.Loop.IterVar])

		reads := &lang.Loop{KeyVar: sliced.KeyVar, ValVar: sliced.ValVar, IterVar: sliced.IterVar, Body: recordedReads(sliced.Body, map[string]bool{})}
		if _, err := vm.Compile(reads, env); err != nil {
			if !strings.HasPrefix(name, "corpus-") {
				t.Errorf("%s: slice is outside the VM subset: %v", name, err)
			}
			continue
		}
		compiled++
		for _, target := range targets {
			fn, err := prefetchFunc(sliced, targets, target, env, globals)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, target, err)
			}
			for i, key := range keys {
				// The reference: a fresh machine per sample.
				m := lang.NewMachine()
				m.Recorder = &lang.Recorder{Targets: map[string]bool{}, Indices: map[string][]int64{}}
				for _, a := range targets {
					m.Arrays[a] = &recorder{dims: prog.Env.Arrays[a]}
					m.Recorder.Targets[a] = true
				}
				for g, v := range globals {
					m.Globals[g] = v
				}
				var want []int64
				if err := m.RunIteration(sliced, key, vals[i]); err == nil {
					want = m.Recorder.Indices[target]
					recorded += len(want)
				} else {
					faulted++
				}
				if got := fn(key, vals[i]); !slices.Equal(got, want) {
					t.Fatalf("%s/%s, sample %v=%v: offsets %v, Recorder says %v", name, target, key, vals[i], got, want)
				}
			}
		}
	}
	t.Logf("%d programs: %d slices on the VM; %d faulting samples, %d recorded offsets", len(programs), compiled, faulted, recorded)
	if compiled == 0 || faulted == 0 || recorded == 0 {
		t.Fatal("degenerate run")
	}
}

// corpusSources decodes the one-string fuzz corpus files in dir, by
// file name.
func corpusSources(tb testing.TB, dir string) map[string]string {
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))
	out := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(b), "string(")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if !ok || err != nil {
			tb.Fatalf("%s: not a one-string corpus file: %v", p, err)
		}
		out[filepath.Base(p)] = src
	}
	return out
}

// sampleKeys walks an iteration space (strided down to a few hundred
// samples) and adds samples whose coordinates or value lie outside it,
// which a slice indexing by key or value faults on.
func sampleKeys(dims []int64) (keys [][]int64, vals []float64) {
	total := int64(1)
	for _, d := range dims {
		total *= d
	}
	for off := int64(0); off < total; off += total/400 + 1 {
		key, rest := make([]int64, len(dims)), off
		for d, n := range dims {
			key[d], rest = rest%n, rest/n
		}
		keys, vals = append(keys, key), append(vals, float64(off%97)/97)
	}
	for d, n := range dims {
		key := make([]int64, len(dims))
		key[d] = n + 70000
		keys, vals = append(keys, key, make([]int64, len(dims))), append(vals, 0.5, 2.5+float64(d))
	}
	return keys, vals
}

// startFleet brings up a master and n executors in this process, over
// loopback TCP or in-process pipes, which compile loops with the
// process's loop compiler. The returned stop shuts the fleet down and
// reports how the executors exited.
func startFleet(t *testing.T, prefix string, n int, tcp bool) (*runtime.Master, func() error) {
	t.Helper()
	var tr runtime.Transport = runtime.NewInProc()
	addr := func(name string) string { return prefix + "-" + name }
	if tcp {
		tr, addr = runtime.TCP{}, func(string) string { return "127.0.0.1:0" }
	}
	m, err := runtime.Listen(tr, addr("master"), n)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	var done []<-chan error
	for i := 0; i < n; i++ {
		e, err := runtime.NewExecutor(tr, m.Addr(), addr(fmt.Sprint(i)), i)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, e.Start())
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	return m, func() error {
		m.Shutdown()
		var errs []error
		for _, d := range done {
			errs = append(errs, <-d)
		}
		return errors.Join(errs...)
	}
}

// TestFaultMidBlock: a body that faults on the third sample of a VM
// block stops the block there — it reports two samples done and its
// accumulator holds those two, not the two after the fault — and the
// loop fails with the VM's fault.
func TestFaultMidBlock(t *testing.T) {
	defer Install()
	var done int
	var acc float64
	runtime.SetLoopCompiler(func(def *runtime.Msg) (*runtime.KernelSet, error) {
		ks, err := Compile(def)
		if err != nil {
			return nil, err
		}
		block := ks.Block
		ks.Block = func(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
			n, err := block(ctx, keys, vals)
			done, acc = n, *ctx.Accum("s")
			return n, err
		}
		return ks, nil
	})
	m, stop := startFleet(t, "fault", 1, false)
	defer stop()
	src := "array data 5\n---\nfor (key, v) in data\n    s += 1\n    if key[1] == 3\n        p = zeros(2)\n        s += p[3]\n    end\nend\n"
	def := defineMsg(t, "vm-fault", src)
	var samples []runtime.IterSample
	for i := int64(0); i < 5; i++ {
		samples = append(samples, runtime.IterSample{Key: []int64{i}})
	}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(def); err != nil {
		t.Fatal(err)
	}
	err := m.ParallelFor(runtime.LoopDef{Kernel: def.LoopName, TimeDim: -1, Passes: 1})
	const want = "runtime: executor 0: kernel panicked: dslkernel: vm kernel: lang: vector subscript 3 out of range"
	if err == nil || err.Error() != want {
		t.Errorf("ParallelFor = %v, want %q", err, want)
	}
	if done != 2 || acc != 2 {
		t.Errorf("block stopped after %d samples with s = %g, want 2 and 2", done, acc)
	}
}

// TestPartitionBindingsLastOneBlock runs the MF body on three executors
// with H rotating, three passes, through the real runtime, and checks
// the lifetime of the VM's dense partition bindings from outside every
// block: nothing is bound when a block starts, nothing when it returns
// — so no binding survives the fold that hands a rotated partition's
// storage back to bufpool, and an idle kernel set pins no partition —
// while each block did bind W and H. The result equals the reference
// interpreter's, which asks the executor for the partition on every
// access, bit for bit.
func TestPartitionBindingsLastOneBlock(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	var blocks int
	unbound := func(lk *loopKernel, when string) {
		if lk.vs == nil {
			return
		}
		for _, pv := range lk.vs.parts {
			if data, _ := pv.DenseData(); pv.p != nil || data != nil {
				t.Errorf("%s: %s is bound %s", lk.name, pv.name, when)
			}
		}
	}
	watched := func(def *runtime.Msg) (*runtime.KernelSet, error) {
		lk, ks, err := compile(def)
		if err != nil {
			return nil, err
		}
		block := ks.Block
		ks.Block = func(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
			unbound(lk, "before its block")
			done, err := block(ctx, keys, vals)
			unbound(lk, "after its block")
			mu.Lock()
			defer mu.Unlock()
			if len(lk.vs.parts) != 2 {
				t.Errorf("%d partition views, want W and H", len(lk.vs.parts))
			}
			blocks++
			return done, err
		}
		return ks, nil
	}
	app := mfApp(t)
	vm := runApp(t, app, n, watched, false)
	if blocks != n*n*3 {
		t.Fatalf("%d VM blocks ran, want %d", blocks, n*n*3)
	}
	equalBits(t, "the VM against the interpreter", vm, runApp(t, app, n, referenceCompile, false))
	if w := math.Float64frombits(vm["W[1 1]"]); w == 0 || math.IsNaN(w) {
		t.Fatalf("W[1,1] = %v: nothing trained", w)
	}
}

// TestBlockEntryAllocatesNothing: once a loop's first block has built
// its kernel, entering a block allocates nothing — for MF, whose body
// never calls rand(), and for the shipped LDA example, which does — and
// the rand() source, reseeded in place, draws exactly what a fresh
// rand.NewSource of the (loop, executor, pass, step) seed draws. Entry is
// measured once the fleet has stopped, so no other goroutine's
// allocations are counted against it.
func TestBlockEntryAllocatesNothing(t *testing.T) {
	defer Install()
	lda, err := os.ReadFile("../../examples/lda_dsl/lda.orion")
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols, topics = 30, 25, 6 // inside both programs' extents
	var samples []runtime.IterSample
	for d := int64(0); d < rows; d++ {
		for w := d % 3; w < cols; w += 3 {
			samples = append(samples, runtime.IterSample{Key: []int64{d, w}, Val: 1})
		}
	}
	globals := map[string]float64{"step_size": 0.05, "K": topics, "alpha": 0.5, "beta": 0.1, "vbeta": 8}
	for _, leg := range []struct {
		name, src string
		place     func(m *runtime.Master, dims map[string][]int64) error
	}{
		{"mf", benchmarkPrograms["bench-mf"], func(m *runtime.Master, dims map[string][]int64) error {
			w, h := dsm.NewDense("W", dims["W"]...), dsm.NewDense("H", dims["H"]...)
			w.FillRandn(rand.New(rand.NewSource(1)), 0.5)
			h.FillRandn(rand.New(rand.NewSource(2)), 0.5)
			return errors.Join(m.DistributeLocal(w, 1, nil), m.DistributeLocal(h, 1, nil))
		}},
		{"lda", string(lda), func(m *runtime.Master, dims map[string][]int64) error {
			z, totals := dsm.NewSparse("z", dims["z"]...), dsm.NewDense("totals", topics)
			dt, wt := dsm.NewDense("doc_topic", dims["doc_topic"]...), dsm.NewDense("word_topic", dims["word_topic"]...)
			for i, s := range samples {
				topic := int64(i % topics)
				z.SetAt(float64(topic+1), s.Key...)
				dt.AddAt(1, topic, s.Key[0])
				wt.AddAt(1, topic, s.Key[1])
				totals.AddAt(1, topic)
			}
			return errors.Join(m.DistributeLocal(z, 0, nil), m.DistributeLocal(dt, 1, nil),
				m.DistributeLocal(wt, 1, nil), m.DistributeServed(totals))
		}},
	} {
		// The last block's kernel and context, kept to re-enter after stop.
		var lk *loopKernel
		var ctx *runtime.Ctx
		var blocks int
		runtime.SetLoopCompiler(func(def *runtime.Msg) (*runtime.KernelSet, error) {
			k, ks, err := compile(def)
			if err != nil {
				return nil, err
			}
			block := ks.Block
			ks.Block = func(c *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
				blocks++
				lk, ctx = k, c
				return block(c, keys, vals)
			}
			return ks, nil
		})
		m, stop := startFleet(t, "entry-"+leg.name, 1, false)
		def := defineMsg(t, "entry-"+leg.name, leg.src)
		for i, g := range def.GlobalNames {
			def.GlobalVals[i] = globals[g]
		}
		for _, err := range []error{
			leg.place(m, def.ArrayDims),
			m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(rows, 1)),
			m.DefineLoop(def),
			m.ParallelFor(runtime.LoopDef{Kernel: def.LoopName, TimeDim: -1, Passes: 2}),
			stop(),
		} {
			if err != nil {
				t.Fatalf("%s: %v", leg.name, err)
			}
		}
		if blocks == 0 {
			t.Fatalf("%s: no block ran", leg.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { lk.enter(ctx) }); allocs != 0 {
			t.Errorf("%s: entering a block allocates %v times after %d blocks, want 0", leg.name, allocs, blocks)
		}
		h := fnv.New64a()
		h.Write([]byte(lk.name))
		seed := int64(h.Sum64()) ^ int64(ctx.ExecutorID()*7919) ^ (int64(ctx.BlockPass())*1_000_003 + int64(ctx.BlockStep())*9176)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			if got, w := lk.rng.Int63(), want.Int63(); got != w {
				t.Fatalf("%s: reseeded draw %d = %d, a fresh source of the block seed draws %d", leg.name, i, got, w)
			}
		}
	}
}

// TestPrefetchIDNamesWhatTheSliceReads: the prefetch identity changes
// with everything the slice's offsets depend on — its source, a target
// array's extents, the value of a global it names — and with nothing
// else: a global it does not name may take any value, and a DefineLoop
// without a shipped slice has no identity, so nothing is cached for it.
func TestPrefetchIDNamesWhatTheSliceReads(t *testing.T) {
	src := "for (key, v) in samples\n    __record(weights[(floor((v * scale)) + 1)])\nend\n"
	id := func(src string, weights int64, globals map[string]float64) string {
		return prefetchID(&plan.Prefetch{Src: src, Arrays: []string{"weights"}},
			&lang.CompileEnv{Arrays: map[string][]int64{"samples": {8}, "weights": {weights}}}, globals)
	}
	base := id(src, 40, map[string]float64{"scale": 3, "step_size": 0.1, "scale2": 1})
	if base == "" {
		t.Fatal("a shipped slice has no prefetch identity")
	}
	if got := id(src, 40, map[string]float64{"scale": 3, "step_size": 0.2, "scale2": 5, "err": 1}); got != base {
		t.Errorf("globals the slice does not name changed its identity:\n%q\n%q", base, got)
	}
	for what, got := range map[string]string{
		"the value of a global it reads": id(src, 40, map[string]float64{"scale": 3.0000000000000004}),
		"a target array's extents":       id(src, 41, map[string]float64{"scale": 3}),
		"the slice source":               id(strings.Replace(src, "+ 1", "+ 2", 1), 40, map[string]float64{"scale": 3}),
	} {
		if got == base {
			t.Errorf("%s did not change the identity", what)
		}
	}
	ks, err := Compile(defineMsg(t, "no-slice", benchmarkPrograms["bench-mf"]))
	if err != nil {
		t.Fatal(err)
	}
	if ks.PrefetchID != "" {
		t.Errorf("a loop shipped without a slice has prefetch identity %q", ks.PrefetchID)
	}
}
