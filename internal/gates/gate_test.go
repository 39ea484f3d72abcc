// Package gates holds the live ratio gates: benchmarks that time the
// real runtime against a direct baseline in the same run and fail above
// a bar. It has no non-test code; `make exec-gate`, `vm-gate`,
// `vm-gate-mf` and `resident-gate` run it, `go test ./...` does not.
package gates

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"orion/internal/driver"
	"orion/internal/dslkernel"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// gateMFSrc is the SGD MF body all three gates run.
const gateMFSrc = `
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

// BenchmarkExecutorVsDirectKernel is a gate that compares two
// measurements taken in the same run, not a number parsed back out of a
// committed file: the MF body's cost per iteration inside a real
// executor — one worker, partitions bound into the VM by
// internal/dslkernel, compute time as the executor itself reports it per
// block — against the same bytecode run directly over the whole arrays
// with vm.Kernel.RunBlock on the same keys. Rounds alternate between the
// two and each side keeps its lower decile, so a noisy host moves both.
// Above 2.5x the benchmark fails: the executor has grown a per-access
// or per-iteration adapter again (it measured 9x before partitions
// were bound as dense windows). `make check` runs it through
// exec-gate; `go test ./...` does not.
func BenchmarkExecutorVsDirectKernel(b *testing.B) {
	const rows, cols, rank, iters = 600, 500, 16, 20000
	src := gateMFSrc
	dims := map[string][]int64{"ratings": {rows, cols}, "W": {rank, rows}, "H": {rank, cols}}
	rng := rand.New(rand.NewSource(3))
	samples := make([]runtime.IterSample, iters)
	keys, vals := make([][]int64, iters), make([]float64, iters)
	for i := range samples {
		keys[i], vals[i] = []int64{rng.Int63n(rows), rng.Int63n(cols)}, 1+rng.Float64()
		samples[i] = runtime.IterSample{Key: keys[i], Val: vals[i]}
	}
	params := func() (w, h *dsm.DistArray) {
		w, h = dsm.NewDense("W", rank, rows), dsm.NewDense("H", rank, cols)
		w.Map(func(float64) float64 { return 0.25 })
		h.Map(func(float64) float64 { return 0.25 })
		return w, h
	}

	loop, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(loop, &lang.CompileEnv{Arrays: dims, Globals: []string{"step_size"}})
	if err != nil {
		b.Fatal(err)
	}
	direct := prog.NewKernel()
	dw, dh := params()
	for name, a := range map[string]*dsm.DistArray{"W": dw, "H": dh} {
		if err := direct.BindArray(name, a); err != nil {
			b.Fatal(err)
		}
	}
	direct.SetGlobal("step_size", 0.001)

	dslkernel.Install()
	tr := runtime.NewInProc()
	m, err := runtime.Listen(tr, "exec-gate-master", 1)
	if err != nil {
		b.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	e, err := runtime.NewExecutor(tr, m.Addr(), "exec-gate-0", 0)
	if err != nil {
		b.Fatal(err)
	}
	done := e.Start()
	defer func() {
		m.Shutdown()
		<-done
	}()
	if err := <-ready; err != nil {
		b.Fatal(err)
	}
	ew, eh := params()
	one := func(n int64) *sched.Partitioner { return sched.NewRangePartitioner(n, 1) }
	def := &runtime.Msg{LoopName: "exec-gate", LoopSrc: loop.String(), ArrayDims: dims,
		GlobalNames: []string{"step_size"}, GlobalVals: []float64{0.001}}
	for _, err := range []error{
		m.DistributeLocal(ew, 1, nil),
		m.DistributeRotatedAt(eh, 1, nil, 0),
		m.DistributeIterSpace(samples, 0, one(rows)),
		m.DefineLoop(def),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	pass := runtime.LoopDef{Kernel: def.LoopName, TimeDim: 1, TimePart: one(cols), Rotate: true, Passes: 1}
	// One untimed pass: the executor has compiled the loop once it has run
	// it.
	if err := m.ParallelFor(pass); err != nil {
		b.Fatal(err)
	}

	passes, reported := int64(1), m.Report(def.LoopName).Workers[0].ComputeNs
	gateExecutorVsDirect(b, "an MF iteration", func() float64 {
		start := time.Now()
		if done, err := direct.RunBlock(keys, vals, nil); err != nil || done != iters {
			b.Fatalf("direct RunBlock stopped after %d: %v", done, err)
		}
		return float64(time.Since(start)) / iters
	}, func() float64 {
		if err := m.ParallelFor(pass); err != nil {
			b.Fatal(err)
		}
		passes++
		ws := m.Report(def.LoopName).Workers[0]
		if ws.Iters != passes*iters {
			b.Fatalf("executor reports %d iterations after %d passes of %d", ws.Iters, passes, iters)
		}
		ns := float64(ws.ComputeNs-reported) / iters
		reported = ws.ComputeNs
		return ns
	})
}

// gateExecutorVsDirect is the measurement both executor gates share: 20
// rounds alternate direct and executor (each returns ns per iteration),
// each side keeps its lower decile, and a ratio above 2.5x fails the
// benchmark.
func gateExecutorVsDirect(b *testing.B, what string, direct, executor func() float64) {
	const rounds = 20
	var ratio float64
	for n := 0; n < b.N; n++ {
		var directNs, execNs []float64
		for r := 0; r < rounds; r++ {
			directNs, execNs = append(directNs, direct()), append(execNs, executor())
		}
		sort.Float64s(directNs)
		sort.Float64s(execNs)
		d, x := directNs[rounds/10], execNs[rounds/10]
		ratio = x / d
		b.ReportMetric(d, "direct-ns/iter")
		b.ReportMetric(x, "executor-ns/iter")
	}
	b.ReportMetric(ratio, "executor/direct")
	if ratio > 2.5 {
		b.Fatalf("%s costs %.2fx more inside an executor than bound directly to the arrays (gate 2.5x)", what, ratio)
	}
}

// BenchmarkVMVsGoKernel is the live gate on the VM itself: a loop body
// run by vm.Kernel.RunBlock over dense arrays, against a hand-written Go
// loop doing the same arithmetic in the VM's order, statement by
// statement, over a second copy of the same storage — same run, 20
// alternating rounds, lower decile each. Both copies must end bitwise
// equal. Two bodies, each with its bar:
//   - mf fails above 3.0x: its updates have stopped fusing into two
//     AxpyRows or a range access has left the VM's inlined flat path (it
//     read 2.8–3.3x with five more instructions per update, 3.75–4.99x
//     while its column accesses walked the dimensions through a helper
//     call; EXPERIMENTS.md "Fused row updates");
//   - lda fails above 4.5x: its topic loop has stopped running lane-wise
//     (it reads 3.5–4.1x; 5.2–6.5x when each trip dispatched its ops,
//     EXPERIMENTS.md "Lane-wise inner loops").
//
// `make vm-gate` runs both legs; `make check` runs the mf leg
// (`make vm-gate-mf`), which holds on a contended host, where the lda
// leg does not always.
func BenchmarkVMVsGoKernel(b *testing.B) {
	b.Run("mf", benchmarkVMVsGoMF)
	b.Run("lda", benchmarkVMVsGoLDA)
}

// gateVMVsGo alternates the VM and the Go loop (each returns ns per
// iteration) and fails above bar, or when same reports that the two
// copies of the storage differ.
func gateVMVsGo(b *testing.B, what string, bar float64, runVM, runGo func() float64, same func() bool) {
	const rounds = 20
	var ratio float64
	for n := 0; n < b.N; n++ {
		var vmNs, goNs []float64
		for r := 0; r < rounds; r++ {
			vmNs, goNs = append(vmNs, runVM()), append(goNs, runGo())
		}
		sort.Float64s(vmNs)
		sort.Float64s(goNs)
		v, g := vmNs[rounds/10], goNs[rounds/10]
		ratio = v / g
		b.ReportMetric(v, "vm-ns/iter")
		b.ReportMetric(g, "go-ns/iter")
	}
	b.ReportMetric(ratio, "vm/go")
	if !same() {
		b.Fatalf("the VM and the Go loop end with different %s state", what)
	}
	if ratio > bar {
		b.Fatalf("the %s body costs %.2fx more on the VM than as a Go loop (gate %.1fx)", what, ratio, bar)
	}
}

func bitwiseEqual(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

func benchmarkVMVsGoMF(b *testing.B) {
	const rows, cols, rank, iters, step = 600, 500, 8, 20000, 0.001
	rng := rand.New(rand.NewSource(3))
	keys, vals := make([][]int64, iters), make([]float64, iters)
	for i := range keys {
		keys[i], vals[i] = []int64{rng.Int63n(rows), rng.Int63n(cols)}, 1+rng.Float64()
	}
	loop, err := lang.Parse(gateMFSrc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(loop, &lang.CompileEnv{
		Arrays:  map[string][]int64{"ratings": {rows, cols}, "W": {rank, rows}, "H": {rank, cols}},
		Globals: []string{"step_size"}})
	if err != nil {
		b.Fatal(err)
	}
	k := prog.NewKernel()
	arrays := map[string]*dsm.DistArray{}
	for name, n := range map[string]int64{"W": rows, "H": cols} {
		arrays[name] = dsm.NewDense(name, rank, n)
		arrays[name].Map(func(float64) float64 { return 0.25 })
		if err := k.BindArray(name, arrays[name]); err != nil {
			b.Fatal(err)
		}
	}
	k.SetGlobal("step_size", step)
	vmW, _ := arrays["W"].DenseData()
	vmH, _ := arrays["H"].DenseData()
	goW, goH := slices.Clone(vmW), slices.Clone(vmH)

	runVM := func() float64 {
		start := time.Now()
		if done, err := k.RunBlock(keys, vals, nil); err != nil || done != iters {
			b.Fatalf("RunBlock stopped after %d: %v", done, err)
		}
		return float64(time.Since(start)) / iters
	}
	// Each vector local is a buffer, as in the VM, and the float64
	// conversions keep the step's multiply out of a fused multiply-add,
	// as AxpyRow's do.
	wRow, hRow, wGrad, hGrad := make([]float64, rank), make([]float64, rank), make([]float64, rank), make([]float64, rank)
	runGo := func() float64 {
		start := time.Now()
		for i, key := range keys {
			w, h := goW[key[0]*rank:][:rank], goH[key[1]*rank:][:rank]
			copy(wRow, w)
			copy(hRow, h)
			var pred float64
			for d := range wRow {
				pred += wRow[d] * hRow[d]
			}
			diff := vals[i] - pred
			for d := range hRow {
				wGrad[d] = -2 * diff * hRow[d]
			}
			for d := range wRow {
				hGrad[d] = -2 * diff * wRow[d]
			}
			for d := range w {
				w[d] = wRow[d] - float64(step*wGrad[d])
			}
			for d := range h {
				h[d] = hRow[d] - float64(step*hGrad[d])
			}
		}
		return float64(time.Since(start)) / iters
	}
	gateVMVsGo(b, "MF", 3.0, runVM, runGo, func() bool { return bitwiseEqual(vmW, goW) && bitwiseEqual(vmH, goH) })
}

// benchmarkVMVsGoLDA is the LDA leg: gateLDASrc over 20000 distinct
// tokens and 16 topics, totals written through a dsm.Buffer flushed
// after each round, rand() drawn from identically seeded sources.
func benchmarkVMVsGoLDA(b *testing.B) {
	const docs, vocab, topics, nnz = 600, 500, 16, 20000
	rng := rand.New(rand.NewSource(3))
	seen := map[[2]int64]bool{}
	var keys [][]int64
	for len(keys) < nnz {
		if d, w := rng.Int63n(docs), rng.Int63n(vocab); !seen[[2]int64{d, w}] {
			seen[[2]int64{d, w}] = true
			keys = append(keys, []int64{d, w})
		}
	}
	vals := make([]float64, nnz)
	fill := func() map[string]*dsm.DistArray {
		a := map[string]*dsm.DistArray{
			"z": dsm.NewDense("z", docs, vocab), "doc_topic": dsm.NewDense("doc_topic", topics, docs),
			"word_topic": dsm.NewDense("word_topic", topics, vocab), "totals": dsm.NewDense("totals", topics),
		}
		for n, key := range keys {
			topic := int64(n % topics)
			a["z"].SetAt(float64(topic+1), key[0], key[1])
			a["doc_topic"].AddAt(1, topic, key[0])
			a["word_topic"].AddAt(1, topic, key[1])
			a["totals"].AddAt(1, topic)
		}
		return a
	}
	loop, err := lang.Parse(gateLDASrc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(loop, &lang.CompileEnv{
		Arrays: map[string][]int64{"tokens": {docs, vocab}, "z": {docs, vocab}, "doc_topic": {topics, docs},
			"word_topic": {topics, vocab}, "totals": {topics}},
		Buffers: map[string]string{"tot_buf": "totals"}, Globals: []string{"K"}})
	if err != nil {
		b.Fatal(err)
	}
	k := prog.NewKernel()
	vmArr := fill()
	for name, a := range vmArr {
		if err := k.BindArray(name, a); err != nil {
			b.Fatal(err)
		}
	}
	vmBuf := dsm.NewBuffer(vmArr["totals"], nil)
	if err := k.BindBuffer("tot_buf", vmBuf); err != nil {
		b.Fatal(err)
	}
	k.SetGlobal("K", topics)
	k.SetRng(rand.New(rand.NewSource(11)))

	runVM := func() float64 {
		start := time.Now()
		if done, err := k.RunBlock(keys, vals, nil); err != nil || done != nnz {
			b.Fatalf("RunBlock stopped after %d: %v", done, err)
		}
		ns := float64(time.Since(start)) / nnz
		vmBuf.Flush(vmArr["totals"])
		return ns
	}
	goArr := fill()
	z, _ := goArr["z"].DenseData()
	dt, _ := goArr["doc_topic"].DenseData()
	wt, _ := goArr["word_topic"].DenseData()
	totals, _ := goArr["totals"].DenseData()
	goBuf := dsm.NewBuffer(goArr["totals"], nil)
	goRng := rand.New(rand.NewSource(11))
	// max with the VM's NaN and signed-zero order.
	vmMax := func(a, b float64) float64 {
		if a < b {
			return b
		}
		return a
	}
	p := make([]float64, topics)
	runGo := func() float64 {
		start := time.Now()
		for _, key := range keys {
			d, w := key[0], key[1]
			zi := int64(z[d+w*docs]) - 1
			dt[zi+d*topics] -= 1
			wt[zi+w*topics] -= 1
			goBuf.Put(-1, zi)
			for t := range p {
				p[t] = 0
			}
			total := 0.0
			for t := int64(0); t < topics; t++ {
				nd := vmMax(dt[t+d*topics], 0)
				nw := vmMax(wt[t+w*topics], 0)
				nt := vmMax(totals[t], 1)
				p[t] = (nd + 0.5) * (nw + 0.1) / (nt + 50)
				total = total + p[t]
			}
			u := goRng.Float64() * total
			chosen, acc := 0.0, 0.0
			for t := 1; t <= topics; t++ {
				acc = acc + p[t-1]
				if chosen == 0 && u <= acc {
					chosen = float64(t)
				}
			}
			if chosen == 0 {
				chosen = topics
			}
			c := int64(chosen) - 1
			dt[c+d*topics] += 1
			wt[c+w*topics] += 1
			goBuf.Put(1, c)
			z[d+w*docs] = chosen
		}
		ns := float64(time.Since(start)) / nnz
		goBuf.Flush(goArr["totals"])
		return ns
	}
	gateVMVsGo(b, "LDA", 4.5, runVM, runGo, func() bool {
		for name, a := range vmArr {
			x, _ := a.DenseData()
			if y, _ := goArr[name].DenseData(); !bitwiseEqual(x, y) {
				return false
			}
		}
		return true
	})
}

// servedGateSLRSrc is SLR with enough distinct weights for the block's
// slot table to be a table.
const servedGateSLRSrc = `
for (key, v) in samples
    idx = floor(v * 4000) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`

// servedGateMFWSrc is MF that trains W alone: H is only read, so the
// loop is 1D over the rows — W local, H served and read a column at a
// time (lang.RunAccess).
const servedGateMFWSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    diff = rv - dot(W_row, H_row)
    W[:, key[1]] = W_row + step_size * 2 * diff * H_row
end
`

// servedGateLegs are the loops whose model array is a parameter-server
// array inside the executor: W-only MF, whose H is read a column per
// iteration, and SLR, whose weights are read at a computed index and
// written through a buffer. fill creates the loop's arrays through mk —
// once for the session, once for the direct kernel — and returns the
// iteration space in lexicographic key order.
var servedGateLegs = []struct {
	name, src, served string
	buffers           map[string]string
	fill              func(mk func(name string, dense bool, dims ...int64) *dsm.DistArray) (keys [][]int64, vals []float64)
}{
	{name: "mf-w-only", src: servedGateMFWSrc, served: "H",
		fill: func(mk func(string, bool, ...int64) *dsm.DistArray) ([][]int64, []float64) {
			const rows, cols, rank, iters = 600, 500, 16, 20000
			rng := rand.New(rand.NewSource(3))
			ratings := mk("ratings", false, rows, cols)
			for ratings.Len() < iters {
				ratings.SetAt(1+rng.Float64(), rng.Int63n(rows), rng.Int63n(cols))
			}
			mk("W", true, rank, rows).Map(func(float64) float64 { return 0.25 })
			mk("H", true, rank, cols).Map(func(float64) float64 { return 0.25 })
			keys, vals := ratings.Entries()
			order := make([]int, len(keys))
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int { return slices.Compare(keys[a], keys[b]) })
			sk, sv := make([][]int64, len(keys)), make([]float64, len(keys))
			for i, j := range order {
				sk[i], sv[i] = keys[j], vals[j]
			}
			return sk, sv
		}},
	{name: "slr-buffered", src: servedGateSLRSrc, served: "weights", buffers: map[string]string{"w_buf": "weights"},
		fill: func(mk func(string, bool, ...int64) *dsm.DistArray) ([][]int64, []float64) {
			const iters = 20000
			rng := rand.New(rand.NewSource(3))
			samples := mk("samples", true, iters)
			samples.Map(func(float64) float64 { return rng.Float64() })
			mk("weights", true, 4096)
			return samples.Entries()
		}},
}

// BenchmarkServedVsDirectKernel is BenchmarkExecutorVsDirectKernel for
// parameter-server arrays: each servedGateLegs loop goes through a
// one-worker Session, which plans it, serves the model array from the
// executor's shard and prefetches it per block, and its compute time per
// iteration as the executor reports it is held against the same bytecode
// bound directly to the arrays (a dsm.Buffer behind the DistArray
// Buffer) over the same keys — same run, alternating rounds, lower
// decile each. Above 2.5x on either loop the benchmark fails: a served
// access has grown a per-element search, map or shared counter again
// (MF with H served read 4.4x, and SLR 1.55x against 0.9x, when reads
// binary-searched the block's offsets behind three maps). `make check`
// runs it through exec-gate.
func BenchmarkServedVsDirectKernel(b *testing.B) {
	for _, leg := range servedGateLegs {
		b.Run(leg.name, func(b *testing.B) {
			loop, err := lang.Parse(leg.src)
			if err != nil {
				b.Fatal(err)
			}
			env := &lang.CompileEnv{Arrays: map[string][]int64{}, Buffers: leg.buffers, Globals: []string{"step_size"}}
			local := map[string]*dsm.DistArray{}
			keys, vals := leg.fill(func(name string, dense bool, dims ...int64) *dsm.DistArray {
				local[name], env.Arrays[name] = dsm.NewSparse(name, dims...), dims
				if dense {
					local[name] = dsm.NewDense(name, dims...)
				}
				return local[name]
			})
			prog, err := vm.Compile(loop, env)
			if err != nil {
				b.Fatal(err)
			}
			direct := prog.NewKernel()
			for name, a := range local {
				if name != loop.IterVar {
					if err := direct.BindArray(name, a); err != nil {
						b.Fatal(err)
					}
				}
			}
			buffers := map[string]*dsm.Buffer{}
			for name, target := range leg.buffers {
				buffers[target] = dsm.NewBuffer(local[target], nil)
				if err := direct.BindBuffer(name, buffers[target]); err != nil {
					b.Fatal(err)
				}
			}
			direct.SetGlobal("step_size", 0.001)

			sess, err := driver.NewLocalSession(1)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			leg.fill(sess.CreateArray)
			for name, target := range leg.buffers {
				if err := sess.CreateBuffer(name, target); err != nil {
					b.Fatal(err)
				}
			}
			sess.SetGlobal("step_size", 0.001)
			_, _, pl, err := sess.PlanOf(leg.src)
			if err != nil || !slices.Contains(pl.Arrays, sched.ArrayPlan{Array: leg.served, Place: sched.Served}) {
				b.Fatalf("%s is not served: %v, %v", leg.served, pl, err)
			}

			var iters, computeNs int64 // the session's totals so far
			gateExecutorVsDirect(b, "an iteration over a served array", func() float64 {
				start := time.Now()
				if done, err := direct.RunBlock(keys, vals, nil); err != nil || done != len(keys) {
					b.Fatalf("direct RunBlock stopped after %d: %v", done, err)
				}
				ns := float64(time.Since(start)) / float64(len(keys))
				for target, buf := range buffers {
					buf.Flush(local[target])
				}
				return ns
			}, func() float64 {
				if _, err := sess.ParallelFor(leg.src); err != nil {
					b.Fatal(err)
				}
				ws := sess.CombinedReport().Workers[0]
				if ws.Iters-iters != int64(len(keys)) || sess.Misses() != 0 {
					b.Fatalf("the executor reports %d iterations of %d and %d prefetch misses", ws.Iters-iters, len(keys), sess.Misses())
				}
				ns := float64(ws.ComputeNs-computeNs) / float64(len(keys))
				iters, computeNs = ws.Iters, ws.ComputeNs
				return ns
			})
		})
	}
}

// gateLDASrc is the collapsed-Gibbs LDA body of examples/lda_dsl: the
// sparse z is space-local and written on every iteration, and a driver
// that only evaluates the likelihood never reads it.
const gateLDASrc = `
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
        p[k] = (nd + 0.5) * (nw + 0.1) / (nt + 50)
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

// BenchmarkResidentCallVsMultiPass is the live gate on residency: after
// a first call has shipped the iteration space and the model arrays,
// six single-pass Session.ParallelFor calls and — between the third and
// the fourth — one Passes(5) call are timed in this run, on two
// workers. A single-pass call still defines the loop, which a later
// pass of a multi-pass call does not, but it neither ships nor gathers
// anything: the benchmark fails when the fastest single-pass call (the
// lower decile of six) costs more than 1.15x a pass of the multi-pass
// call. It read 3.1x when every call re-shipped the ratings and the
// bar stood at 1.5x while every call still distributed and gathered W
// and H. The LDA leg holds the same bar over a sparse space-local array
// the driver never reads, with a rotated, a served and a buffered array
// beside it. `make check` runs it through resident-gate; `go test
// ./...` does not.
func BenchmarkResidentCallVsMultiPass(b *testing.B) {
	const multi, bar = 5, 1.15
	rng := rand.New(rand.NewSource(3))
	for _, leg := range []struct {
		name string
		src  string
		fill func(sess *driver.Session)
	}{
		{"mf", gateMFSrc, func(sess *driver.Session) {
			const rows, cols, rank, nnz = 600, 500, 8, 60000
			ratings := sess.CreateArray("ratings", false, rows, cols)
			for ratings.Len() < nnz {
				ratings.SetAt(1+rng.Float64(), rng.Int63n(rows), rng.Int63n(cols))
			}
			sess.CreateArray("W", true, rank, rows).FillRandn(rng, 0.1)
			sess.CreateArray("H", true, rank, cols).FillRandn(rng, 0.1)
			sess.SetGlobal("step_size", 0.001)
		}},
		{"lda", gateLDASrc, func(sess *driver.Session) {
			const docs, vocab, topics, nnz = 600, 500, 8, 30000
			tokens, z := sess.CreateArray("tokens", false, docs, vocab), sess.CreateArray("z", false, docs, vocab)
			dt, wt := sess.CreateArray("doc_topic", true, topics, docs), sess.CreateArray("word_topic", true, topics, vocab)
			totals := sess.CreateArray("totals", true, topics)
			for n := int64(0); tokens.Len() < nnz; n++ {
				d, w, topic := rng.Int63n(docs), rng.Int63n(vocab), n%topics
				if tokens.At(d, w) != 0 {
					continue
				}
				tokens.SetAt(1, d, w)
				z.SetAt(float64(topic+1), d, w)
				dt.AddAt(1, topic, d)
				wt.AddAt(1, topic, w)
				totals.AddAt(1, topic)
			}
			if err := sess.CreateBuffer("tot_buf", "totals"); err != nil {
				b.Fatal(err)
			}
			sess.SetGlobal("K", topics)
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			sess, err := driver.NewLocalSession(2)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			leg.fill(sess)
			call := func(passes int) float64 {
				start := time.Now()
				if _, err := sess.ParallelFor(leg.src, driver.Passes(passes)); err != nil {
					b.Fatal(err)
				}
				return time.Since(start).Seconds() / float64(passes)
			}
			call(1) // plans, and ships everything

			var ratio float64
			for n := 0; n < b.N; n++ {
				var single []float64
				var perPass float64
				for i := 0; i < 6; i++ {
					if i == 3 {
						perPass = call(multi)
					}
					single = append(single, call(1))
				}
				sort.Float64s(single)
				ratio = single[0] / perPass
				b.ReportMetric(single[0]*1e3, "single-ms/pass")
				b.ReportMetric(perPass*1e3, "multi-ms/pass")
			}
			b.ReportMetric(ratio, "single/multi")
			if ratio > bar {
				b.Fatalf("a single-pass call costs %.2fx a pass of a multi-pass call (gate %.2fx): something is shipped or gathered on every call", ratio, bar)
			}
		})
	}
}
