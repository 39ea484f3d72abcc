package bench

import (
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
		GlobalNames: []string{"step_size"}, GlobalVals: []float64{0.001}, Backend: "vm"}
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

	var passes, reported int64
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
			if err := sess.SetBackend("vm"); err != nil {
				b.Fatal(err)
			}
			_, _, pl, err := sess.PlanOf(leg.src)
			if err != nil || !slices.Contains(pl.Arrays, sched.ArrayPlan{Array: leg.served, Place: sched.Served}) {
				b.Fatalf("%s is not served: %v, %v", leg.served, pl, err)
			}

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
				ws := sess.LastReport().Workers[0]
				if ws.Iters != int64(len(keys)) || sess.Misses() != 0 {
					b.Fatalf("the executor reports %d iterations of %d and %d prefetch misses", ws.Iters, len(keys), sess.Misses())
				}
				return float64(ws.ComputeNs) / float64(len(keys))
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
