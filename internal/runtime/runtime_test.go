package runtime

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/sched"
)

const testRank = 4

// runtimeLoops are the Go loops the runtime tests share: SGD MF, and a
// toy SLR whose one "feature" per sample is offset floor(val*10), with
// and without a prefetch function.
var runtimeLoops = testLoops{
	"rt_mf":  {Block: perSample(mfBody)},
	"rt_slr": {Block: perSample(slrBody)},
	"rt_slr_pf": {Block: perSample(slrBody), Prefetch: map[string]PrefetchFunc{"weights": func(_ []int64, val float64) []int64 {
		return []int64{int64(val * 10)}
	}}},
}

func mfBody(ctx *Ctx, key []int64, val float64) {
	w := ctx.Vec("W", key[0])
	h := ctx.Vec("H", key[1])
	var pred float64
	for d := 0; d < testRank; d++ {
		pred += w[d] * h[d]
	}
	diff := pred - val
	lr := 0.05
	for d := 0; d < testRank; d++ {
		gw := 2 * diff * h[d]
		gh := 2 * diff * w[d]
		w[d] -= lr * gw
		h[d] -= lr * gh
	}
	ctx.AccumAdd("err", diff*diff)
}

func slrBody(ctx *Ctx, _ []int64, val float64) {
	off := int64(val * 10)
	w := ctx.ServedRead("weights", off)
	g := w - val // toy gradient
	ctx.ServedUpdate("weights", off, -0.1*g)
}

// mfFixture builds the dataset and initial parameter arrays.
func mfFixture(seed int64) (*data.Ratings, *dsm.DistArray, *dsm.DistArray, []IterSample) {
	r := data.NewRatings(data.RatingsConfig{Rows: 24, Cols: 20, NNZ: 300, Rank: testRank, Noise: 0.05, Seed: seed})
	w := dsm.NewDense("W", testRank, r.Rows)
	h := dsm.NewDense("H", testRank, r.Cols)
	// Deterministic non-random init so distributed and local runs match.
	for k := int64(0); k < testRank; k++ {
		for i := int64(0); i < r.Rows; i++ {
			w.SetAt(0.1+0.01*float64(k+i%7), k, i)
		}
		for j := int64(0); j < r.Cols; j++ {
			h.SetAt(0.1+0.01*float64(k+j%5), k, j)
		}
	}
	samples := make([]IterSample, len(r.I))
	for i := range r.I {
		samples[i] = IterSample{Key: []int64{r.I[i], r.J[i]}, Val: r.V[i]}
	}
	return r, w, h, samples
}

// localMFReference runs the identical rotation schedule sequentially in
// process, producing the exact parameter values the distributed run
// must reproduce (serializability).
func localMFReference(w, h *dsm.DistArray, samples []IterSample, n, passes int,
	spacePart, timePart *sched.Partitioner) {
	blocks := make([][]IterSample, n)
	for _, s := range samples {
		blocks[spacePart.PartOf(s.Key[0])] = append(blocks[spacePart.PartOf(s.Key[0])], s)
	}
	for pass := 0; pass < passes; pass++ {
		for step := 0; step < n; step++ {
			for j := 0; j < n; j++ {
				tp := (j + step) % n
				lo, hi := timePart.Bounds(tp)
				for _, s := range blocks[j] {
					if s.Key[1] < lo || s.Key[1] >= hi {
						continue
					}
					wv := w.Vec(s.Key[0])
					hv := h.Vec(s.Key[1])
					var pred float64
					for d := 0; d < testRank; d++ {
						pred += wv[d] * hv[d]
					}
					diff := pred - s.Val
					lr := 0.05
					for d := 0; d < testRank; d++ {
						gw := 2 * diff * hv[d]
						gh := 2 * diff * wv[d]
						wv[d] -= lr * gw
						hv[d] -= lr * gh
					}
				}
			}
		}
	}
}

func runDistributedMF(t *testing.T, tr Transport, masterAddr string, peerAddr func(int) string,
	n, passes int) (*dsm.DistArray, *dsm.DistArray, float64, *Master) {
	t.Helper()
	_, w, h, samples := mfFixture(7)
	m, _, stop := startFleetOver(t, tr, masterAddr, peerAddr, n, runtimeLoops.compile, nil)

	spacePart := sched.NewRangePartitioner(w.Dims()[1], n)
	timePart := sched.NewRangePartitioner(h.Dims()[1], n)
	if err := m.DistributeLocal(w, 1, boundariesOf(spacePart, n)); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeRotatedAt(h, 1, boundariesOf(timePart, n), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, spacePart); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "rt_mf"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "rt_mf", TimeDim: 1, TimePart: timePart, Rotate: true, Passes: passes}); err != nil {
		t.Fatal(err)
	}
	gotW, err := m.Gather("W")
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := m.Gather("H")
	if err != nil {
		t.Fatal(err)
	}
	errSum, err := m.AccumSum("err")
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(stop()...); err != nil {
		t.Fatalf("executor exit: %v", err)
	}
	return gotW, gotH, errSum, m
}

func boundariesOf(p *sched.Partitioner, n int) []int64 {
	out := make([]int64, 0, n-1)
	for k := 0; k < n-1; k++ {
		_, hi := p.Bounds(k)
		out = append(out, hi)
	}
	return out
}

func TestDistributedMFMatchesLocalScheduleInProc(t *testing.T) {
	n, passes := 3, 2
	tr := NewInProc()
	gotW, gotH, errSum, _ := runDistributedMF(t, tr, "master", func(i int) string {
		return fmt.Sprintf("peer-%d", i)
	}, n, passes)

	_, w, h, samples := mfFixture(7)
	spacePart := sched.NewRangePartitioner(w.Dims()[1], n)
	timePart := sched.NewRangePartitioner(h.Dims()[1], n)
	localMFReference(w, h, samples, n, passes, spacePart, timePart)

	maxDiff := 0.0
	w.ForEach(func(idx []int64, v float64) {
		d := math.Abs(v - gotW.At(idx...))
		if d > maxDiff {
			maxDiff = d
		}
	})
	h.ForEach(func(idx []int64, v float64) {
		d := math.Abs(v - gotH.At(idx...))
		if d > maxDiff {
			maxDiff = d
		}
	})
	if maxDiff > 1e-12 {
		t.Fatalf("distributed result differs from serializable reference by %g", maxDiff)
	}
	if errSum <= 0 {
		t.Fatalf("accumulator sum = %v, want > 0", errSum)
	}
}

func TestDistributedMFOverTCP(t *testing.T) {
	n, passes := 2, 1
	// Executors need concrete peer ports: grab free ones.
	peerAddrs := make([]string, n)
	for i := range peerAddrs {
		peerAddrs[i] = freeTCPAddr(t)
	}
	gotW, _, _, _ := runDistributedMF(t, TCP{}, "127.0.0.1:0", func(i int) string {
		return peerAddrs[i]
	}, n, passes)

	_, w, h, samples := mfFixture(7)
	spacePart := sched.NewRangePartitioner(w.Dims()[1], n)
	timePart := sched.NewRangePartitioner(h.Dims()[1], n)
	localMFReference(w, h, samples, n, passes, spacePart, timePart)
	var maxDiff float64
	w.ForEach(func(idx []int64, v float64) {
		if d := math.Abs(v - gotW.At(idx...)); d > maxDiff {
			maxDiff = d
		}
	})
	if maxDiff > 1e-12 {
		t.Fatalf("TCP distributed result differs by %g", maxDiff)
	}
}

func freeTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestSingleExecutorNoRotation(t *testing.T) {
	tr := NewInProc()
	gotW, _, _, _ := runDistributedMF(t, tr, "m1", func(i int) string {
		return fmt.Sprintf("p1-%d", i)
	}, 1, 1)
	_, w, h, samples := mfFixture(7)
	sp := sched.NewRangePartitioner(w.Dims()[1], 1)
	tp := sched.NewRangePartitioner(h.Dims()[1], 1)
	localMFReference(w, h, samples, 1, 1, sp, tp)
	var maxDiff float64
	w.ForEach(func(idx []int64, v float64) {
		if d := math.Abs(v - gotW.At(idx...)); d > maxDiff {
			maxDiff = d
		}
	})
	if maxDiff > 1e-12 {
		t.Fatalf("single-executor run differs by %g", maxDiff)
	}
}

func servedFixture() (*dsm.DistArray, []IterSample) {
	weights := dsm.NewDense("weights", 16)
	for i := int64(0); i < 16; i++ {
		weights.SetAt(float64(i)*0.1, i)
	}
	var samples []IterSample
	for i := 0; i < 40; i++ {
		samples = append(samples, IterSample{Key: []int64{int64(i)}, Val: float64(i%10)/10 + 0.05})
	}
	return weights, samples
}

func runSLR(t *testing.T, kernel string, n int) (*dsm.DistArray, int64) {
	t.Helper()
	weights, samples := servedFixture()
	m, _, stop := startFleet(t, "slr-"+kernel, n, runtimeLoops.compile)
	defer stop()
	if err := m.DistributeServed(weights); err != nil {
		t.Fatal(err)
	}
	spacePart := sched.NewRangePartitioner(int64(len(samples)), n)
	if err := m.DistributeIterSpace(samples, 0, spacePart); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: kernel}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: kernel, TimeDim: -1, Passes: 2}); err != nil {
		t.Fatal(err)
	}
	misses := m.Misses()
	out, err := m.Gather("weights")
	if err != nil {
		t.Fatal(err)
	}
	return out, misses
}

func TestServedArrayPrefetchVsOnDemand(t *testing.T) {
	// Without a prefetch function every read is a slow-path miss; with
	// the synthesized function there are zero misses.
	_, missesOnDemand := runSLR(t, "rt_slr", 2)
	_, missesPrefetch := runSLR(t, "rt_slr_pf", 2)
	if missesOnDemand == 0 {
		t.Fatal("on-demand run should report misses")
	}
	if missesPrefetch != 0 {
		t.Fatalf("prefetch run reported %d misses, want 0", missesPrefetch)
	}

	// With a single executor there is no cross-executor timing: lazy
	// fetching and bulk prefetching must produce identical values.
	// (With multiple executors, lazy reads may legitimately observe
	// another executor's block-end updates mid-pass — both are valid
	// data-parallel schedules.)
	wOnDemand1, _ := runSLR(t, "rt_slr", 1)
	wPrefetch1, _ := runSLR(t, "rt_slr_pf", 1)
	var maxDiff float64
	wOnDemand1.ForEach(func(idx []int64, v float64) {
		if d := math.Abs(v - wPrefetch1.At(idx...)); d > maxDiff {
			maxDiff = d
		}
	})
	if maxDiff > 1e-12 {
		t.Fatalf("prefetch changed single-executor results by %g", maxDiff)
	}
}

// TestLostShardOwnerDuringMissReadIsWorkerLost: a shard link dying
// under a prefetch-miss read must come back from ParallelFor as
// ErrWorkerLost — so checkpoint recovery starts — with the executor
// goroutine (and so the process) still alive.
func TestLostShardOwnerDuringMissReadIsWorkerLost(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		// No prefetch function, and offset 15 lives on executor 1: every
		// iteration on executor 0 takes the fetchOne slow path.
		loops := testLoops{"lost": {Block: perSample(func(ctx *Ctx, _ []int64, _ float64) { ctx.ServedRead("weights", 15) })}}
		const n = 2
		m, execs, stop := startFleet(t, "lost", n, loops.compile)
		weights, samples := servedFixture()
		if err := m.DistributeServed(weights); err != nil {
			t.Fatal(err)
		}
		if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), n)); err != nil {
			t.Fatal(err)
		}
		if err := m.DefineLoop(&Msg{LoopName: "lost"}); err != nil {
			t.Fatal(err)
		}
		// Pass 0 dials executor 0's link to shard owner 1; sever it
		// between the passes, while both executors sit at the barrier.
		m.SetClockHook(func(clock int64) {
			if clock == 1 {
				c, err := execs[0].shards.client(1)
				if err != nil {
					t.Error(err)
					return
				}
				c.close()
			}
		})
		if err := m.ParallelFor(LoopDef{Kernel: "lost", TimeDim: -1, Passes: 2}); !errors.Is(err, ErrWorkerLost) {
			t.Fatalf("ParallelFor = %v, want ErrWorkerLost", err)
		}
		if err := stop()[0]; !errors.Is(err, ErrWorkerLost) {
			t.Errorf("executor 0 exited with %v, want ErrWorkerLost", err)
		}
	})
}

func TestUnknownKernelPropagatesError(t *testing.T) {
	const n = 2
	m, _, stop := startFleet(t, "err", n, runtimeLoops.compile)
	defer stop()
	_, samples := servedFixture()
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), n)); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "no_such_kernel", TimeDim: -1, Passes: 1}); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}

func TestInProcTransport(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("x"); err == nil {
		t.Fatal("duplicate listen should fail")
	}
	go func() {
		conn, _ := tr.Dial("x")
		conn.Write([]byte("hi"))
		conn.Close()
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := conn.Read(buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q err %v", buf, err)
	}
	ln.Close()
	if _, err := tr.Dial("x"); err == nil {
		t.Fatal("dial after close should fail")
	}
}

// TestShardedServing exercises peer-to-peer parameter serving: a served
// array is sharded across executors; a kernel that touches every weight
// must see correct values regardless of owner, and updates must land on
// the right shards and gather back exactly.
func TestShardedServing(t *testing.T) {
	loops := testLoops{"rt_shard_sum": {
		Block: perSample(func(ctx *Ctx, key []int64, _ float64) {
			// Read every weight (spanning all shards), add 1 to the weight
			// matching our key.
			var sum float64
			for off := int64(0); off < 16; off++ {
				sum += ctx.ServedRead("weights", off)
			}
			ctx.AccumAdd("sum", sum)
			ctx.ServedUpdate("weights", key[0]%16, 1)
		}),
		Prefetch: map[string]PrefetchFunc{"weights": func([]int64, float64) []int64 {
			offs := make([]int64, 16)
			for i := range offs {
				offs[i] = int64(i)
			}
			return offs
		}},
	}}
	const n = 4
	m, _, stop := startFleet(t, "shard", n, loops.compile)
	defer stop()

	weights := dsm.NewDense("weights", 16)
	for i := int64(0); i < 16; i++ {
		weights.SetAt(float64(i), i)
	}
	if err := m.DistributeServed(weights); err != nil {
		t.Fatal(err)
	}
	var samples []IterSample
	for i := 0; i < 32; i++ {
		samples = append(samples, IterSample{Key: []int64{int64(i)}})
	}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(32, n)); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "rt_shard_sum"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "rt_shard_sum", TimeDim: -1, Passes: 1}); err != nil {
		t.Fatal(err)
	}
	// Initial weights sum to 120; executors run concurrently, so a
	// block may observe another's already-flushed +1 updates — reads
	// are bounded below by the initial sum and above by the final one.
	sum, err := m.AccumSum("sum")
	if err != nil {
		t.Fatal(err)
	}
	if sum < 120*32 || sum > (120+32)*32 {
		t.Fatalf("sum = %v outside [%v, %v]", sum, 120*32, (120+32)*32)
	}
	if misses := m.Misses(); misses != 0 {
		t.Fatalf("prefetch should cover all reads, got %d misses", misses)
	}
	// Each weight got exactly 2 increments (32 samples over 16 slots).
	got, err := m.Gather("weights")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		want := float64(i) + 2
		if got.At(i) != want {
			t.Fatalf("weights[%d] = %v, want %v", i, got.At(i), want)
		}
	}
}
