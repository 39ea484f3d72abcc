package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
)

// TestDefineLoopRetiresPreviousKernelSet: the driver mints a fresh
// kernel name per ParallelFor call, so an executor that kept every
// shipped kernel set would grow without bound over a session. After N
// define-then-run rounds exactly the last set is resident, the earlier
// names no longer resolve, and the N-1 retired sets are unreachable
// (their finalizers run), so nothing they captured stays pinned.
func TestDefineLoopRetiresPreviousKernelSet(t *testing.T) {
	const rounds = 5
	var ran, freed atomic.Int64
	m, execs, stop := startFleet(t, "retire", 1, func(def *Msg) (*KernelSet, error) {
		state := &struct{ name string }{def.LoopName} // what a real kernel set captures
		goruntime.SetFinalizer(state, func(any) { freed.Add(1) })
		return &KernelSet{Block: perSample(func(*Ctx, []int64, float64) {
			if state.name != "" {
				ran.Add(1)
			}
		})}, nil
	})
	samples := []IterSample{{Key: []int64{0}}, {Key: []int64{1}}}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(2, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("retire-loop-%d", i)
		if err := m.DefineLoop(&Msg{LoopName: name}); err != nil {
			t.Fatal(err)
		}
		if err := m.ParallelFor(LoopDef{Kernel: name, TimeDim: -1, Passes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != rounds*int64(len(samples)) {
		t.Fatalf("kernels ran %d iterations, want %d", got, rounds*len(samples))
	}
	// The executor is parked on its command channel: the block-done
	// message ordered its writes before this read.
	e := execs[0]
	if want := fmt.Sprintf("retire-loop-%d", rounds-1); e.loopName != want || e.loop == nil {
		t.Fatalf("resident kernel set is %q (nil=%v), want %q", e.loopName, e.loop == nil, want)
	}
	for i := 0; i < 200 && freed.Load() < rounds-1; i++ {
		goruntime.GC()
		goruntime.Gosched()
	}
	if got := freed.Load(); got != rounds-1 {
		t.Errorf("%d of %d retired kernel sets were collected", got, rounds-1)
	}
	err := m.ParallelFor(LoopDef{Kernel: "retire-loop-0", TimeDim: -1, Passes: 1})
	if err == nil || !strings.Contains(err.Error(), `"retire-loop-0"`) {
		t.Errorf("running a retired loop: err = %v, want one naming it", err)
	}
	stop()
}

// TestServedSlotTable walks one block through every way a served read
// resolves — prefetched locally and remotely, missed (fetched once,
// then cached), and under the worker's own buffered deltas and absolute
// writes — and checks the values a read returns, the hit/miss counts,
// and what the shards hold after the flush.
func TestServedSlotTable(t *testing.T) {
	type read struct {
		what string
		got  float64
		want float64
	}
	var reads []read
	at := func(off int64) float64 { return float64(off) * 0.1 } // servedFixture's weights
	prefetched := []int64{12, 3, 5, 3}                          // unsorted, duplicated: the executor sorts and compacts
	loops := testLoops{"slots": {
		Prefetch: map[string]PrefetchFunc{"weights": func([]int64, float64) []int64 { return prefetched }},
		Block: perSample(func(ctx *Ctx, key []int64, _ float64) {
			if ctx.ExecutorID() != 0 || key[0] != 0 {
				return
			}
			w := ctx.Served("weights")
			check := func(what string, off int64, want float64) {
				reads = append(reads, read{what, w.Read(off), want})
			}
			if ctx.BlockPass() == 1 {
				check("prefetched in pass 2: pass 1's delta folded", 3, at(3)+0.5)
				check("prefetched in pass 2: set then delta folded", 5, 7.25)
				check("miss in pass 2: delta-then-set folded as the set", 6, 1)
				return
			}
			check("prefetched, own shard", 3, at(3))
			check("prefetched, remote shard", 12, at(12))
			check("miss, own shard", 7, at(7))
			check("miss again: cached", 7, at(7))
			check("miss, remote shard", 14, at(14))
			w.Update(3, 0.5)
			check("own delta over a prefetched value", 3, at(3)+0.5)
			ctx.ServedUpdate("weights", 9, 1)
			check("own delta over a missed value", 9, at(9)+1)
			w.Set(5, 7)
			check("own absolute write hides the prefetched value", 5, 7)
			w.Update(5, 0.25)
			check("delta after own absolute write", 5, 7.25)
			w.Update(6, 2)
			w.Set(6, 1)
			check("absolute write supersedes the pending delta", 6, 1)
		}),
	}}
	hit0, miss0 := obs.GetCounter("prefetch.hit").Value(), obs.GetCounter("prefetch.miss").Value()
	m, _, stop := startFleet(t, "slots", 2, loops.compile)
	defer stop()
	weights, samples := servedFixture()
	if err := m.DistributeServed(weights); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "slots"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "slots", TimeDim: -1, Passes: 2}); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 13 {
		t.Fatalf("%d reads ran, want 13", len(reads))
	}
	for _, r := range reads {
		if r.got != r.want {
			t.Errorf("%s: read %v, want %v", r.what, r.got, r.want)
		}
	}
	// Pass 1 misses offsets 7, 14 and 9; pass 2 misses 6.
	if got := m.Misses(); got != 4 {
		t.Errorf("master counted %d misses, want 4", got)
	}
	hits, misses := obs.GetCounter("prefetch.hit").Value()-hit0, obs.GetCounter("prefetch.miss").Value()-miss0
	if hits != 6 || misses != 4 {
		t.Errorf("prefetch.hit +%d, prefetch.miss +%d; want +6, +4", hits, misses)
	}
	got, err := m.Gather("weights")
	if err != nil {
		t.Fatal(err)
	}
	for off, want := range map[int64]float64{3: at(3) + 0.5, 9: at(9) + 1, 5: 7.25, 6: 1, 7: at(7), 12: at(12)} {
		if v := got.At(off); v != want {
			t.Errorf("weights[%d] = %v after the flush, want %v", off, v, want)
		}
	}
}

// TestOrderedBlocksRunLexicographically: an ordered loop executes its
// blocks in lexicographic key order — each block's index is sorted when
// it is first built and kept — while a loop that is not ordered runs in
// the order the partition was shipped, also after an ordered loop has
// run over the same resident samples.
func TestOrderedBlocksRunLexicographically(t *testing.T) {
	var ran [][]int64
	loops := testLoops{"ordered": {Block: perSample(func(_ *Ctx, key []int64, _ float64) { ran = append(ran, key) })}}
	shipped := [][]int64{{2, 0}, {0, 3}, {1, 1}, {0, 1}, {2, 2}}
	var samples []IterSample
	for _, key := range shipped {
		samples = append(samples, IterSample{Key: key})
	}
	m, _, stop := startFleet(t, "ordered", 1, loops.compile)
	defer stop()
	one := func(n int64) *sched.Partitioner { return sched.NewRangePartitioner(n, 1) }
	if err := m.DistributeIterSpace(samples, 0, one(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "ordered"}); err != nil {
		t.Fatal(err)
	}
	run := func(what string, def LoopDef, want [][]int64) {
		t.Helper()
		ran = nil
		def.Kernel = "ordered"
		if err := m.ParallelFor(def); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(ran, want, slices.Equal[[]int64]) {
			t.Errorf("%s ran %v, want %v", what, ran, want)
		}
	}
	run("the unordered loop", LoopDef{TimeDim: -1, Passes: 1}, shipped)
	sorted := [][]int64{{0, 1}, {0, 3}, {1, 1}, {2, 0}, {2, 2}}
	run("the ordered loop", LoopDef{TimeDim: 1, TimePart: one(4), Ordered: true, Passes: 2}, append(slices.Clone(sorted), sorted...))
	run("the unordered loop after the ordered one", LoopDef{TimeDim: -1, Passes: 1}, shipped)
}

// TestPrefetchIndicesCachedPerBlock: a kernel set that declares a
// prefetch identity has its prefetch functions evaluated once per
// (block, array) for as long as the iteration partition and the
// identity stay — across the passes of a loop and across loops — while
// values are still fetched every block and every read still hits. The
// offset -> slot index is built with the offsets and kept with them:
// reuse rebuilds nothing. A new identity, a new iteration partition, or
// no identity at all evaluates again and builds a new index.
func TestPrefetchIndicesCachedPerBlock(t *testing.T) {
	var calls atomic.Int64
	var reads []float64 // executor 0's reads of weights[3], one per block
	id := "slice-1"
	m, execs, stop := startFleet(t, "pfcache", 2, func(*Msg) (*KernelSet, error) {
		return &KernelSet{
			PrefetchID: id,
			Prefetch: map[string]PrefetchFunc{"weights": func(key []int64, _ float64) []int64 {
				calls.Add(1)
				return []int64{key[0] % 16}
			}},
			Block: perSample(func(ctx *Ctx, key []int64, _ float64) {
				v := ctx.ServedRead("weights", key[0]%16)
				if key[0] == 3 {
					reads = append(reads, v)
					ctx.ServedUpdate("weights", 3, 1)
				}
			}),
		}, nil
	})
	defer stop()
	weights, samples := servedFixture()
	if err := m.DistributeServed(weights); err != nil {
		t.Fatal(err)
	}
	part := sched.NewRangePartitioner(int64(len(samples)), 2)
	ship := func() {
		t.Helper()
		if err := m.DistributeIterSpace(samples, 0, part); err != nil {
			t.Fatal(err)
		}
	}
	ship()
	seq := 0
	reuse := obs.GetCounter("exec.prefetch_index_reuse")
	// index is the table executor 0 keeps for its one block (nil: none),
	// read when a loop has returned: the executor is parked on its
	// command channel and its block-done message ordered its writes.
	var index0 *int32
	index := func() *int32 {
		for _, b := range execs[0].iter.blocks {
			if x := b.prefetch["weights"]; len(x.table) >= 2*len(x.offs) && len(x.offs) > 0 {
				return &x.table[0]
			}
		}
		return nil
	}
	run := func(what string, passes int, wantCalls, wantReuse int64) {
		t.Helper()
		seq++
		name := fmt.Sprintf("pfcache-%d", seq)
		calls.Store(0)
		reuse0 := reuse.Value()
		if err := m.DefineLoop(&Msg{LoopName: name}); err != nil {
			t.Fatal(err)
		}
		if err := m.ParallelFor(LoopDef{Kernel: name, TimeDim: -1, Passes: passes}); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != wantCalls {
			t.Errorf("%s: prefetch functions ran %d times, want %d", what, got, wantCalls)
		}
		if got := reuse.Value() - reuse0; got != wantReuse {
			t.Errorf("%s: exec.prefetch_index_reuse +%d, want +%d", what, got, wantReuse)
		}
		// No identity caches nothing: it builds per block and leaves what
		// the block kept alone.
		if kept := index() == index0; kept != (wantCalls == 0 || id == "") {
			t.Errorf("%s: the block's slot index was kept = %v with %d prefetch calls", what, kept, wantCalls)
		}
		index0 = index()
	}
	n := int64(len(samples))
	run("a 3-pass loop", 3, n, 2*2) // pass 1 evaluates; 2 executors reuse on passes 2 and 3
	run("an identical second loop", 1, 0, 2)
	id = "slice-2"
	run("a loop with another prefetch identity", 2, n, 2)
	ship()
	run("the same loop over a re-shipped partition", 1, n, 0)
	id = ""
	run("a loop with no prefetch identity", 2, 2*n, 0)

	if got := m.Misses(); got != 0 {
		t.Errorf("master counted %d prefetch misses, want 0", got)
	}
	// Cached offsets, fresh values: every block saw the previous block's
	// update of weights[3].
	for i, v := range reads {
		if want := 0.3 + float64(i); math.Abs(v-want) > 1e-12 {
			t.Errorf("block %d read weights[3] = %v, want %v", i, v, want)
		}
	}
	if len(reads) != 9 {
		t.Errorf("%d blocks read weights[3], want 9", len(reads))
	}
}

// TestFoldOrderIsArrivalIndependent: same-epoch update batches from
// different executors fold in (epoch, sender) order whichever arrived
// first, so a served array's bits do not depend on how the senders'
// flushes interleaved; one sender's absolute-then-additive order holds.
func TestFoldOrderIsArrivalIndependent(t *testing.T) {
	type batch struct {
		src      int
		epoch    int64
		val      float64
		absolute bool
	}
	// Three addends whose float64 sum depends on the order.
	batches := []batch{{0, 5, 1e16, false}, {1, 5, 1, false}, {2, 5, -1e16, false},
		{1, 4, 3, true}, {1, 4, 0.5, false}}
	fold := func(order []int) float64 {
		s := newShardSet(nil, 0)
		s.install("w", []int64{4}, nil, dsm.NewDense("w", 4).ExtractRange(0, 0, 4))
		for _, i := range order {
			b := batches[i]
			if err := s.serveUpdate("w", b.src, []int64{2}, []float64{b.val}, b.absolute, b.epoch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.serveRead("w", []int64{2}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return got[0]
	}
	want := 3.5 // (epoch 4: set 3, add 0.5), then epoch 5 by sender
	for _, v := range []float64{1e16, 1, -1e16} {
		want += v
	}
	for _, order := range [][]int{{3, 4, 0, 1, 2}, {2, 1, 0, 3, 4}, {1, 3, 2, 4, 0}, {0, 2, 3, 1, 4}} {
		if got := fold(order); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("arrival order %v folded to %v, want %v", order, got, want)
		}
	}
}

// TestIterSpaceEpochAdvances: the residency epoch moves on every ship
// and every abort, and on nothing else.
func TestIterSpaceEpochAdvances(t *testing.T) {
	m, _, stop := startFleet(t, "epoch", 1, testLoops{}.compile)
	_, samples := servedFixture()
	part := sched.NewRangePartitioner(int64(len(samples)), 1)
	e0 := m.ArrayEpoch("")
	if err := m.DistributeIterSpace(samples, 0, part); err != nil {
		t.Fatal(err)
	}
	e1 := m.ArrayEpoch("")
	if err := m.ParallelFor(LoopDef{Kernel: "none", TimeDim: -1}); err == nil {
		t.Fatal("an undefined loop ran")
	}
	stop()
	if e2 := m.ArrayEpoch(""); e1 == e0 || e2 != e1 {
		t.Errorf("epoch %d -> %d after a ship, %d after a loop; want a move, then none", e0, e1, e2)
	}
	m.Abort()
	if e3 := m.ArrayEpoch(""); e3 == e1 {
		t.Errorf("epoch still %d after Abort", e3)
	}
}

// TestWavefrontHandOff: an ordered loop over three executors runs each
// block on the partition of a wavefront array its time range names and
// hands it on to the next executor; after the pass every partition is
// home on executor 0 — of the array the loop writes and of one cut for
// another loop, which moves only where its cuts meet this loop's — and
// both gather back exact, from any number of partitions per executor.
func TestWavefrontHandOff(t *testing.T) {
	const n, cols = 3, 12
	loops := testLoops{"rt_wave": {Block: perSample(func(ctx *Ctx, key []int64, _ float64) {
		ctx.Vec("H", key[1])[0] += float64(1 + key[0])
	})}}
	m, execs, stop := startFleet(t, "wave", n, loops.compile)
	defer stop()
	var samples []IterSample
	for s := int64(0); s < n; s++ {
		for c := int64(0); c < cols; c++ {
			samples = append(samples, IterSample{Key: []int64{s, c}})
		}
	}
	h, g := dsm.NewDense("H", 1, cols), dsm.NewDense("G", 1, cols)
	g.Map(func(float64) float64 { return 0.5 })
	timePart := sched.NewRangePartitioner(cols, 2*n)
	for _, err := range []error{
		m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(n, n)),
		m.DistributeWavefrontAt(h, 1, timePart.Boundaries(), 0),
		m.DistributeWavefrontAt(g, 1, []int64{2, 6}, 0), // [0, 2) is also one of the loop's
		m.DefineLoop(&Msg{LoopName: "rt_wave"}),
		m.ParallelFor(LoopDef{Kernel: "rt_wave", TimeDim: 1, TimePart: timePart, Ordered: true, Passes: 2}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The executors are parked on their command channels: their last
	// block-done messages ordered their writes before these reads.
	for j, e := range execs {
		if got, want := len(e.parts["H"].parts), map[bool]int{true: 2 * n}[j == 0]; got != want {
			t.Errorf("executor %d holds %d partitions of H after the loop, want %d", j, got, want)
		}
	}
	for name, want := range map[string]float64{"H": 2 * (1 + 2 + 3), "G": 0.5} {
		got, err := m.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := int64(0); c < cols; c++ {
			if v := got.At(0, c); v != want {
				t.Errorf("%s[0, %d] = %v after two passes, want %v", name, c, v, want)
			}
		}
	}
	// Placed as a mid-pass resume would place it, H spreads over the fleet
	// and still gathers whole.
	for step := 0; step <= 2*n+n-1; step++ {
		if err := m.DistributeWavefrontAt(g, 1, timePart.Boundaries(), step); err != nil {
			t.Fatal(err)
		}
		got, err := m.Gather("G")
		if err != nil {
			t.Fatal(err)
		}
		if data, _ := got.DenseData(); slices.ContainsFunc(data, func(v float64) bool { return v != 0.5 }) {
			t.Errorf("G placed as at step %d gathers as %v", step, data)
		}
	}
}
