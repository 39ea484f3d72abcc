// Sparse logistic regression with bulk prefetching (Section 4.4 /
// Section 6.3): the weight subscript depends on each sample's value, so
// Orion synthesizes a prefetch function by slicing the loop body down to
// its subscript computation; executors then fetch each block's weights
// in one batch instead of one round trip per read.
//
// This example shows both halves:
//  1. the program slicer deriving the prefetch function from slr.orion;
//  2. the real distributed runtime (in-process transport) running that
//     loop from one DefineLoop message twice — once with the plan
//     artifact that carries the prefetch slice, once without it —
//     counting slow-path fetches.
//
// Run with: go run ./examples/slr_prefetch
package main

import (
	_ "embed"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"orion/internal/check"
	"orion/internal/dslkernel"
	"orion/internal/dsm"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

//go:embed slr.orion
var program string

const workers = 4

func main() {
	res, art, err := vet()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Loop body:")
	fmt.Println(res.Loop)
	fmt.Println("\nSynthesized prefetch function (subscript slice):")
	fmt.Println(art.Prefetch.Src)

	prefetched, onDemand, err := legs(res, art)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nwithout the prefetch slice  slow-path fetches: %d\n", onDemand.misses)
	fmt.Printf("with the prefetch slice     slow-path fetches: %d", prefetched.misses)
	if prefetched.misses == 0 {
		fmt.Print("  (all reads served by bulk prefetch)")
	}
	fmt.Println("\nweights bitwise equal across both runs:", sameBits(prefetched.weights, onDemand.weights))
	fmt.Println("\nThe paper measured 7682 s/pass without prefetching vs 9.2 s with")
	fmt.Println("it (6.3 s with cached indices); run `orion-bench -exp prefetch`")
	fmt.Println("for this repository's cost-model reproduction of those rows.")
}

// vet checks slr.orion and builds its plan artifact, which carries the
// synthesized prefetch slice.
func vet() (*check.Result, *plan.Artifact, error) {
	res := check.Source(program, check.Options{File: "slr.orion"})
	if err := res.Err(); err != nil {
		return nil, nil, err
	}
	art, err := res.BuildArtifact(workers)
	if err != nil {
		return nil, nil, err
	}
	if art.Prefetch == nil {
		return nil, nil, fmt.Errorf("slr.orion: no prefetch slice was synthesized")
	}
	return res, art, nil
}

// legs runs the loop twice from one DefineLoop message: once with the
// plan artifact, whose prefetch slice lets executors bulk-fetch each
// block's weights, and once without it. It returns the prefetched run
// first.
func legs(res *check.Result, art *plan.Artifact) (outcome, outcome, error) {
	def := defineLoop(res)
	withPlan := *def
	withPlan.PlanBlob = art.EncodeBinary()
	prefetched, err := run(&withPlan, "prefetched")
	if err != nil {
		return outcome{}, outcome{}, err
	}
	onDemand, err := run(def, "on-demand")
	return prefetched, onDemand, err
}

// defineLoop is the DefineLoop message a driver ships for the program,
// without a plan artifact.
func defineLoop(res *check.Result) *runtime.Msg {
	return &runtime.Msg{
		LoopName:    "slr",
		LoopSrc:     res.Loop.String(),
		ArrayDims:   res.Program.Env.Arrays,
		Buffers:     res.Program.Env.Buffers,
		GlobalNames: []string{"step_size"},
		GlobalVals:  []float64{0.05},
	}
}

// outcome is what one run leaves: its slow-path fetch count and the
// gathered weights.
type outcome struct {
	misses  int64
	weights *dsm.DistArray
}

// run executes two passes of the loop def defines on a fresh fleet, with
// the weights served and the same seeded samples every time.
func run(def *runtime.Msg, name string) (outcome, error) {
	dslkernel.Install()
	tr := runtime.NewInProc()
	m, err := runtime.Listen(tr, "master-"+name, workers)
	if err != nil {
		return outcome{}, err
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	var done []<-chan error
	defer func() {
		m.Shutdown()
		for _, d := range done {
			<-d
		}
	}()
	for i := 0; i < workers; i++ {
		e, err := runtime.NewExecutor(tr, m.Addr(), fmt.Sprintf("peer-%s-%d", name, i), i)
		if err != nil {
			return outcome{}, err
		}
		done = append(done, e.Start())
	}
	if err := <-ready; err != nil {
		return outcome{}, err
	}

	n := def.ArrayDims["samples"][0]
	rng := rand.New(rand.NewSource(9))
	samples := make([]runtime.IterSample, n)
	for i := range samples {
		samples[i] = runtime.IterSample{Key: []int64{int64(i)}, Val: rng.Float64()}
	}
	if err := m.DistributeServed(dsm.NewDense("weights", def.ArrayDims["weights"]...)); err != nil {
		return outcome{}, err
	}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(n, workers)); err != nil {
		return outcome{}, err
	}
	if err := m.DefineLoop(def); err != nil {
		return outcome{}, err
	}
	if err := m.ParallelFor(runtime.LoopDef{Kernel: def.LoopName, TimeDim: -1, Passes: 2}); err != nil {
		return outcome{}, err
	}
	// Merge the weight shards back, as a driver program would.
	weights, err := m.Gather("weights")
	return outcome{misses: m.Misses(), weights: weights}, err
}

func sameBits(a, b *dsm.DistArray) bool {
	x, _ := a.DenseData()
	y, _ := b.DenseData()
	return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}
