// Sparse logistic regression with bulk prefetching (Section 4.4 /
// Section 6.3): the weight subscripts depend on each sample's nonzero
// features, so Orion synthesizes a prefetch function by slicing the
// loop body down to its subscript computations; executors then fetch
// each block's weights in one batch instead of one round trip per read.
//
// This example shows both halves:
//  1. the program slicer deriving the prefetch function from DSL text;
//  2. the real distributed runtime (in-process transport) running SLR
//     with and without bulk prefetching, counting slow-path fetches.
//
// Run with: go run ./examples/slr_prefetch
package main

import (
	"fmt"
	"log"
	"math"

	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// A DSL rendition of an SLR-style loop where the parameter subscript is
// computed from the sample's value.
const slrProgram = `
for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`

func main() {
	// ---- 1. Synthesize the prefetch function by program slicing ----
	env := &lang.Env{
		Arrays:  map[string][]int64{"samples": {1000}, "weights": {128}},
		Buffers: map[string]string{"w_buf": "weights"},
	}
	loop, err := lang.Parse(slrProgram)
	if err != nil {
		log.Fatal(err)
	}
	sliced, skipped, err := lang.PrefetchSlice(loop, env, "weights")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Loop body:")
	fmt.Println(loop)
	fmt.Println("\nSynthesized prefetch function (subscript slice):")
	fmt.Println(sliced)
	if len(skipped) > 0 {
		fmt.Println("references left on-demand:", skipped)
	}

	// ---- 2. Run SLR on the distributed runtime ----
	ds := data.NewLogistic(data.LogisticConfig{Samples: 600, Dim: 128, NNZPer: 6, Seed: 9})

	runtime.RegisterKernel("slr", slrKernel(ds))
	runtime.RegisterKernel("slr_prefetched", slrKernel(ds))
	runtime.RegisterPrefetch("slr_prefetched", "weights", func(key []int64, _ float64) []int64 {
		return ds.Features[key[0]]
	})

	for _, kernel := range []string{"slr", "slr_prefetched"} {
		misses := run(kernel, ds)
		fmt.Printf("\nkernel %-16s slow-path fetches: %d", kernel, misses)
		if misses == 0 {
			fmt.Print("  (all reads served by bulk prefetch)")
		}
	}
	fmt.Println()
	fmt.Println("\nThe paper measured 7682 s/pass without prefetching vs 9.2 s with")
	fmt.Println("it (6.3 s with cached indices); run `orion-bench -exp prefetch`")
	fmt.Println("for this repository's cost-model reproduction of those rows.")
}

// slrKernel builds the per-sample SGD kernel against served weights.
func slrKernel(ds *data.Logistic) runtime.Kernel {
	return func(ctx *runtime.Ctx, key []int64, _ float64) {
		i := key[0]
		var z float64
		for _, f := range ds.Features[i] {
			z += ctx.ServedRead("weights", f)
		}
		p := 1 / (1 + math.Exp(-z))
		g := p - ds.Labels[i]
		for _, f := range ds.Features[i] {
			ctx.ServedUpdate("weights", f, -0.05*g)
		}
	}
}

func run(kernel string, ds *data.Logistic) int64 {
	tr := runtime.NewInProc()
	const n = 4
	m, err := runtime.Listen(tr, "master-"+kernel, n)
	if err != nil {
		log.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	var done []<-chan error
	for i := 0; i < n; i++ {
		e, err := runtime.NewExecutor(tr, "master-"+kernel, fmt.Sprintf("peer-%s-%d", kernel, i), i)
		if err != nil {
			log.Fatal(err)
		}
		done = append(done, e.Start())
	}
	if err := <-ready; err != nil {
		log.Fatal(err)
	}

	weights := dsm.NewDense("weights", ds.Dim)
	if err := m.DistributeServed(weights); err != nil {
		log.Fatal(err)
	}
	samples := make([]runtime.IterSample, len(ds.Features))
	for i := range samples {
		samples[i] = runtime.IterSample{Key: []int64{int64(i)}, Val: 0}
	}
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), n)); err != nil {
		log.Fatal(err)
	}
	if err := m.ParallelFor(runtime.LoopDef{Kernel: kernel, TimeDim: -1, Passes: 2}); err != nil {
		log.Fatal(err)
	}
	misses := m.Misses()
	// Merge the weight shards back, as a driver program would.
	if _, err := m.Gather("weights"); err != nil {
		log.Fatal(err)
	}
	m.Shutdown()
	for _, d := range done {
		<-d
	}
	return misses
}
