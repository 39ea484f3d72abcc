// Quickstart: the full Orion pipeline on the paper's running example
// (SGD matrix factorization, Fig. 5/6) written in the DSL.
//
//	source text → static analysis → dependence vectors → plan
//	            → execution on DistArrays → convergence
//
// Run with: go run ./examples/quickstart
package main

import (
	_ "embed"
	"fmt"
	"log"
	"math/rand"

	"orion/internal/data"
	"orion/internal/dep"
	"orion/internal/driver"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/sched"
)

//go:embed mf.orion
var mfProgram string

func main() {
	const (
		rows, cols = 80, 60
		rank       = 8
		passes     = 8
	)

	// 1. The driver program creates DistArrays: training data loaded
	// (here: generated), parameters randomly initialized.
	ds := data.NewRatings(data.RatingsConfig{
		Rows: rows, Cols: cols, NNZ: 2000, Rank: rank, Noise: 0.05, Seed: 42,
	})
	ratings := dsm.NewSparse("ratings", rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(1))
	w := dsm.NewDense("W", rank, rows)
	h := dsm.NewDense("H", rank, cols)
	w.FillRandn(rng, 1.0/rank)
	h.FillRandn(rng, 1.0)

	// 2. @parallel_for: parse the program (mf.orion declares the arrays
	// above) and statically analyze its loop.
	prog, err := lang.ParseProgram(mfProgram)
	if err != nil {
		log.Fatal(err)
	}
	loop := prog.Loop
	spec, err := lang.Analyze(loop, prog.Env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Loop information extracted by static analysis:")
	fmt.Print(spec)

	// 3. Dependence vectors and the parallelization plan.
	deps, err := dep.Analyze(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDependence vectors: %v\n\n", deps)
	plan, err := sched.NewFromDeps(spec, deps, sched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)

	// 4a. Execute serially: the interpreter runs the same loop body the
	// analyzer saw.
	m := lang.NewMachine()
	m.Arrays["ratings"] = ratings
	m.Arrays["W"] = w
	m.Arrays["H"] = h
	m.Globals["step_size"] = float64(0.05)
	m.Globals["err"] = float64(0)

	fmt.Println("\nserial interpretation:")
	fmt.Println("pass  training loss")
	for pass := 1; pass <= passes; pass++ {
		m.Globals["err"] = float64(0)
		if err := m.RunLoop(loop); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %.4f\n", pass, m.Globals["err"].(float64))
	}

	// 4b. Execute distributed: the driver API runs the whole pipeline —
	// the same analysis chooses the same plan, the arrays are
	// partitioned and rotated across executors, and the loop body runs
	// on every worker via real message passing.
	sess, err := driver.NewLocalSession(4)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	dr := sess.CreateArray("ratings", false, rows, cols)
	for i := range ds.I {
		dr.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng2 := rand.New(rand.NewSource(1))
	sess.CreateArray("W", true, rank, rows).FillRandn(rng2, 1.0/rank)
	sess.CreateArray("H", true, rank, cols).FillRandn(rng2, 1.0)
	sess.SetGlobal("step_size", 0.05)
	sess.SetGlobal("err", 0)

	fmt.Println("\ndistributed execution (4 executors, rotation schedule):")
	fmt.Println("pass  accumulated err")
	var prevErr float64
	for pass := 1; pass <= passes; pass++ {
		if _, err := sess.ParallelFor(prog.LoopSrc); err != nil {
			log.Fatal(err)
		}
		total, err := sess.Accumulate("err")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %.4f\n", pass, total-prevErr)
		prevErr = total
	}
}
