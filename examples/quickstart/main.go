// Quickstart: the full Orion pipeline on the paper's running example
// (SGD matrix factorization, Fig. 5/6) written in the DSL.
//
//	source text → static analysis → dependence vectors → plan
//	            → execution on DistArrays → convergence
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"orion/examples"
	"orion/internal/data"
	"orion/internal/dep"
	"orion/internal/driver"
	"orion/internal/lang"
	"orion/internal/sched"
)

func main() {
	const passes = 8

	// 1. The driver program creates DistArrays: training data loaded
	// (here: generated), parameters randomly initialized.
	cfg := data.RatingsConfig{Rows: 80, Cols: 60, NNZ: 2000, Rank: 8, Noise: 0.05, Seed: 42}
	mf := examples.NewMF(cfg)

	// 2. @parallel_for: parse the program (mf.orion declares the arrays
	// above) and statically analyze its loop.
	prog, err := lang.ParseProgram(examples.MF)
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
	for name, a := range mf.Arrays {
		m.Arrays[name] = a
	}
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
	if err := examples.NewMF(cfg).Register(sess); err != nil {
		log.Fatal(err)
	}
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
