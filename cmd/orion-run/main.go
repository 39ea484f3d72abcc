// Command orion-run trains one application end-to-end under a chosen
// execution engine on a synthetic dataset and prints the loss
// trajectory.
//
//	orion-run -app mf -engine orion -workers 16 -passes 10
//	orion-run -app lda -engine strads
//	orion-run -app slr -engine dp
package main

import (
	"flag"
	"fmt"
	"os"

	"orion/internal/apps"
	"orion/internal/bench"
	"orion/internal/data"
	"orion/internal/engine"
	"orion/internal/obs"
	"orion/internal/optim"
)

func main() {
	var (
		app        = flag.String("app", "mf", "application: mf | mf-adarev | lda | slr | stencil | gbt")
		eng        = flag.String("engine", "orion", "engine: serial | orion | ordered | dp | cm | strads | dataflow | dsl")
		workers    = flag.Int("workers", 0, "worker count (default: scale's)")
		passes     = flag.Int("passes", 0, "data passes (default: scale's)")
		scale      = flag.String("scale", "default", "dataset scale: small | default")
		transport  = flag.String("transport", "inproc", "runtime transport for -engine dsl: inproc | tcp (tcp exercises real sockets)")
		trace      = flag.String("trace", "", "write a Chrome trace-event JSON file here (-engine dsl; open at ui.perfetto.dev)")
		report     = flag.Bool("report", false, "print the per-worker execution report after the run (-engine dsl)")
		reportJSON = flag.String("report-json", "", "write the machine-readable report document (loops, peer traffic, flight log) here (-engine dsl)")
		flightRec  = flag.String("flightrec", "", "flush the flight-recorder event log here on exit, even after a failed run (-engine dsl)")
		metrics    = flag.String("metrics-addr", "", "serve runtime metrics (/debug/vars) and profiling (/debug/pprof/) on this address")

		ckptDir   = flag.String("checkpoint-dir", "", "coordinated checkpoint directory (-engine dsl); enables recovery from worker loss")
		ckptEvery = flag.Int64("checkpoint-every", 0, "checkpoint every N global steps (0 = pass boundaries only; needs -checkpoint-dir)")

		adapt      = flag.Bool("adapt", false, "adaptive re-planning: re-cut partitions from measured cost at skewed pass boundaries (-engine dsl)")
		adaptSkew  = flag.Float64("adapt-skew", 0, "compute skew (max/median) that triggers a recut (0 = analyzer default 1.5; needs -adapt)")
		skewDemo   = flag.Float64("skew-demo", 0, "inject a synthetic straggler: delay worker 0 this many microseconds per iteration (-engine dsl)")
		assertDrop = flag.Float64("adapt-assert-drop", 0, "exit non-zero unless an adaptive recut cut the skew index by at least this fraction (e.g. 0.3)")
		grow       = flag.Int("grow", 0, "grow the fleet to this many workers at the first pass boundary (-engine dsl)")
		heartbeat  = flag.Duration("heartbeat", 0, "declare a silent worker lost after this long (-engine dsl; 0 disables staleness detection; use >= 3x the 500ms ping interval)")
	)
	flag.Parse()

	if *metrics != "" {
		srv, err := obs.ServeMetrics(*metrics)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "orion-run: metrics at http://%s/debug/vars (report at /report)\n", srv.Addr())
	}

	// -engine dsl runs the app from pure DSL source on the real
	// distributed runtime (not the cost-model engines below).
	if *eng == "dsl" {
		var tracer *obs.Tracer
		if *trace != "" {
			tracer = obs.StartTracing()
		}
		// Flush the flight log even when the run fails or panics — the
		// last events before an abort are the ones worth reading.
		flushFlight := func() {
			if *flightRec == "" {
				return
			}
			if ferr := obs.Flight().FlushFile(*flightRec); ferr == nil {
				fmt.Fprintf(os.Stderr, "orion-run: flight log written to %s\n", *flightRec)
			}
		}
		defer flushFlight()
		err := runDSL(dslConfig{
			App: *app, Transport: *transport,
			Workers: *workers, Passes: *passes,
			Report: *report, ReportJSON: *reportJSON,
			CkptDir: *ckptDir, CkptEvery: *ckptEvery,
			Adapt: *adapt, AdaptSkew: *adaptSkew, SkewDemoUS: *skewDemo,
			AssertDrop: *assertDrop, Grow: *grow,
			Heartbeat: *heartbeat,
		})
		if tracer != nil {
			obs.StopTracing()
			// Write the trace even when the run failed — a truncated
			// timeline is exactly what diagnoses the failure.
			if werr := tracer.WriteFile(*trace); werr != nil {
				if err == nil {
					err = werr
				}
			} else {
				fmt.Fprintf(os.Stderr, "orion-run: trace written to %s\n", *trace)
			}
		}
		if err != nil {
			flushFlight() // fatal exits without running defers
			fatal(err)
		}
		return
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.Small()
	case "default":
		s = bench.Default()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}

	var a engine.App
	defPasses := s.MFPasses
	switch *app {
	case "mf":
		a = bench.MFApp(s, optim.NewSGD(s.MFLR))
	case "mf-adarev":
		a = bench.MFApp(s, optim.NewAdaRev(s.AdaRevLR))
	case "lda":
		a = bench.LDAApp(s.LDASmall, s)
		defPasses = s.LDAPasses
	case "slr":
		a = bench.SLRApp(s, optim.NewSGD(s.SLRLR))
		defPasses = s.SLRPasses
	case "stencil":
		a = apps.NewStencil(48, 48)
		defPasses = 6
	case "gbt":
		runGBT(s)
		return
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	cfg := engine.Config{
		Workers:       s.Workers,
		Cluster:       s.Cluster,
		Passes:        defPasses,
		Seed:          1,
		PipelineDepth: 2,
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *passes > 0 {
		cfg.Passes = *passes
	}

	var (
		res *engine.Result
		err error
	)
	switch *eng {
	case "serial":
		cfg.Workers = 1
		res = engine.RunSerial(a, cfg)
	case "orion":
		res, _, err = engine.RunOrion(a, cfg)
	case "ordered":
		res, err = engine.RunOrion2D(a, cfg, true)
	case "dp":
		res = engine.RunDataParallel(a, cfg)
	case "cm":
		res = engine.RunManagedComm(a, cfg)
	case "strads":
		res, err = engine.RunSTRADS(a, cfg)
	case "dataflow":
		res = engine.RunDataflow(a, cfg)
	default:
		fatal(fmt.Errorf("unknown engine %q", *eng))
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s on %s: %d workers, %d passes\n", res.Engine, res.App, cfg.Workers, cfg.Passes)
	fmt.Printf("%-6s  %-12s  %-12s\n", "pass", "loss", "time (s)")
	for i := range res.Loss {
		fmt.Printf("%-6d  %-12.6g  %-12.6g\n", i+1, res.Loss[i], res.Time[i])
	}
	fmt.Printf("time per iteration: %.6g s (simulated)\n", res.TimePerIter())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orion-run:", err)
	os.Exit(1)
}

// runGBT trains gradient boosted trees through their own driver (GBT is
// not a parameter-server workload; its 1D-parallel loop is the split
// search, run with real goroutines).
func runGBT(s bench.Scale) {
	ds := data.NewRegression(s.GBT)
	g := apps.NewGBT(ds, 40, 4, 32, 0.3)
	g.Train()
	fmt.Printf("gbt: %d trees, depth 4, training MSE %.6g\n", 40, g.MSE())
}
