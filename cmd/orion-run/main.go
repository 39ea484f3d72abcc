// Command orion-run trains one application, written in Orion's DSL, on
// the real distributed runtime over a synthetic dataset and prints the
// training metric after every pass.
//
//	orion-run -app mf -workers 2 -passes 4
//	orion-run -app lda -transport tcp -trace trace.json
//	orion-run -app slr -checkpoint-dir ckpt
//
// The paper's tables and figures, and the comparator systems they
// measure, run on the simulated cluster: see orion-bench.
package main

import (
	"flag"
	"fmt"
	"os"

	"orion/internal/obs"
)

func main() {
	var (
		app        = flag.String("app", "mf", "application: mf | lda | slr")
		workers    = flag.Int("workers", 4, "worker count")
		passes     = flag.Int("passes", 4, "data passes")
		transport  = flag.String("transport", "inproc", "runtime transport: inproc | tcp (tcp exercises real sockets)")
		trace      = flag.String("trace", "", "write a Chrome trace-event JSON file here (open at ui.perfetto.dev)")
		report     = flag.Bool("report", false, "print the per-worker execution report after the run")
		reportJSON = flag.String("report-json", "", "write the machine-readable report document (loops, peer traffic, flight log) here")
		flightRec  = flag.String("flightrec", "", "flush the flight-recorder event log here on exit, even after a failed run")
		metrics    = flag.String("metrics-addr", "", "serve runtime metrics (/debug/vars) and profiling (/debug/pprof/) on this address")

		ckptDir   = flag.String("checkpoint-dir", "", "coordinated checkpoint directory; enables recovery from worker loss")
		ckptEvery = flag.Int64("checkpoint-every", 0, "checkpoint every N global steps (0 = pass boundaries only; needs -checkpoint-dir)")

		adapt     = flag.Bool("adapt", false, "adaptive re-planning: re-cut partitions from measured cost at skewed pass boundaries")
		adaptSkew = flag.Float64("adapt-skew", 0, "compute skew (max/median) that triggers a recut (0 = analyzer default 1.5; needs -adapt)")
		grow      = flag.Int("grow", 0, "grow the fleet to this many workers at the first pass boundary")
		heartbeat = flag.Duration("heartbeat", 0, "declare a silent worker lost after this long (0 disables staleness detection; use >= 3x the 500ms ping interval)")
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

	var tracer *obs.Tracer
	if *trace != "" {
		tracer = obs.StartTracing()
	}
	// Flush the flight log even when the run fails or panics — the last
	// events before an abort are the ones worth reading.
	flushFlight := func() {
		if *flightRec == "" {
			return
		}
		if ferr := obs.Flight().FlushFile(*flightRec); ferr == nil {
			fmt.Fprintf(os.Stderr, "orion-run: flight log written to %s\n", *flightRec)
		}
	}
	defer flushFlight()
	err := run(config{
		App: *app, Transport: *transport,
		Workers: *workers, Passes: *passes,
		Report: *report, ReportJSON: *reportJSON,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery,
		Adapt: *adapt, AdaptSkew: *adaptSkew, Grow: *grow,
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orion-run:", err)
	os.Exit(1)
}
