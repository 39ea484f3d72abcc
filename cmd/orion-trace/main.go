// Command orion-trace post-processes the flight recorder's artifacts:
// Chrome trace-event files written by orion-run -trace and report
// documents written by orion-run -report-json.
//
//	orion-trace merge -o merged.json run1.json run2.json
//	orion-trace analyze -report report.json [-weights weights.json] [trace.json]
//	orion-trace top -n 10 trace.json
//
// merge stitches several trace files into one timeline (remapping pid
// lanes so different runs do not collide), analyze runs the
// straggler/skew analytics engine over a report document (and
// optionally sanity-checks the trace beside it), and top aggregates
// span durations by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"orion/internal/obs"
	"orion/internal/obs/analyze"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "orion-trace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orion-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  orion-trace merge -o merged.json trace1.json [trace2.json ...]
  orion-trace analyze -report report.json [-weights out.json] [trace.json]
  orion-trace top [-n 10] trace.json
`)
}

// traceDoc is the Chrome trace-event JSON envelope.
type traceDoc struct {
	TraceEvents     []obs.TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func readTrace(path string) (*traceDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// cmdMerge concatenates several trace files into one timeline. Each
// input keeps its internal pid structure but is shifted into its own
// pid range so two runs' worker lanes never collide; metadata events
// stay attached to their lanes.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "merged.json", "output trace file")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: no input traces")
	}

	merged := traceDoc{DisplayTimeUnit: "ms"}
	base := 0
	for _, path := range fs.Args() {
		doc, err := readTrace(path)
		if err != nil {
			return err
		}
		maxPid := 0
		for _, ev := range doc.TraceEvents {
			ev.Pid += base
			if ev.Pid > maxPid {
				maxPid = ev.Pid
			}
			merged.TraceEvents = append(merged.TraceEvents, ev)
		}
		base = maxPid + 1
	}
	obs.SortEvents(merged.TraceEvents)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(&merged); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("merged %d events from %d traces into %s\n",
		len(merged.TraceEvents), fs.NArg(), *out)
	return nil
}

// cmdAnalyze runs the analytics engine over a report document and
// optionally cross-checks the merged trace beside it. Exits non-zero
// when the report has no loops or the trace carries no spans — an
// empty flight recording is a collection failure, not a healthy run.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	reportPath := fs.String("report", "", "report document from orion-run -report-json (required)")
	weightsOut := fs.String("weights", "", "export the measured weight profile of the most skewed loop here")
	skew := fs.Float64("skew", 0, "compute-skew threshold for ORN401 (default 1.5)")
	rotation := fs.Float64("rotation", 0, "rotation/compute threshold for ORN402 (default 0.5)")
	static := fs.Float64("static-ratio", 0, "ORN107's static rotation/compute byte ratio, for cross-checking")
	fs.Parse(args)
	if *reportPath == "" {
		return fmt.Errorf("analyze: -report is required")
	}

	doc, err := obs.ReadReportDoc(*reportPath)
	if err != nil {
		return err
	}
	if len(doc.Loops) == 0 {
		return fmt.Errorf("analyze: %s has no loop reports", *reportPath)
	}

	// Optional positional trace: verify it actually recorded spans and
	// summarize its lanes.
	if fs.NArg() > 0 {
		tdoc, err := readTrace(fs.Arg(0))
		if err != nil {
			return err
		}
		pids := analyze.Pids(tdoc.TraceEvents)
		if len(pids) == 0 {
			return fmt.Errorf("analyze: %s contains no complete spans", fs.Arg(0))
		}
		fmt.Printf("trace %s: %d events across %d worker lanes (pids %v)\n",
			fs.Arg(0), len(tdoc.TraceEvents), len(pids), pids)
	}

	opts := analyze.Options{SkewThreshold: *skew, RotationThreshold: *rotation, StaticRatio: *static}
	results := analyze.Report(doc, opts)

	var worst *analyze.Result
	for _, res := range results {
		printResult(res)
		if res.Straggler >= 0 && (worst == nil || res.SkewIndex > worst.SkewIndex) {
			worst = res
		}
	}
	if len(doc.Flight) > 0 {
		fmt.Printf("\nflight log: %d events (last kind %s at clock %d)\n",
			len(doc.Flight), doc.Flight[len(doc.Flight)-1].Kind, doc.Flight[len(doc.Flight)-1].Clock)
		printReconfigurations(doc.Flight)
	}

	if *weightsOut != "" {
		prof := pickWeights(worst, results)
		if prof == nil {
			return fmt.Errorf("analyze: no measured weights to export")
		}
		if err := prof.WriteFile(*weightsOut); err != nil {
			return err
		}
		fmt.Printf("weight profile for loop %s written to %s\n", prof.Loop, *weightsOut)
	}
	return nil
}

// printReconfigurations surfaces fleet-reconfiguration events from the
// flight log — adaptive recuts, elastic grows, checkpoint restores —
// keyed by (loop, clock, pass, step), so a stall visible in the merged
// timeline can be attributed to the reconfiguration that caused it.
func printReconfigurations(events []obs.FlightEvent) {
	var recon []obs.FlightEvent
	for _, ev := range events {
		switch ev.Kind {
		case obs.FlightPlanRecut, obs.FlightFleetGrow, obs.FlightCkptRestore:
			recon = append(recon, ev)
		}
	}
	if len(recon) == 0 {
		return
	}
	fmt.Printf("reconfigurations: %d\n", len(recon))
	for _, ev := range recon {
		fmt.Printf("  %-12s  loop %-24s  clock %-6d  pass %-4d step %-4d  %s\n",
			ev.Kind, ev.Loop, ev.Clock, ev.Pass, ev.Step, ev.Detail)
	}
}

// pickWeights picks the profile to export: the most skewed loop's when
// one exists, otherwise the first measured profile.
func pickWeights(worst *analyze.Result, all []*analyze.Result) *analyze.WeightProfile {
	if worst != nil && worst.Weights != nil {
		return worst.Weights
	}
	for _, res := range all {
		if res.Weights != nil {
			return res.Weights
		}
	}
	return nil
}

func printResult(res *analyze.Result) {
	fmt.Printf("loop %s: %d workers, skew %.2fx, rotation/compute %.2f\n",
		res.Loop, len(res.Workers), res.SkewIndex, res.RotationComputeRatio)
	if len(res.Workers) > 0 {
		fmt.Printf("  %-8s %-8s %-10s %-12s %-12s %-10s\n",
			"worker", "blocks", "iters", "compute", "rot-wait", "busy")
		for _, w := range res.Workers {
			fmt.Printf("  %-8d %-8d %-10d %-12s %-12s %-9.1f%%\n",
				w.Worker, w.Blocks, w.Iters, fmtNs(w.ComputeNs), fmtNs(w.RotWaitNs), 100*w.BusyShare)
		}
	}
	for _, l := range res.Links {
		fmt.Printf("  stall: worker %d waited %s on %s (%d bytes shipped)\n",
			l.Worker, fmtNs(l.RotWaitNs), l.Link, l.BytesSent)
	}
	for _, d := range res.Diags {
		fmt.Printf("  %s[%s]: %s\n", d.Severity, d.Code, d.Message)
		if d.Note != "" {
			fmt.Printf("    note: %s\n", d.Note)
		}
	}
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// cmdTop prints the heaviest span names in a trace.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "show the top N span names by total duration")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("top: no trace file")
	}
	doc, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	stats := analyze.Top(doc.TraceEvents)
	if len(stats) == 0 {
		return fmt.Errorf("top: %s contains no complete spans", fs.Arg(0))
	}
	if len(stats) > *n {
		stats = stats[:*n]
	}
	fmt.Printf("%-24s %-8s %-12s %-12s %-6s\n", "span", "count", "total", "max", "lanes")
	for _, s := range stats {
		fmt.Printf("%-24s %-8d %-12s %-12s %-6d\n",
			s.Name, s.Count, fmtNs(int64(s.TotalUs*1e3)), fmtNs(int64(s.MaxUs*1e3)), s.Lanes)
	}
	return nil
}
