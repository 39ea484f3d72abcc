// Command benchmark is the end-to-end benchmark of the real Orion
// runtime: four DSL training workloads run through driver.Session on
// two workers, with every layer below the driver timed from outside by
// spans around calls into its public functions. See README.md.
//
//	bash benchmark/run.sh --workload mf_rotate --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -runs 5 -json out.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
)

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "fixture seed")
		secs    = flag.Float64("seconds", 15, "length of the end-to-end timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced")
		smoke   = flag.Bool("smoke", false, "tiny fixtures, two passes")
		jsonOut = flag.String("json", "", "with -workload all: write every workload's metrics here")
		runs    = flag.Int("runs", 1, "with -workload all: end-to-end runs per workload; medians are kept")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files")
		compare = flag.Bool("compare", false, "compare two -json files: -compare a.json b.json")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration (bounds for -compare)")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *secs, smoke: *smoke, outDir: *outDir}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "all":
		if err := runAll(cfg, max(*runs, 1), *jsonOut); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runOne(w, cfg, *trace)
		if err != nil {
			fatal(err)
		}
		printResult(res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and returns its result.
func runOne(w workload, cfg config, trace int) (*result, error) {
	if goruntime.NumCPU() < workers {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %d CPU for %d workers: wall-clock numbers come from a shared core and driver.speedup_vs_serial is omitted\n",
			goruntime.NumCPU(), workers)
	}
	env := environment(cfg)
	for _, k := range sortedKeys(env) {
		fmt.Printf("# %s = %s\n", k, env[k])
	}
	var (
		m   metrics
		o   *ops
		err error
	)
	if trace == 0 {
		m, o, err = runE2E(w, cfg)
	} else {
		m, o, err = runLayers(w, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// printResult prints every metric by name with its unit, then the
// result object on the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-32s %14.6g %s\n", "failed_ops_pct", 100*float64(res.Failed)/float64(res.Attempted), "%")
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}
