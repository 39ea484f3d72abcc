package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
)

// document is what -workload all -json writes and -compare reads.
type document struct {
	// Env is the run environment: nproc, GOMAXPROCS, Go version, commit
	// and seed.
	Env       map[string]string      `json:"env"`
	Workloads map[string]workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func environment(cfg config) map[string]string {
	commit := os.Getenv("BENCH_COMMIT") // run.sh asks git; a bare checkout has none
	if commit == "" {
		commit = "unknown"
	}
	return map[string]string{
		"nproc":      strconv.Itoa(goruntime.NumCPU()),
		"gomaxprocs": strconv.Itoa(goruntime.GOMAXPROCS(0)),
		"go":         goruntime.Version(),
		"commit":     commit,
		"seed":       strconv.FormatInt(cfg.seed, 10),
		"seconds":    strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
	}
}

// runAll runs every workload, each run in a child process of its own
// so that peak RSS and GC state do not leak from one into the next. The
// end-to-end run is made runs times and the median of each metric
// kept: on a noisy host one run is not enough to compare two commits.
func runAll(cfg config, runs int, jsonOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Env: environment(cfg), Workloads: map[string]workloadDoc{}}
	doc.Env["runs"] = strconv.Itoa(runs)
	for _, w := range workloads() {
		var e2e []*result
		for i := 0; i < runs; i++ {
			fmt.Printf("\n== %s, trace 0, run %d of %d\n", w.name, i+1, runs)
			res, err := runChild(exe, w.name, cfg, 0)
			if err != nil {
				return fmt.Errorf("%s trace 0: %w", w.name, err)
			}
			e2e = append(e2e, res)
		}
		fmt.Printf("\n== %s, trace 1\n", w.name)
		layers, err := runChild(exe, w.name, cfg, 1)
		if err != nil {
			return fmt.Errorf("%s trace 1: %w", w.name, err)
		}
		doc.Workloads[w.name] = workloadDoc{EndToEnd: medianResult(e2e), PerLayer: *layers}
	}
	if jsonOut == "" {
		return nil
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(raw, '\n'), 0o644)
}

// medianResult folds several runs into one: the median of each metric,
// and every operation counted.
func medianResult(runs []*result) result {
	out := result{Correct: true, Metrics: metrics{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for name, m := range runs[0].Metrics {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Metrics[name].Value)
		}
		out.Metrics.set(name, median(vs), m.Unit)
	}
	return out
}

// runChild re-executes the harness for one workload, passes its output
// through, and parses the result object on its last line.
func runChild(exe, name string, cfg config, trace int) (*result, error) {
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &res, nil
}

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints every end-to-end metric of every workload in two
// documents — a the baseline, b the candidate — with the relative
// difference and the bound BENCHMARK.json fixes, and reports whether
// every pair is inside its bound: b may not be worse than a by more
// than the bound, may not have more failed operations, and, when both
// ran the same seed, must agree on passes_to_target (to 1e-9: see
// workload.relTol).
func compareFiles(out io.Writer, specPath, aPath, bPath string) (bool, error) {
	var sp spec
	var a, b document
	for path, into := range map[string]any{specPath: &sp, aPath: &a, bPath: &b} {
		if err := readJSON(path, into); err != nil {
			return false, err
		}
	}
	sameSeed := a.Env["seed"] == b.Env["seed"]
	ok := true
	fmt.Fprintf(out, "%-12s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "")
	for _, w := range sp.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		for _, sm := range sp.EndToEnd {
			ma, inA := wa.EndToEnd.Metrics[sm.Name]
			mb, inB := wb.EndToEnd.Metrics[sm.Name]
			if !inA || !inB {
				fmt.Fprintf(out, "%-12s %-18s missing\n", w.Name, sm.Name)
				ok = false
				continue
			}
			diff := (mb.Value - ma.Value) / ma.Value
			worse := diff
			if sm.Better == "higher" {
				worse = -diff
			}
			bound, verdict := sm.Bound, "ok"
			if sm.Name == "passes_to_target" && sameSeed {
				bound, worse = 1e-9, math.Abs(diff)
			}
			if worse > bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(out, "%-12s %-18s %12.6g %12.6g %+8.2f%% %6.1f%%  %s %s\n",
				w.Name, sm.Name, ma.Value, mb.Value, 100*diff, 100*bound, sm.Unit, verdict)
		}
		verdict := "ok"
		if wb.EndToEnd.Failed > wa.EndToEnd.Failed || wb.PerLayer.Failed > wa.PerLayer.Failed {
			verdict, ok = "OUTSIDE", false
		}
		fmt.Fprintf(out, "%-12s %-18s %12d %12d %25s %s\n", w.Name, "failed_ops",
			wa.EndToEnd.Failed+wa.PerLayer.Failed, wb.EndToEnd.Failed+wb.PerLayer.Failed, "", verdict)
	}
	return ok, nil
}
