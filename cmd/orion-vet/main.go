// Command orion-vet vets Orion DSL program files without running them:
// it parses each file (preamble + '---' + loop), runs the full static
// diagnostics engine (internal/check) — front-end analysis, dependence
// vectors, plan selection, safety lints, strategy verdict — and prints
// positioned diagnostics with source carets:
//
//	$ orion-vet examples/vet_demo/unsafe.orion
//	examples/vet_demo/unsafe.orion:8:5: error[ORN201]: loop "loop" is not parallelizable: ...
//	    hist[b] = hist[b] + 1
//	    ^
//	  note: run the loop serially, or — if the conflicting updates commute — ...
//
// Flags:
//
//	-json      emit a machine-readable JSON report instead of text
//	-explain   also print the analysis trail per file (Fig. 6): the loop
//	           information, the dependence vectors, the parallelization
//	           plan, the strategy explanation and, when the loop reads
//	           served arrays, the synthesized prefetch function; with
//	           -json, the explanation lines
//	-plan art  also vet the serialized plan artifact at path art against
//	           each program: schema-version or content-hash drift is
//	           reported as ORN108 (stale cache detection)
//
// Exit status: 0 when no file has error diagnostics, 1 when at least
// one does, 2 on usage or I/O problems.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"orion/internal/check"
	"orion/internal/diag"
)

// fileReport is the per-file entry of the -json output.
type fileReport struct {
	File     string `json:"file"`
	Strategy string `json:"strategy,omitempty"`
	// Verdict classifies the strategy outcome: "proven" (the plan is
	// unconditionally safe), "guarded" (safe only under a synthesized
	// runtime guard, ORN203), or "refused" (not parallelizable,
	// ORN201). Empty when planning did not run.
	Verdict     string            `json:"verdict,omitempty"`
	Guard       string            `json:"guard,omitempty"`
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
	Explanation []string          `json:"explanation,omitempty"`

	trail string // the -explain text
}

// report is the whole -json document.
type report struct {
	Files    []fileReport `json:"files"`
	Errors   int          `json:"errors"`
	Warnings int          `json:"warnings"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run vets the files named in args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orion-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report")
	explain := fs.Bool("explain", false, "print the analysis trail: loop information, dependence vectors, plan, strategy explanation, prefetch function")
	planPath := fs.String("plan", "", "vet the serialized plan `artifact` against each program (ORN108 on drift)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: orion-vet [-json] [-explain] [-plan artifact] file.orion...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var planBlob []byte
	if *planPath != "" {
		var err error
		planBlob, err = os.ReadFile(*planPath)
		if err != nil {
			fmt.Fprintln(stderr, "orion-vet:", err)
			return 2
		}
	}

	rep := report{Files: []fileReport{}}
	sources := map[string]string{}
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "orion-vet:", err)
			return 2
		}
		src := string(b)
		sources[path] = src

		var res *check.Result
		if planBlob != nil {
			res = check.CheckArtifact(planBlob, *planPath, src, check.Options{File: path})
		} else {
			res = check.Source(src, check.Options{File: path})
		}
		fr := fileReport{File: path, Diagnostics: append([]diag.Diagnostic{}, res.Diags...)}
		if res.Plan != nil {
			fr.Strategy = res.Plan.Kind.String()
		}
		fr.Verdict = res.Verdict()
		if res.Guard != nil {
			fr.Guard = res.Guard.String()
		}
		if *explain {
			fr.Explanation = res.Explanation
			fr.trail = trail(path, res)
		}
		rep.Files = append(rep.Files, fr)
		for _, d := range res.Diags {
			switch d.Severity {
			case diag.Error:
				rep.Errors++
			case diag.Warning:
				rep.Warnings++
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "orion-vet:", err)
			return 2
		}
	} else {
		for _, fr := range rep.Files {
			diag.Render(stdout, fr.Diagnostics, sources)
			fmt.Fprint(stdout, fr.trail)
		}
		if rep.Errors > 0 || rep.Warnings > 0 {
			fmt.Fprintf(stdout, "orion-vet: %d error(s), %d warning(s)\n", rep.Errors, rep.Warnings)
		}
	}
	if rep.Errors > 0 {
		return 1
	}
	return 0
}

// trail renders the analysis trail of one file (Fig. 6): one section
// per pipeline stage that ran, each titled "<file>: <stage>:" with its
// text indented below.
func trail(file string, res *check.Result) string {
	var b strings.Builder
	section := func(title, text string) {
		fmt.Fprintf(&b, "%s: %s:\n", file, title)
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	if res.Spec != nil {
		section("loop information", res.Spec.String())
	}
	if deps := res.Deps(); deps != nil {
		section("dependence vectors", deps.String())
	}
	if res.Plan != nil {
		section("parallelization plan", res.Plan.String())
	}
	if len(res.Explanation) > 0 {
		section("strategy explanation", strings.Join(res.Explanation, "\n"))
	}
	if sliced, _, onDemand := res.Prefetch(); sliced != nil {
		text := sliced.String()
		if len(onDemand) > 0 {
			text += "\nleft on demand (data-dependent subscripts): " + strings.Join(onDemand, ", ")
		}
		section("synthesized prefetch function", text)
	}
	return b.String()
}
