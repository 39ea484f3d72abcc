// Command orion-lint runs Orion's project-specific static analysis
// suite (internal/lint) over the repository — invariants go vet cannot
// know about:
//
//	timenow   — no wall-clock reads in deterministic packages, and no
//	            timer or sleep in the runtime and driver without a reason
//	spanend   — every trace span Begin() is ended on all return paths
//	msgretain — runtime Msg payload slices are never retained
//	nogob     — no file imports the gob package
//
// Usage:
//
//	orion-lint [packages]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/runtime"); the default is the whole module.
// Suppress a finding with `//lint:ignore <analyzer> <reason>` on the
// flagged line or the line above it.
//
// Exit status: 0 clean, 1 findings, 2 usage or parse problems.
package main

import (
	"flag"
	"fmt"
	"os"

	"orion/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: orion-lint [packages]\n")
		fmt.Fprintf(flag.CommandLine.Output(), "analyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "orion-lint:", err)
		os.Exit(2)
	}
	passes, err := lint.Load(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "orion-lint:", err)
		os.Exit(2)
	}
	findings := lint.Run(passes, lint.Analyzers())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "orion-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
