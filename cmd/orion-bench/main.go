// Command orion-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	orion-bench -list
//	orion-bench -exp fig9b
//	orion-bench -exp all -scale small
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"orion/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale  = flag.String("scale", "default", "dataset scale: small | default")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		outDir = flag.String("csv", "", "also write each experiment's series as CSV files into this directory")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.ExperimentIDs() {
			fmt.Println(id)
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
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or default)\n", *scale)
		os.Exit(2)
	}

	reg := bench.Experiments()
	var ids []string
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	} else {
		if _, ok := reg[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}

	failed := false
	for _, id := range ids {
		start := time.Now()
		rep, err := reg[id](s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(rep)
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		if *outDir != "" {
			if err := writeCSV(*outDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing csv: %v\n", id, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeCSV dumps each series of a report as <id>__<series>.csv with
// x,y rows, for plotting the figures externally.
func writeCSV(dir string, rep *bench.Report) error {
	if len(rep.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range rep.Series {
		var b strings.Builder
		b.WriteString("x,y\n")
		for i := range s.X {
			fmt.Fprintf(&b, "%g,%g\n", s.X[i], s.Y[i])
		}
		name := rep.ID + "__" + sanitize(s.Name) + ".csv"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}
