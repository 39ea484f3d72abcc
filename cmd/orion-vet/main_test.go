package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExplainPrintsAnalysisTrail pins, for every committed example
// program, the sections -explain prints after the diagnostics — the
// Fig. 6 trail from loop information to the synthesized prefetch
// function, which only a loop reading served arrays has — and the exit
// status.
func TestExplainPrintsAnalysisTrail(t *testing.T) {
	trail := []string{"loop information", "dependence vectors", "parallelization plan", "strategy explanation"}
	withPrefetch := append(slices.Clone(trail), "synthesized prefetch function")
	want := map[string]struct {
		sections []string
		exit     int
	}{
		"guarded/tile.orion":       {withPrefetch, 0},
		"lda_dsl/lda.orion":        {withPrefetch, 0},
		"quickstart/mf.orion":      {trail, 0},
		"slr_prefetch/slr.orion":   {withPrefetch, 0},
		"strided/interleave.orion": {withPrefetch, 0},
		"vet_demo/fixed.orion":     {trail, 0},
		"vet_demo/unsafe.orion":    {trail, 1},
		"wavefront/stencil.orion":  {withPrefetch, 0},
	}
	files, err := filepath.Glob("../../examples/*/*.orion")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		rel, _ := filepath.Rel("../../examples", file)
		w, ok := want[filepath.ToSlash(rel)]
		if !ok {
			t.Errorf("%s: no expected -explain sections listed for this example", rel)
			continue
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-explain", file}, &stdout, &stderr); code != w.exit {
			t.Errorf("%s: exit %d, want %d (stderr %q)", rel, code, w.exit, stderr.String())
		}
		heading := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(file) + `: ([a-z ]+):$`)
		var got []string
		for _, m := range heading.FindAllStringSubmatch(stdout.String(), -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, w.sections) {
			t.Errorf("%s: -explain sections\n  %q\nwant\n  %q\noutput:\n%s", rel, got, w.sections, stdout.String())
		}
	}
}

// TestExplainSectionContents holds each section of a served-array
// program to what the pipeline computed: the loop record, the vectors,
// the plan's placements and the prefetch slice with its recorded read.
func TestExplainSectionContents(t *testing.T) {
	const file = "../../examples/slr_prefetch/slr.orion"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-explain", file}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		file + ": loop information:\n  Loop samples_loop\n",
		file + ": dependence vectors:\n  {}\n",
		"    array weights: served\n",
		file + ": synthesized prefetch function:\n  for (key, v) in samples\n",
		"    __record(weights[idx])\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output lacks %q:\n%s", want, out)
		}
	}
	stdout.Reset()
	if code := run([]string{file}, &stdout, &stderr); code != 0 || strings.Contains(stdout.String(), "loop information") {
		t.Errorf("without -explain: exit %d, output\n%s", code, stdout.String())
	}
}
