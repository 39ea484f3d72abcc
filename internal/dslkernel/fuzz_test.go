package dslkernel

import (
	"os"
	"path/filepath"
	"testing"

	"orion/internal/check"
	"orion/internal/diag"
)

// loopPreamble declares every array, buffer and global FuzzParse's seed
// loops name, which carry no preamble of their own.
const loopPreamble = "array ratings 8 6\narray W 4 8\narray H 4 6\narray samples 10\narray weights 100\nbuffer w_buf weights\n" +
	"array grid 6 6\narray A 6 6\narray tokens 6 6\narray z 6 6\narray xs 5\narray data 5\nglobal step_size K alpha\n---\n"

// FuzzCheckAgreesWithCompile: check refuses a program with ORN018
// exactly when the executors' compiler (Compile) refuses its loop, and
// every program check plans ships a prefetch slice that compiles too.
// Seeded with the shipped examples, the benchmark bodies, the
// DefineLoop seeds above, FuzzExecDifferential's corpus and FuzzParse's
// seed loops under loopPreamble.
func FuzzCheckAgreesWithCompile(f *testing.F) {
	paths, err := filepath.Glob("../../examples/*/*.orion")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example programs found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, src := range benchmarkPrograms {
		f.Add(src)
	}
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Add(aliasing)
	for _, src := range corpusSources(f, "../lang/vm/testdata/fuzz/FuzzExecDifferential") {
		f.Add(src)
	}
	loops, _ := filepath.Glob("../lang/testdata/loops/*.loop")
	for _, p := range loops {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(loopPreamble + string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		res := check.Source(src, check.Options{})
		refused := res.Diags.First(diag.CodeNotCompilable)
		if res.Spec == nil && refused == nil {
			return // an earlier front-end error stopped the pipeline
		}
		def := defineMsg(t, "fuzz", src)
		if _, err := Compile(def); (err != nil) != (refused != nil) {
			t.Fatalf("check says %v, Compile says %v\n%s", refused, err, src)
		}
		if refused != nil || res.Plan == nil {
			return
		}
		art, err := res.BuildArtifact(2)
		if err != nil {
			return
		}
		def.PlanBlob = art.EncodeBinary()
		if _, err := Compile(def); err != nil {
			t.Fatalf("the prefetch slice does not compile: %v\n%s\n%s", err, art.Prefetch.Src, src)
		}
	})
}
