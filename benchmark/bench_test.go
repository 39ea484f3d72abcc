package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecWithinLimits holds BENCHMARK.json to the limits its readers
// impose.
func TestSpecWithinLimits(t *testing.T) {
	sp := readSpec(t)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Errorf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloads()))
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
	}
}

// sameNames checks that a run emitted exactly the declared metrics,
// each with its declared unit.
func sameNames(t *testing.T, what string, declared []specMetric, got metrics) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emitted metric %s is not declared", what, name)
		}
	}
}

// TestSmoke runs all four workloads through every phase at smoke
// scale. No failed operation means, among the other checks, that the
// replay of internal/driver/exec.go's call sequence reached the same
// arrays as Session.ParallelFor.
func TestSmoke(t *testing.T) {
	sp := readSpec(t)
	cfg := config{seed: 1, seconds: 0, smoke: true, outDir: t.TempDir()}
	for _, w := range workloads() {
		e2e, err := runOne(w, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameNames(t, w.name+" trace 0", sp.EndToEnd, e2e.Metrics)
		layers, err := runOne(w, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameNames(t, w.name+" trace 1", sp.PerLayer, layers.Metrics)
		for _, res := range []*result{e2e, layers} {
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s: %d of %d operations failed (correct=%v)", w.name, res.Failed, res.Attempted, res.Correct)
			}
		}
		for _, m := range sp.EndToEnd {
			if e2e.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
			}
		}
		checkTrace(t, filepath.Join(cfg.outDir, w.name+".trace.json"))
	}
}

// checkTrace parses a trace file and checks that spans name existing
// parents and that each phase has a lane of its own.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	var doc traceDoc
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{0: true} // parent 0 is "none"
	lanes := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			ids[ev.Args["id"].(float64)] = true
			if tid, ok := lanes[ev.Cat]; ok && tid != ev.Tid {
				t.Errorf("%s: phase %s spans two lanes", path, ev.Cat)
			}
			lanes[ev.Cat] = ev.Tid
		}
	}
	for _, phase := range []string{"traced", "layers", "standalone"} {
		if _, ok := lanes[phase]; !ok {
			t.Errorf("%s: no spans in phase %s", path, phase)
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && !ids[ev.Args["parent"].(float64)] {
			t.Errorf("%s: span %s names a parent %v that does not exist", path, ev.Name, ev.Args["parent"])
		}
	}
}

func TestCompare(t *testing.T) {
	doc := func(pass float64, failed int) document {
		d := document{Env: map[string]string{"seed": "1"}, Workloads: map[string]workloadDoc{}}
		for _, w := range workloads() {
			m := metrics{}
			for _, sm := range readSpec(t).EndToEnd {
				m.set(sm.Name, 1, sm.Unit)
			}
			m.set("pass_s", pass, "s")
			d.Workloads[w.name] = workloadDoc{EndToEnd: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}}
		}
		return d
	}
	write := func(name string, d document) string {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", doc(1, 0))
	for _, c := range []struct {
		name string
		b    document
		ok   bool
	}{
		{"same", doc(1, 0), true},
		{"inside the bound", doc(1.05, 0), true},
		{"better", doc(0.5, 0), true},
		{"worse than the bound", doc(1.5, 0), false},
		{"a failed operation", doc(1, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, "../BENCHMARK.json", base, write("b.json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: compare says %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		if !strings.Contains(out.String(), "pass_s") {
			t.Errorf("%s: pass_s is not in the table", c.name)
		}
	}
}
