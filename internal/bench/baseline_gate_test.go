package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/runtime"
)

// The committed BENCH_vm.json and BENCH_transport.json baselines are
// regression gates, not just records: `make check` runs these tests, so
// regenerating a baseline that no longer clears the floors fails the
// build. The floors restate the targets the subsystems were built to:
// the bytecode VM must hold >= 2x over the closure backend on at least
// two of the three reference kernels at zero allocations per iteration,
// and the raw rotation codec must allocate >= 5x less per rotated
// partition than the gob path it replaced.

func TestVMBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_vm.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-vm`)", err)
	}
	var d vmBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Kernels) < 3 {
		t.Fatalf("baseline covers %d kernels, want the MF/LDA/SLR trio", len(d.Kernels))
	}
	fast := 0
	for _, k := range d.Kernels {
		if k.VMAllocsPerIter != 0 {
			t.Errorf("%s: vm_allocs_per_iter = %d, want 0", k.Kernel, k.VMAllocsPerIter)
		}
		if k.SpeedupVsCompiled >= 2.0 {
			fast++
		}
	}
	if fast < 2 {
		t.Errorf("only %d kernels at >= 2x over the compiled backend, want >= 2 (speedups: %v)",
			fast, kernelSpeedups(d))
	}
}

func kernelSpeedups(d vmBaseline) map[string]float64 {
	m := make(map[string]float64, len(d.Kernels))
	for _, k := range d.Kernels {
		m[k.Kernel] = k.SpeedupVsCompiled
	}
	return m
}

func TestTransportBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_transport.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-transport`)", err)
	}
	var d transportBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	var gobAllocs, rawAllocs int64 = -1, -1
	for _, r := range d.Rows {
		switch r.Path {
		case "gob":
			gobAllocs = r.AllocsPerRotation
		case "raw":
			rawAllocs = r.AllocsPerRotation
		}
	}
	if gobAllocs < 0 || rawAllocs < 0 {
		t.Fatalf("baseline missing a path: rows = %+v", d.Rows)
	}
	if rawAllocs*5 > gobAllocs {
		t.Errorf("raw codec allocates %d per rotation vs gob's %d — want >= 5x fewer", rawAllocs, gobAllocs)
	}
}

// TestObsBaselineThresholds gates the committed BENCH_obs.json: the
// observability layer's budget is < 3% compiled-kernel regression with
// tracing off, and every hot-path primitive (spans, counters,
// histograms, flight-log appends) must stay allocation-free.
func TestObsBaselineThresholds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_obs.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v (regenerate with `make bench-obs`)", err)
	}
	var d obsBaseline
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Kernels) < 3 {
		t.Fatalf("baseline covers %d kernels, want the MF/LDA/SLR trio", len(d.Kernels))
	}
	for _, k := range d.Kernels {
		if k.RegressionPct >= 3.0 {
			t.Errorf("%s: %.1f%% regression vs BENCH_kernels.json, budget is < 3%%", k.Kernel, k.RegressionPct)
		}
	}
	want := map[string]bool{"span_disabled": false, "flight_append": false}
	for _, p := range d.Primitives {
		if p.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op, want 0", p.Op, p.AllocsPerOp)
		}
		if _, tracked := want[p.Op]; tracked {
			want[p.Op] = true
		}
	}
	for op, present := range want {
		if !present {
			t.Errorf("baseline is missing the %s primitive (regenerate with `make bench-obs`)", op)
		}
	}
	// The adaptive-reconfiguration recut runs at loop-boundary rate
	// (seconds apart), so its budget is latency, not allocations: a
	// 4096-coordinate 2D recut must stay under 2ms, which catches a
	// histogram re-balance that silently becomes superlinear.
	if d.Recut == nil || d.Recut.NsPerRecut <= 0 {
		t.Error("baseline is missing the recut latency row (regenerate with `make bench-obs`)")
	} else if d.Recut.NsPerRecut >= 2e6 {
		t.Errorf("mid-run recut latency %.0f µs for %d coords, budget is < 2000 µs",
			d.Recut.NsPerRecut/1e3, d.Recut.SpaceCoords)
	}
}

// newVMKernel builds a bound VM kernel for one of the obsKernels
// fixtures, mirroring obsKernel.newKernel for the closure backend.
func newVMKernel(tb testing.TB, ok obsKernel) *vm.Kernel {
	loop, err := lang.Parse(ok.src)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 0, len(ok.globals))
	for n := range ok.globals {
		names = append(names, n)
	}
	prog, err := vm.Compile(loop, &lang.CompileEnv{Arrays: ok.arrays, Buffers: ok.buffers, Globals: names})
	if err != nil {
		tb.Fatal(err)
	}
	k := prog.NewKernel()
	arrays := vmFixtureArrays(ok)
	for n, a := range arrays {
		if err := k.BindArray(n, a); err != nil {
			tb.Fatal(err)
		}
	}
	for n, target := range ok.buffers {
		if err := k.BindBuffer(n, dsm.NewBuffer(arrays[target], nil)); err != nil {
			tb.Fatal(err)
		}
	}
	for n, v := range ok.globals {
		k.SetGlobal(n, v)
	}
	k.SetRng(rand.New(rand.NewSource(99)))
	return k
}

// BenchmarkVMIteration: steady-state per-iteration cost of the bytecode
// VM on the reference kernels — the vm_ns_per_iter column of
// BENCH_vm.json, kept as a plain benchmark so `make bench-smoke`
// exercises the measurement path.
func BenchmarkVMIteration(b *testing.B) {
	for _, ok := range obsKernels() {
		b.Run(ok.name, func(b *testing.B) {
			k := newVMKernel(b, ok)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.RunIteration(ok.key, ok.val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportRotation: one dense partition shipped peer-to-peer
// and installed, on both codec paths — the measurement behind
// BENCH_transport.json.
func BenchmarkTransportRotation(b *testing.B) {
	a := dsm.NewDense("W", 16, 512)
	a.Map(func(float64) float64 { return 0.25 })
	p := a.ExtractRange(1, 0, 512)
	for _, path := range []struct {
		name string
		gob  bool
	}{{"gob", true}, {"raw", false}} {
		b.Run(path.name, func(b *testing.B) {
			rb := runtime.NewRotationBench()
			defer rb.Close()
			var ack runtime.Msg
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rb.RoundTrip("W", p, path.gob, &ack); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
