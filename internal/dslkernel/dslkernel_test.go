package dslkernel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// notVMCompilable aliases a vector local, which is outside the VM's
// subset: only the interpreter runs it.
const notVMCompilable = `
array data 10
---
for (key, v) in data
    p = zeros(3)
    q = p
    s = dot(q, q) + v * 0
end
`

// defineMsg builds the DefineLoop message a driver would ship for a
// program file.
func defineMsg(t *testing.T, name, src, backend string) *runtime.Msg {
	t.Helper()
	prog, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &runtime.Msg{
		LoopName:    name,
		LoopSrc:     prog.Loop.String(),
		ArrayDims:   prog.Env.Arrays,
		Buffers:     prog.Env.Buffers,
		GlobalNames: prog.Globals,
		GlobalVals:  make([]float64, len(prog.Globals)),
		AccumNames:  lang.Accumulators(prog.Loop),
		Backend:     backend,
	}
}

// TestCompileBackendLattice walks every shipped example loop (all inside
// the VM's subset) plus one loop outside it through each Backend value:
// the batched Block form exists exactly when the VM runs the loop, the
// kernel.vm / kernel.interp_fallback counters record the verdict, a
// pinned vm backend refuses to fall back, and anything else — including
// the removed "compiled" tier — is an unknown backend.
func TestCompileBackendLattice(t *testing.T) {
	programs := map[string]string{"not-vm-compilable": notVMCompilable}
	paths, err := filepath.Glob("../../examples/*/*.orion")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(p)] = string(b)
	}

	vmCount, interpCount := obs.GetCounter("kernel.vm"), obs.GetCounter("kernel.interp_fallback")
	for name, src := range programs {
		inVM := name != "not-vm-compilable"
		for _, tc := range []struct {
			backend string
			wantErr string // substring; "" = must compile
			wantVM  bool
		}{
			{backend: "", wantVM: inVM},
			{backend: "vm", wantVM: true},
			{backend: "interp"},
			{backend: "compiled", wantErr: "unknown backend"},
			{backend: "jit", wantErr: "unknown backend"},
		} {
			if tc.backend == "vm" && !inVM {
				tc.wantErr = "backend=vm requested"
			}
			vm0, interp0 := vmCount.Value(), interpCount.Value()
			ks, err := Compile(defineMsg(t, name, src, tc.backend))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s backend=%q: err = %v, want %q", name, tc.backend, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s backend=%q: %v", name, tc.backend, err)
				continue
			}
			if ks.Iter == nil {
				t.Errorf("%s backend=%q: no per-iteration kernel", name, tc.backend)
			}
			if got := ks.Block != nil; got != tc.wantVM {
				t.Errorf("%s backend=%q: batched Block kernel present = %v, want %v", name, tc.backend, got, tc.wantVM)
			}
			wantVM, wantInterp := int64(0), int64(1)
			if tc.wantVM {
				wantVM, wantInterp = 1, 0
			}
			if dv, di := vmCount.Value()-vm0, interpCount.Value()-interp0; dv != wantVM || di != wantInterp {
				t.Errorf("%s backend=%q: kernel.vm +%d, kernel.interp_fallback +%d; want +%d, +%d",
					name, tc.backend, dv, di, wantVM, wantInterp)
			}
		}
	}
}
