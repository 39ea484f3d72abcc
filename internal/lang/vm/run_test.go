package vm

import (
	"fmt"
	"testing"

	"orion/internal/dsm"
	"orion/internal/lang"
)

// runView is a view with no dense storage that reads whole runs
// (lang.RunAccess), the way a served array does: a run is served only
// when every element of it is inside the array and none is a hole —
// the stand-in for an offset the block did not prefetch — and a refused
// run touches nothing.
type runView struct {
	a               *dsm.DistArray
	holes           map[int64]bool
	served, refused int
}

func (v *runView) Dims() []int64                 { return v.a.Dims() }
func (v *runView) At(idx ...int64) float64       { return v.a.At(idx...) }
func (v *runView) SetAt(x float64, idx ...int64) { v.a.SetAt(x, idx...) }

// run visits the n elements of a run, or none of them.
func (v *runView) run(n, dim int, idx []int64, visit func(i int, at []int64)) bool {
	at := append([]int64(nil), idx...)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			at[dim] = idx[dim] + int64(i)
			for d, c := range at {
				if c < 0 || c >= v.a.Dims()[d] {
					v.refused++
					return false
				}
			}
			if v.holes[v.a.Flatten(at...)] {
				v.refused++
				return false
			}
			if pass == 1 {
				visit(i, at)
			}
		}
	}
	v.served++
	return true
}

func (v *runView) ReadRun(out []float64, dim int, idx []int64) bool {
	return v.run(len(out), dim, idx, func(i int, at []int64) { out[i] = v.a.At(at...) })
}

// TestRunAccessEqualsPerElement: a kernel whose arrays take whole runs
// computes bitwise what it computes through At/SetAt alone and what the
// interpreter — which never asks for a run — computes: over row views,
// range loads, range stores and compound range updates along either
// dimension, with runs that are served, runs that straddle a hole and
// fall back element by element, and runs that leave the array, which
// fault with the reference text at the reference point.
func TestRunAccessEqualsPerElement(t *testing.T) {
	for _, wp := range windowProgs[:3] { // rows, points, ranges
		loop, err := lang.Parse(wp.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(loop, &lang.CompileEnv{Arrays: wp.arrays, Globals: []string{"step_size", "s"}})
		if err != nil {
			t.Fatalf("%s: %v", wp.name, err)
		}
		var views []*runView
		// bind runs keys on a fresh kernel over fresh arrays seen through
		// wrap.
		vmRun := func(wrap func(*dsm.DistArray) lang.ArrayAccess, keys [][]int64, vals []float64) windowRun {
			arrays := buildArrays(&lang.Env{Arrays: wp.arrays}, fillFloats, 7)
			k := prog.NewKernel()
			for name, a := range arrays {
				if name != loop.IterVar {
					if err := k.BindArray(name, wrap(a)); err != nil {
						t.Fatal(err)
					}
				}
			}
			k.SetGlobal("step_size", 0.05)
			k.SetGlobal("s", 0)
			res := windowRun{arrays: arrays}
			func() {
				defer func() {
					if r := recover(); r != nil {
						res.panicked = fmt.Sprint(r)
					}
				}()
				done, err := k.RunBlock(keys, vals, func(i int) { res.done = i + 1 })
				if err != nil {
					res.err = err.Error()
				}
				res.done = done
			}()
			res.s, _ = k.Global("s")
			return res
		}
		interpRun := func(keys [][]int64, vals []float64) windowRun {
			arrays := buildArrays(&lang.Env{Arrays: wp.arrays}, fillFloats, 7)
			m := lang.NewMachine()
			for name, a := range arrays {
				if name != loop.IterVar {
					m.Arrays[name] = a
				}
			}
			m.Globals["step_size"], m.Globals["s"] = 0.05, float64(0)
			res := windowRun{arrays: arrays}
			func() {
				defer func() {
					if r := recover(); r != nil {
						res.panicked = fmt.Sprint(r)
					}
				}()
				for i, key := range keys {
					if err := m.RunIteration(loop, key, vals[i]); err != nil {
						res.err = err.Error()
						return
					}
					res.done = i + 1
				}
			}()
			res.s = m.Globals["s"].(float64)
			return res
		}
		viaAt := func(a *dsm.DistArray) lang.ArrayAccess { return atView{a} }
		viaRuns := func(a *dsm.DistArray) lang.ArrayAccess {
			v := &runView{a: a, holes: map[int64]bool{}}
			for off := int64(5); off < int64(a.Len()); off += 11 {
				v.holes[off] = true
			}
			views = append(views, v)
			return v
		}

		iter := buildArrays(&lang.Env{Arrays: wp.arrays}, fillFloats, 7)[loop.IterVar]
		keys, vals := collectKeys(iter, false)
		want := vmRun(viaAt, keys, vals)
		if want.err != "" || want.panicked != "" || want.done != len(keys) {
			t.Fatalf("%s: the At run stopped after %d of %d: %s%s", wp.name, want.done, len(keys), want.err, want.panicked)
		}
		sameWindowRun(t, wp.name+": runs", vmRun(viaRuns, keys, vals), want)
		sameWindowRun(t, wp.name+": interpreter", interpRun(keys, vals), want)
		served, refused := 0, 0
		for _, v := range views {
			served, refused = served+v.served, refused+v.refused
		}
		if wp.name != "points" && (served == 0 || refused == 0) {
			t.Errorf("%s: %d runs served, %d refused; the program should exercise both", wp.name, served, refused)
		}

		for _, bad := range wp.faults {
			if bad[0] >= 0 && bad[0] < wp.arrays[loop.IterVar][0] && bad[1] >= 0 && bad[1] < wp.arrays[loop.IterVar][1] {
				continue // outside a window only: no fault on whole arrays
			}
			fk := append(append([][]int64{}, keys[:3]...), bad)
			fv := make([]float64, len(fk))
			got := vmRun(viaRuns, fk, fv)
			if got.panicked == "" {
				t.Fatalf("%s: iteration %v did not leave the array", wp.name, bad)
			}
			sameWindowRun(t, fmt.Sprintf("%s: fault at %v", wp.name, bad), got, vmRun(viaAt, fk, fv))
			sameWindowRun(t, fmt.Sprintf("%s: fault at %v, interpreter", wp.name, bad), interpRun(fk, fv), got)
		}
	}
}
