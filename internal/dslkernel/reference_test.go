package dslkernel

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"orion/internal/lang"
	"orion/internal/runtime"
)

// referenceCompile is the tests' reference runtime.LoopCompiler: it runs
// every block on the tree-walking interpreter, lang.Machine — the DSL's
// reference semantics — one iteration at a time. It reads partitions
// through the executor on every access (refPartView), serves the other
// arrays and the buffers as Compile does, folds accumulator deltas after
// every iteration and reseeds rand() per block with Compile's seed, so a
// fleet running it must leave every array bitwise where a fleet running
// Compile leaves it. It ships no prefetch functions: served reads take
// the miss path, which reads the same epoch.
func referenceCompile(def *runtime.Msg) (*runtime.KernelSet, error) {
	loop, err := lang.Parse(def.LoopSrc)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(def.LoopName))
	rng := rand.New(rand.NewSource(0))
	var m *lang.Machine
	var accs []*float64
	var last []float64
	block := func(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
		if m == nil {
			m = lang.NewMachine()
			m.Rng = rng
			for name, d := range def.ArrayDims {
				switch {
				case name == loop.IterVar:
				case ctx.HasPartition(name):
					m.Arrays[name] = &refPartView{ctx: ctx, name: name, dims: d}
				default:
					m.Arrays[name] = &servedView{s: ctx.Served(name), dims: d}
				}
			}
			for b, target := range def.Buffers {
				m.Buffers[b] = &servedView{s: ctx.Served(target), dims: def.ArrayDims[target]}
			}
			for i, n := range def.GlobalNames {
				m.Globals[n] = def.GlobalVals[i]
			}
			for _, a := range def.AccumNames {
				if _, ok := m.Globals[a]; !ok {
					m.Globals[a] = 0.0
				}
				accs = append(accs, ctx.Accum(a))
				last = append(last, m.Globals[a].(float64))
			}
		}
		seed := int64(h.Sum64()) ^ int64(ctx.ExecutorID()*7919)
		rng.Seed(seed ^ (int64(ctx.BlockPass())*1_000_003 + int64(ctx.BlockStep())*9176))
		for i, key := range keys {
			if err := m.RunIteration(loop, key, vals[i]); err != nil {
				return i, fmt.Errorf("reference kernel: %v", err)
			}
			for j, a := range def.AccumNames {
				cur := m.Globals[a].(float64)
				if d := cur - last[j]; d != 0 {
					*accs[j] += d
					last[j] = cur
				}
			}
		}
		return len(keys), nil
	}
	return &runtime.KernelSet{Block: block}, nil
}

// refPartView reads and writes an executor's partition through the
// executor on every access, so it never holds a partition rotation has
// replaced.
type refPartView struct {
	ctx  *runtime.Ctx
	name string
	dims []int64
}

func (v *refPartView) Dims() []int64                   { return v.dims }
func (v *refPartView) At(idx ...int64) float64         { return v.ctx.PartitionOf(v.name).At(idx...) }
func (v *refPartView) SetAt(val float64, idx ...int64) { v.ctx.PartitionOf(v.name).SetAt(val, idx...) }
