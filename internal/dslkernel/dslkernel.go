// Package dslkernel compiles DefineLoop messages — DSL loop source
// shipped by the driver over the wire — into executable runtime
// kernels. Installing it (Install) gives any executor process,
// including the generic cmd/orion-worker binary, the ability to run
// loops it has never seen before: the distributed analogue of Orion's
// macro defining generated loop-body functions in its workers.
package dslkernel

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
)

// Install registers the DSL loop compiler with the runtime. Idempotent.
func Install() {
	runtime.SetLoopCompiler(Compile)
}

// Compile builds a kernel set (and prefetch functions) from a
// DefineLoop message. Loop bodies run on the bytecode VM
// (lang/vm.Compile) whenever they fall inside the compiled subset;
// otherwise the tree-walking interpreter — the reference semantics —
// executes them. def.Backend pins the choice: "vm" makes fallback an
// error, "interp" forces interpretation (e.g. for CLI bisection), and
// "" walks the vm→interp lattice.
func Compile(def *runtime.Msg) (*runtime.KernelSet, error) {
	tb := obs.NewBuf(0, "dslkernel")
	spanStart := tb.Begin()
	defer tb.EndN("kernel.compile", "dsl", spanStart, "src_bytes", int64(len(def.LoopSrc)))
	loop, err := lang.Parse(def.LoopSrc)
	if err != nil {
		return nil, fmt.Errorf("dslkernel: parsing shipped loop: %w", err)
	}
	if len(def.GlobalNames) != len(def.GlobalVals) {
		return nil, fmt.Errorf("dslkernel: mismatched globals")
	}
	globals := make(map[string]float64, len(def.GlobalNames))
	for i, n := range def.GlobalNames {
		globals[n] = def.GlobalVals[i]
	}

	var vp *vm.Prog
	switch def.Backend {
	case "", "vm":
		globalNames := append([]string{}, def.GlobalNames...)
		globalNames = append(globalNames, def.AccumNames...)
		vp, err = vm.Compile(loop, &lang.CompileEnv{
			Arrays:  def.ArrayDims,
			Buffers: def.Buffers,
			Globals: globalNames,
		})
		if err != nil {
			var nce *lang.NotCompilableError
			if !errors.As(err, &nce) {
				return nil, fmt.Errorf("dslkernel: compiling shipped loop: %w", err)
			}
			if def.Backend == "vm" {
				return nil, fmt.Errorf("dslkernel: backend=vm requested: %w", err)
			}
			vp = nil // outside the VM subset: interpret
		}
	case "interp":
	default:
		return nil, fmt.Errorf("dslkernel: unknown backend %q", def.Backend)
	}
	if vp != nil {
		obs.GetCounter("kernel.vm").Inc()
	} else {
		obs.GetCounter("kernel.interp_fallback").Inc()
	}

	loopName := def.LoopName
	// Seed the rand() builtin deterministically per (loop, executor,
	// block): sampling kernels (e.g. Gibbs) stay reproducible, both
	// backends draw the same sequence, and — because the seed is keyed
	// on the block's (pass, step) clock rather than on how many blocks
	// this process has executed — a run that recovers from a checkpoint
	// mid-loop draws exactly the sequence the fault-free run would have
	// drawn for the same block.
	seedRng := func(ctx *runtime.Ctx) *rand.Rand {
		h := fnv.New64a()
		h.Write([]byte(loopName))
		seed := int64(h.Sum64()) ^ int64(ctx.ExecutorID()*7919)
		seed ^= int64(ctx.BlockPass())*1_000_003 + int64(ctx.BlockStep())*9176
		return rand.New(rand.NewSource(seed))
	}
	// The kernel is invoked only from its executor's message loop, so a
	// single machine per kernel instance suffices: enter builds it on
	// first use and reseeds it whenever a new block starts.
	var ms *machineState
	var vs *vmState
	lastEpoch := int64(-1)
	enter := func(ctx *runtime.Ctx) {
		if vs == nil && ms == nil {
			if vp != nil {
				vs = newVMState(ctx, vp, loop, def.ArrayDims, def.Buffers, globals, def.AccumNames)
			} else {
				ms = newMachineState(ctx, loop, def.ArrayDims, def.Buffers, globals, def.AccumNames)
			}
		}
		if ctx.BlockEpoch() == lastEpoch {
			return
		}
		lastEpoch = ctx.BlockEpoch()
		if vs != nil {
			vs.k.SetRng(seedRng(ctx))
		} else {
			ms.m.Rng = seedRng(ctx)
		}
	}
	ks := &runtime.KernelSet{Prefetch: map[string]runtime.PrefetchFunc{}}
	if vp != nil {
		ks.Iter = func(ctx *runtime.Ctx, key []int64, val float64) {
			enter(ctx)
			vs.run(ctx, key, val)
		}
		// The VM additionally exposes the batched block form: one
		// dispatch-loop entry and one panic recovery per block instead
		// of per iteration. Accumulator deltas still fold per iteration
		// (via the per-iteration callback), so the block path is bitwise
		// identical to the one-at-a-time path.
		ks.Block = func(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
			enter(ctx)
			return vs.runBlock(ctx, keys, vals)
		}
	} else {
		ks.Iter = func(ctx *runtime.Ctx, key []int64, val float64) {
			enter(ctx)
			ms.run(ctx, key, val)
		}
	}

	// The plan artifact shipped alongside the source carries the
	// synthesized prefetch spec (and the full parallelization decision,
	// for executors that want to inspect it) — no side-channel fields.
	var pf *plan.Prefetch
	if len(def.PlanBlob) > 0 {
		art, err := plan.Decode(def.PlanBlob)
		if err != nil {
			return nil, fmt.Errorf("dslkernel: decoding shipped plan artifact: %w", err)
		}
		pf = art.Prefetch
	}
	if pf != nil && pf.Src != "" && len(pf.Arrays) > 0 {
		sliced, err := lang.Parse(pf.Src)
		if err != nil {
			return nil, fmt.Errorf("dslkernel: parsing shipped prefetch slice: %w", err)
		}
		for _, target := range pf.Arrays {
			target := target
			ks.Prefetch[target] = func(key []int64, val float64) []int64 {
				m := lang.NewMachine()
				for name, d := range def.ArrayDims {
					m.Arrays[name] = dimsOnly(d)
				}
				for k, v := range globals {
					m.Globals[k] = v
				}
				m.Recorder = lang.NewRecorder(target)
				if err := m.RunIteration(sliced, key, val); err != nil {
					return nil
				}
				return m.Recorder.Indices[target]
			}
		}
	}
	return ks, nil
}

// vmState is one executor's bytecode-VM kernel instance for one loop:
// the register-file machine with partition/served views bound into its
// array slots, plus accumulator shadows for diffing.
type vmState struct {
	k       *vm.Kernel
	accums  []string
	slots   []int
	lastAcc []float64
}

func newVMState(ctx *runtime.Ctx, vp *vm.Prog, loop *lang.Loop,
	dims map[string][]int64, buffers map[string]string,
	globals map[string]float64, accums []string) *vmState {
	k := vp.NewKernel()
	for name, view := range arrayViews(ctx, loop, dims) {
		if err := k.BindArray(name, view); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	for bname, target := range buffers {
		if err := k.BindBuffer(bname, &ctxBuffer{ctx: ctx, target: target, dims: dims[target]}); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	for n, v := range globals {
		k.SetGlobal(n, v)
	}
	vs := &vmState{k: k, accums: accums}
	for _, a := range accums {
		if _, ok := globals[a]; !ok {
			k.SetGlobal(a, 0)
		}
		slot := k.GlobalSlot(a)
		vs.slots = append(vs.slots, slot)
		vs.lastAcc = append(vs.lastAcc, k.GlobalAt(slot))
	}
	return vs
}

func (vs *vmState) run(ctx *runtime.Ctx, key []int64, val float64) {
	if err := vs.k.RunIteration(key, val); err != nil {
		panic(fmt.Sprintf("dslkernel: vm kernel: %v", err))
	}
	vs.fold(ctx)
}

// runBlock executes a whole block in one VM entry. The per-iteration
// callback folds accumulator deltas exactly as the one-at-a-time path
// does, so both paths produce bit-identical accumulator streams.
func (vs *vmState) runBlock(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
	done, err := vs.k.RunBlock(keys, vals, func(int) { vs.fold(ctx) })
	if err != nil {
		return done, fmt.Errorf("dslkernel: vm kernel: %v", err)
	}
	return done, nil
}

func (vs *vmState) fold(ctx *runtime.Ctx) {
	for i, a := range vs.accums {
		cur := vs.k.GlobalAt(vs.slots[i])
		if d := cur - vs.lastAcc[i]; d != 0 {
			ctx.AccumAdd(a, d)
			vs.lastAcc[i] = cur
		}
	}
}

// machineState is one executor's interpreter instance for one loop.
type machineState struct {
	m       *lang.Machine
	loop    *lang.Loop
	accums  []string
	lastAcc map[string]float64
}

func newMachineState(ctx *runtime.Ctx, loop *lang.Loop, dims map[string][]int64,
	buffers map[string]string, globals map[string]float64, accums []string) *machineState {
	m := lang.NewMachine()
	m.Arrays = arrayViews(ctx, loop, dims)
	for bname, target := range buffers {
		m.Buffers[bname] = &ctxBuffer{ctx: ctx, target: target, dims: dims[target]}
	}
	for k, v := range globals {
		m.Globals[k] = v
	}
	ms := &machineState{m: m, loop: loop, accums: accums, lastAcc: map[string]float64{}}
	for _, a := range accums {
		if _, ok := m.Globals[a]; !ok {
			m.Globals[a] = float64(0)
		}
		ms.lastAcc[a] = asFloat(m.Globals[a])
	}
	return ms
}

func (ms *machineState) run(ctx *runtime.Ctx, key []int64, val float64) {
	if err := ms.m.RunIteration(ms.loop, key, val); err != nil {
		panic(fmt.Sprintf("dslkernel: interpreted kernel: %v", err))
	}
	for _, a := range ms.accums {
		cur := asFloat(ms.m.Globals[a])
		if d := cur - ms.lastAcc[a]; d != 0 {
			ctx.AccumAdd(a, d)
			ms.lastAcc[a] = cur
		}
	}
}

func asFloat(v lang.Value) float64 {
	f, _ := v.(float64)
	return f
}

// arrayViews adapts every declared array to this executor's partition
// of it, or to served reads when it holds none. The iteration space
// stays unbound on both backends: body reads of it fault as unknown.
func arrayViews(ctx *runtime.Ctx, loop *lang.Loop, dims map[string][]int64) map[string]lang.ArrayAccess {
	views := make(map[string]lang.ArrayAccess, len(dims))
	for name, d := range dims {
		if name == loop.IterVar {
			continue
		}
		if ctx.HasPartition(name) {
			views[name] = &partView{ctx: ctx, name: name, dims: d}
		} else {
			views[name] = &servedView{ctx: ctx, name: name, dims: d}
		}
	}
	return views
}

// partView adapts an executor's (possibly rotated) partition to the
// interpreter's ArrayAccess, with global coordinates. The partition is
// looked up per access because rotation replaces it between blocks.
type partView struct {
	ctx  *runtime.Ctx
	name string
	dims []int64
}

func (p *partView) Dims() []int64 { return p.dims }
func (p *partView) At(idx ...int64) float64 {
	return p.ctx.PartitionOf(p.name).At(idx...)
}
func (p *partView) SetAt(v float64, idx ...int64) {
	p.ctx.PartitionOf(p.name).SetAt(v, idx...)
}

// servedView adapts parameter-server reads; writes must go through a
// DistArray Buffer (dependence analysis would have rejected the loop
// otherwise).
type servedView struct {
	ctx  *runtime.Ctx
	name string
	dims []int64
}

func (s *servedView) Dims() []int64 { return s.dims }
func (s *servedView) At(idx ...int64) float64 {
	return s.ctx.ServedRead(s.name, flatten(s.dims, idx))
}
func (s *servedView) SetAt(v float64, idx ...int64) {
	// Direct writes to a served array are legal only when the plan
	// guarantees this worker is the sole writer (ordered wavefront
	// execution); they ship as absolute last-write-wins updates.
	s.ctx.ServedSet(s.name, flatten(s.dims, idx), v)
}

// ctxBuffer adapts DistArray Buffer writes to served-array update
// batches.
type ctxBuffer struct {
	ctx    *runtime.Ctx
	target string
	dims   []int64
}

func (b *ctxBuffer) Put(update float64, idx ...int64) bool {
	b.ctx.ServedUpdate(b.target, flatten(b.dims, idx), update)
	return false
}

// dimsOnly is an ArrayAccess exposing only extents — used by the
// prefetch recorder, whose sliced program never actually reads.
type dimsOnly []int64

func (d dimsOnly) Dims() []int64 { return d }
func (d dimsOnly) At(...int64) float64 {
	panic("dslkernel: prefetch slice attempted a real array read")
}
func (d dimsOnly) SetAt(float64, ...int64) {
	panic("dslkernel: prefetch slice attempted an array write")
}

func flatten(dims, idx []int64) int64 {
	var off, stride int64 = 0, 1
	for i := range dims {
		off += idx[i] * stride
		stride *= dims[i]
	}
	return off
}
