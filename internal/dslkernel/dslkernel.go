// Package dslkernel compiles DefineLoop messages — DSL loop source
// shipped by the driver over the wire — into executable runtime
// kernels. Installing it (Install) gives any executor process,
// including the generic cmd/orion-worker binary, the ability to run
// loops it has never seen before: the distributed analogue of Orion's
// macro defining generated loop-body functions in its workers.
package dslkernel

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
)

// Install makes Compile the process's default loop compiler, the one
// executors created afterwards run DefineLoop messages with. Idempotent.
func Install() {
	runtime.SetLoopCompiler(Compile)
}

// Compile builds a kernel set (and prefetch functions) from a
// DefineLoop message. Loop bodies run on the bytecode VM
// (lang/vm.Compile) whenever they fall inside the compiled subset;
// otherwise the tree-walking interpreter — the reference semantics —
// executes them. The loop decides; nothing pins the choice.
func Compile(def *runtime.Msg) (*runtime.KernelSet, error) {
	_, ks, err := compile(def)
	return ks, err
}

// interpretOnly makes compile decline the VM for every loop: the seam
// through which the VM ≡ interpreter differential tests run a loop
// inside the VM's subset on the interpreter. Nothing else sets it.
var interpretOnly atomic.Bool

func compile(def *runtime.Msg) (*loopKernel, *runtime.KernelSet, error) {
	tb := obs.NewBuf(0, "dslkernel")
	spanStart := tb.Begin()
	defer tb.EndN("kernel.compile", "dsl", spanStart, "src_bytes", int64(len(def.LoopSrc)))
	loop, err := lang.Parse(def.LoopSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("dslkernel: parsing shipped loop: %w", err)
	}
	if len(def.GlobalNames) != len(def.GlobalVals) {
		return nil, nil, fmt.Errorf("dslkernel: mismatched globals")
	}
	globals := make(map[string]float64, len(def.GlobalNames))
	for i, n := range def.GlobalNames {
		globals[n] = def.GlobalVals[i]
	}
	env := &lang.CompileEnv{
		Arrays:  def.ArrayDims,
		Buffers: def.Buffers,
		Globals: append(append([]string{}, def.GlobalNames...), def.AccumNames...),
	}

	var vp *vm.Prog // nil: interpret
	if !interpretOnly.Load() {
		vp, _ = vm.Compile(loop, env) // an error means outside the VM's subset
	}
	if vp != nil {
		obs.GetCounter("kernel.vm").Inc()
	} else {
		obs.GetCounter("kernel.interp_fallback").Inc()
	}

	h := fnv.New64a()
	h.Write([]byte(def.LoopName))
	lk := &loopKernel{name: def.LoopName, loop: loop, vp: vp, dims: def.ArrayDims,
		buffers: def.Buffers, globals: globals, accums: def.AccumNames, nameHash: int64(h.Sum64()),
		rng: rand.New(rand.NewSource(0))} // reseeded by every block
	// The VM runs whole blocks: one dispatch-loop entry and one partition
	// binding per block instead of per iteration. Accumulator deltas
	// still fold per iteration, so a block is bitwise identical to its
	// iterations run one at a time, as the interpreter runs them.
	ks := &runtime.KernelSet{Block: lk.runBlock, Prefetch: map[string]runtime.PrefetchFunc{}}
	if vp == nil {
		ks.Block = lk.runInterp
	}

	// The plan artifact shipped alongside the source carries the
	// synthesized prefetch spec (and the full parallelization decision,
	// for executors that want to inspect it) — no side-channel fields.
	if len(def.PlanBlob) > 0 {
		art, err := plan.Decode(def.PlanBlob)
		if err != nil {
			return nil, nil, fmt.Errorf("dslkernel: decoding shipped plan artifact: %w", err)
		}
		if pf := art.Prefetch; pf != nil && pf.Src != "" {
			sliced, err := lang.Parse(pf.Src)
			if err != nil {
				return nil, nil, fmt.Errorf("dslkernel: parsing shipped prefetch slice: %w", err)
			}
			for _, target := range pf.Arrays {
				ks.Prefetch[target] = prefetchFunc(sliced, pf.Arrays, target, env, globals)
			}
			ks.PrefetchID = prefetchID(pf, env, globals)
		}
	}
	return lk, ks, nil
}

// prefetchID spells out what the prefetch functions of a shipped slice
// compute from besides the sample: the slice source, the target arrays
// with the extents their offsets flatten against, and the name and
// value bits of every shipped global the source names. The slicer
// keeps DistArray reads and rand() out of a slice, so there is nothing
// else.
func prefetchID(pf *plan.Prefetch, env *lang.CompileEnv, globals map[string]float64) string {
	var b strings.Builder
	b.WriteString(pf.Src)
	for _, t := range pf.Arrays {
		fmt.Fprintf(&b, "\x00%s%v", t, env.Arrays[t])
	}
	toks, _ := lang.Lex(pf.Src) // it parsed
	var named []string
	for _, tok := range toks {
		if _, ok := globals[tok.Text]; ok && tok.Kind == lang.TokIdent {
			named = append(named, tok.Text)
		}
	}
	slices.Sort(named)
	for _, g := range slices.Compact(named) {
		fmt.Fprintf(&b, "\x00%s=%x", g, math.Float64bits(globals[g]))
	}
	return b.String()
}

// prefetchFunc builds the synthesized prefetch function of one served
// array, once per DefineLoop. The slice is an ordinary loop body whose
// __record(A[...]) statements mark the reads to report, so with each
// __record turned into the plain read and every target bound to a
// recorder, running an iteration leaves the offsets the real body would
// read of target in its recorder. It runs on one long-lived VM kernel
// when the slice is inside the compiled subset and on one interpreter
// machine otherwise. The returned slice is valid until the next call. A
// sample on which the slice faults prefetches nothing; its reads take
// the miss path (or fault again, in the body, with the reference
// message).
func prefetchFunc(sliced *lang.Loop, targets []string, target string, env *lang.CompileEnv, globals map[string]float64) runtime.PrefetchFunc {
	assigned := map[string]bool{}
	reads := &lang.Loop{KeyVar: sliced.KeyVar, ValVar: sliced.ValVar, IterVar: sliced.IterVar,
		Body: recordedReads(sliced.Body, assigned)}
	// A slice may assign a shipped global; every sample starts from the
	// shipped value.
	var dirtied []string
	for name := range globals {
		if assigned[name] {
			dirtied = append(dirtied, name)
		}
	}
	recs := make([]*recorder, len(targets))
	want := 0
	for i, t := range targets {
		recs[i] = &recorder{dims: env.Arrays[t]}
		if t == target {
			want = i
		}
	}
	var run func(key []int64, val float64) error
	var setGlobal func(name string, v float64)
	if prog, err := vm.Compile(reads, env); err == nil {
		k := prog.NewKernel()
		for i, t := range targets {
			if err := k.BindArray(t, recs[i]); err != nil {
				panic(fmt.Sprintf("dslkernel: %v", err))
			}
		}
		run, setGlobal = k.RunIteration, func(name string, v float64) { k.SetGlobal(name, v) }
	} else {
		m := lang.NewMachine()
		for i, t := range targets {
			m.Arrays[t] = recs[i]
		}
		run = func(key []int64, val float64) error { return m.RunIteration(reads, key, val) }
		setGlobal = func(name string, v float64) { m.Globals[name] = v }
	}
	for name, v := range globals {
		setGlobal(name, v)
	}
	return func(key []int64, val float64) []int64 {
		for _, rec := range recs {
			rec.offs, rec.fault = rec.offs[:0], false
		}
		for _, name := range dirtied {
			setGlobal(name, globals[name])
		}
		if err := run(key, val); err != nil {
			return nil
		}
		for _, rec := range recs {
			if rec.fault {
				return nil
			}
		}
		return recs[want].offs
	}
}

// recordedReads rewrites a prefetch slice's body so it compiles as an
// ordinary loop body — each __record(A[...]) becomes the bare read —
// and notes the variables it assigns.
func recordedReads(body []lang.Stmt, assigned map[string]bool) []lang.Stmt {
	out := make([]lang.Stmt, len(body))
	for i, st := range body {
		switch x := st.(type) {
		case *lang.Assign:
			if id, ok := x.Target.(*lang.Ident); ok {
				assigned[id.Name] = true
			}
		case *lang.If:
			st = &lang.If{Cond: x.Cond, Then: recordedReads(x.Then, assigned), Else: recordedReads(x.Else, assigned), At: x.At}
		case *lang.ForRange:
			st = &lang.ForRange{Var: x.Var, Lo: x.Lo, Hi: x.Hi, Body: recordedReads(x.Body, assigned), At: x.At}
		case *lang.ExprStmt:
			if call, ok := x.X.(*lang.Call); ok && call.Fn == "__record" && len(call.Args) == 1 {
				st = &lang.ExprStmt{X: call.Args[0], At: x.At}
			}
		}
		out[i] = st
	}
	return out
}

// recorder stands in for a served array while its prefetch slice runs:
// a read appends the element's flattened offset and yields 0. An
// out-of-bounds read has no offset and marks the sample faulted.
type recorder struct {
	dims  []int64
	offs  []int64
	fault bool
}

func (r *recorder) Dims() []int64 { return r.dims }
func (r *recorder) At(idx ...int64) float64 {
	for d, v := range idx {
		if v < 0 || v >= r.dims[d] {
			r.fault = true
			return 0
		}
	}
	r.offs = append(r.offs, flatten(r.dims, idx))
	return 0
}
func (r *recorder) SetAt(float64, ...int64) {
	panic("dslkernel: prefetch slice attempted an array write")
}

// loopKernel is one executor's instance of one shipped loop. It is
// invoked only from its executor's message loop, so a single machine
// suffices: enter builds it on first use — once the executor's
// partitions say which arrays are local and which are served — and
// reseeds its rand() source at the start of every block.
type loopKernel struct {
	name     string
	nameHash int64 // FNV-64a of name, the per-loop term of the block seed
	loop     *lang.Loop
	vp       *vm.Prog // nil: interpret
	dims     map[string][]int64
	buffers  map[string]string
	globals  map[string]float64
	accums   []string
	rng      *rand.Rand // the rand() source, reseeded in place per block
	vs       *vmState
	ms       *machineState
}

func (lk *loopKernel) enter(ctx *runtime.Ctx) {
	if lk.vs == nil && lk.ms == nil {
		if lk.vp != nil {
			lk.vs = newVMState(ctx, lk)
		} else {
			lk.ms = newMachineState(ctx, lk)
		}
	}
	// Seed the rand() builtin deterministically per (loop, executor,
	// block): sampling kernels (e.g. Gibbs) stay reproducible, both
	// backends draw the same sequence, and — because the seed is keyed
	// on the block's (pass, step) clock rather than on how many blocks
	// this process has executed — a run that recovers from a checkpoint
	// mid-loop draws exactly the sequence the fault-free run would have
	// drawn for the same block. Reseeding in place draws what a fresh
	// rand.NewSource(seed) would, without allocating one.
	seed := lk.nameHash ^ int64(ctx.ExecutorID()*7919)
	seed ^= int64(ctx.BlockPass())*1_000_003 + int64(ctx.BlockStep())*9176
	lk.rng.Seed(seed)
}

// runBlock executes a whole block in one VM entry, with the executor's
// partitions bound into the kernel as dense windows for exactly the
// duration of the call: rotation replaces a rotated partition after
// every block and recycles its storage, so no binding outlives the
// block it was made for, and an idle kernel pins no partition.
func (lk *loopKernel) runBlock(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
	lk.enter(ctx)
	vs := lk.vs
	defer vs.bind(nil)
	if err := vs.bind(ctx); err != nil {
		return 0, fmt.Errorf("dslkernel: %v", err)
	}
	done, err := vs.k.RunBlock(keys, vals, func(int) { vs.fold() })
	if err != nil {
		return done, fmt.Errorf("dslkernel: vm kernel: %v", err)
	}
	return done, nil
}

// runInterp executes a block on the interpreter, one iteration at a
// time; partitions are asked for per access (partView).
func (lk *loopKernel) runInterp(ctx *runtime.Ctx, keys [][]int64, vals []float64) (int, error) {
	lk.enter(ctx)
	for i, key := range keys {
		if err := lk.ms.run(key, vals[i]); err != nil {
			return i, err
		}
	}
	return len(keys), nil
}

// vmState is one executor's bytecode-VM kernel instance for one loop:
// the register-file machine with partition/served views bound into its
// array slots, plus, per accumulator, its global slot, the executor's
// instance (runtime.Ctx.Accum) and the shadow the next delta is taken
// against.
type vmState struct {
	k       *vm.Kernel
	parts   []*partView // re-bound around every block
	slots   []int
	accs    []*float64
	lastAcc []float64
}

func newVMState(ctx *runtime.Ctx, lk *loopKernel) *vmState {
	vs := &vmState{k: lk.vp.NewKernel()}
	for name, view := range arrayViews(ctx, lk) {
		if pv, ok := view.(*partView); ok {
			vs.parts = append(vs.parts, pv)
		}
		if err := vs.k.BindArray(name, view); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	for bname, target := range lk.buffers {
		if err := vs.k.BindBuffer(bname, &servedView{s: ctx.Served(target), dims: lk.dims[target]}); err != nil {
			panic(fmt.Sprintf("dslkernel: %v", err))
		}
	}
	vs.k.SetRng(lk.rng)
	for n, v := range lk.globals {
		vs.k.SetGlobal(n, v)
	}
	for _, a := range lk.accums {
		if _, ok := lk.globals[a]; !ok {
			vs.k.SetGlobal(a, 0)
		}
		slot := vs.k.GlobalSlot(a)
		vs.slots = append(vs.slots, slot)
		vs.accs = append(vs.accs, ctx.Accum(a))
		vs.lastAcc = append(vs.lastAcc, vs.k.GlobalAt(slot))
	}
	return vs
}

// bind points every partition view at the executor's current partition
// and re-binds it, so the kernel's dense windows are this block's
// storage; bind(nil) drops them all.
func (vs *vmState) bind(ctx *runtime.Ctx) error {
	for _, pv := range vs.parts {
		pv.p = nil
		if ctx != nil {
			pv.p = ctx.PartitionOf(pv.name)
		}
		if err := vs.k.BindArray(pv.name, pv); err != nil {
			return err
		}
	}
	return nil
}

// fold adds each accumulator's delta since the last fold to the
// executor's instance.
func (vs *vmState) fold() {
	for i, acc := range vs.accs {
		cur := vs.k.GlobalAt(vs.slots[i])
		if d := cur - vs.lastAcc[i]; d != 0 {
			*acc += d
			vs.lastAcc[i] = cur
		}
	}
}

// machineState is one executor's interpreter instance for one loop;
// accs and lastAcc are by lk.accums index, as in vmState.
type machineState struct {
	m       *lang.Machine
	loop    *lang.Loop
	accums  []string
	accs    []*float64
	lastAcc []float64
}

func newMachineState(ctx *runtime.Ctx, lk *loopKernel) *machineState {
	m := lang.NewMachine()
	m.Arrays = arrayViews(ctx, lk)
	m.Rng = lk.rng
	for bname, target := range lk.buffers {
		m.Buffers[bname] = &servedView{s: ctx.Served(target), dims: lk.dims[target]}
	}
	for k, v := range lk.globals {
		m.Globals[k] = v
	}
	ms := &machineState{m: m, loop: lk.loop, accums: lk.accums}
	for _, a := range lk.accums {
		if _, ok := m.Globals[a]; !ok {
			m.Globals[a] = float64(0)
		}
		ms.accs = append(ms.accs, ctx.Accum(a))
		ms.lastAcc = append(ms.lastAcc, asFloat(m.Globals[a]))
	}
	return ms
}

func (ms *machineState) run(key []int64, val float64) error {
	if err := ms.m.RunIteration(ms.loop, key, val); err != nil {
		return fmt.Errorf("dslkernel: interpreted kernel: %v", err)
	}
	for i, a := range ms.accums {
		cur := asFloat(ms.m.Globals[a])
		if d := cur - ms.lastAcc[i]; d != 0 {
			*ms.accs[i] += d
			ms.lastAcc[i] = cur
		}
	}
	return nil
}

func asFloat(v lang.Value) float64 {
	f, _ := v.(float64)
	return f
}

// arrayViews adapts every declared array to this executor's partition
// of it, or to served reads when it holds none. The iteration space
// stays unbound on both backends: body reads of it fault as unknown.
func arrayViews(ctx *runtime.Ctx, lk *loopKernel) map[string]lang.ArrayAccess {
	views := make(map[string]lang.ArrayAccess, len(lk.dims))
	for name, d := range lk.dims {
		if name == lk.loop.IterVar {
			continue
		}
		if ctx.HasPartition(name) {
			views[name] = &partView{ctx: ctx, name: name, dims: d}
		} else {
			views[name] = &servedView{s: ctx.Served(name), dims: d}
		}
	}
	return views
}

// partView adapts an executor's (possibly rotated) partition to the
// loop backends, with global coordinates. The VM binds it as a
// lang.DenseWindow: vmState.bind sets p for the duration of a block, so
// in-window accesses of a dense partition are flat-offset loads and
// stores on its storage, and At/SetAt serve sparse partitions and
// report out-of-window coordinates. The interpreter never sets p and
// asks the executor per access instead — a view must not carry a
// partition across blocks, because rotation replaces it between them.
type partView struct {
	ctx  *runtime.Ctx
	name string
	dims []int64
	p    *dsm.Partition
}

func (v *partView) part() *dsm.Partition {
	if v.p != nil {
		return v.p
	}
	return v.ctx.PartitionOf(v.name)
}

func (v *partView) Dims() []int64                   { return v.dims }
func (v *partView) At(idx ...int64) float64         { return v.part().At(idx...) }
func (v *partView) SetAt(val float64, idx ...int64) { v.part().SetAt(val, idx...) }
func (v *partView) Window() (int, int64, int64)     { return v.p.Dim, v.p.Lo, v.p.Hi }
func (v *partView) DenseData() ([]float64, []int64) {
	if v.p == nil {
		return nil, nil
	}
	return v.p.Local.DenseData()
}

// servedView adapts a parameter-server array: reads, the buffered
// deltas of a DistArray Buffer over it (the only writes dependence
// analysis lets a driver loop make to a served array), and, for the VM,
// whole-column reads (lang.RunAccess).
type servedView struct {
	s    *runtime.ServedArray
	dims []int64
}

func (s *servedView) Dims() []int64 { return s.dims }
func (s *servedView) At(idx ...int64) float64 {
	return s.s.Read(flatten(s.dims, idx))
}
func (s *servedView) SetAt(v float64, idx ...int64) {
	// The driver places no array a loop writes directly as served: an
	// ordered loop hands its time-indexed arrays down the wavefront. A
	// caller of the raw runtime that serves one anyway under the ordered
	// schedule has this worker as its sole writer: the write ships as an
	// absolute last-write-wins update.
	s.s.Set(flatten(s.dims, idx), v)
}

// ReadRun serves a run along the first dimension — the one flatten makes
// contiguous — that lies inside the array and that the block prefetched
// whole.
func (s *servedView) ReadRun(out []float64, dim int, idx []int64) bool {
	return s.inBounds(dim, idx, len(out)) && s.s.ReadRun(flatten(s.dims, idx), out)
}
func (s *servedView) inBounds(dim int, idx []int64, n int) bool {
	if dim != 0 || idx[0]+int64(n) > s.dims[0] {
		return false
	}
	for d, v := range idx {
		if v < 0 || v >= s.dims[d] {
			return false
		}
	}
	return true
}
func (s *servedView) Put(update float64, idx ...int64) bool {
	s.s.Update(flatten(s.dims, idx), update)
	return false
}

func flatten(dims, idx []int64) int64 {
	var off, stride int64 = 0, 1
	for i := range dims {
		off += idx[i] * stride
		stride *= dims[i]
	}
	return off
}
