// Package vm is the register-bytecode backend loop bodies run on: the
// slot-resolved AST (lang.ResolveLoop) is lowered to a compact
// instruction stream executed by a switch dispatcher over flat register
// files. The tree-walking interpreter is the reference semantics: the
// same compiled subset as the closure compiler, the same runtime-error
// messages, bitwise-identical results. Every point and range access site
// resolves, when its array binds, through a runtime mirror (rtAcc) of
// the bound dense storage or window, so an in-window access is one
// inlined offset computation and anything else takes the view's
// reference accessors. Lowering emits every check plainly; then
// optimize runs one forward analysis of what holds on every path (locals
// defined, globals, arrays and buffers checked, key literals loaded,
// scalars available) across the body's basic blocks, and its clients
// elide the checks it proves, share repeated scalars, fold presence
// checks into their accesses' miss paths, fuse a single-use c*v
// temporary and the range store consuming it into one AxpyRow, and let a
// column local borrow its array's storage where no read could tell.
// RunBlock executes a run of consecutive iterations without re-entering
// the dispatch preamble per element.
//
// Differential tests in this package hold all three backends to
// bitwise-identical DistArray, accumulator, and error results.
package vm

import (
	"fmt"
	"math"

	"orion/internal/lang"
)

type opcode uint16

// One instruction: an opcode plus up to five register/table operands.
// Register operands index the per-kind register files (fr/vr/br/ir);
// table operands index Prog side tables (names, infos, accs, baccs,
// axpys, pend, lanes) or hold jump targets. A literal is a register: a
// pin NewKernel fills and no instruction writes.
type instr struct {
	op            opcode
	a, b, c, d, e int32
}

const (
	opHalt opcode = iota

	// Scalar ops: operands are fr registers unless noted.
	opMovF   // fr[a] = fr[b]
	opChkF   // fault unless flDef[a]; names[b]
	opDefF   // flDef[a] = true
	opLoadG  // fr[a] = gl[b], fault unless glDef[b]; names[c]
	opStoreG // gl[a] = fr[b]; glDef[a] = true
	opCompG  // gl[a] = arith(c, gl[a], fr[b]), fault unless glDef[a]; infos[d]
	opCompF  // fl local compound, same layout as opCompG
	opAddF   // fr[a] = fr[b] + fr[c]
	opSubF
	opMulF
	opDivF
	opPowF
	opNegF // fr[a] = -fr[b]
	opAbsF // fr[a] = fn(fr[b]), one opcode per builtin
	opAbs2F
	opSqrtF
	opExpF
	opLogF
	opFloorF
	opCeilF
	opSigmoidF
	opMinF // fr[a] = min(fr[b], fr[c]) with the closure backend's NaN order
	opMaxF
	opRandF // fr[a] = rng.Float64()
	opKeyF  // fr[a] = float64(key[int64(fr[b])-1] + 1)
	opLenF  // fr[a] = float64(len(vr[b]))
	opDotF  // fr[a] = dot(vr[b], vr[c])  (DotRows)

	// Fused scalar superinstructions. The lowering emits these for the
	// hot key/global/load operand shapes of scalar-heavy inner loops (one
	// dispatch instead of two), and optimize drops the checks it proves
	// (LoadG becomes LoadGU); each is bitwise-identical to the unfused
	// pair it replaces, including fault order and messages.
	opKeyC       // fr[a] = float64(key[b-1] + 1), literal 1-based subscript b; c > 0 runs pend[c-1] before its fault
	opLoadGU     // fr[a] = gl[b], definedness proven on every path (optimize)
	opArithFG    // fr[a] = arith(d, fr[b], gl[c]); e >= 0 checks glDef[c] (names[e])
	opArithGF    // fr[a] = arith(d, gl[c], fr[b]); e >= 0 checks glDef[c] (names[e])
	opVElemArith // fr[a] = arith(d, fr[b], vr[c][int64(fr[e])-1]) with bounds fault
	opLdPtMin    // fr[a] = min(point load accs[b], fr[c])
	opLdPtMax    // fr[a] = max(point load accs[b], fr[c])

	// Boolean ops: a is a br register.
	opConstB // br[a] = (b != 0)
	opMovB   // br[a] = br[b]
	opChkB   // fault unless boDef[a]; names[b]
	opDefB   // boDef[a] = true
	opEqB    // br[a] = fr[b] == fr[c]
	opNeB
	opLtB
	opLeB
	opGtB
	opGeB

	// Vector ops: a is a vr register unless noted.
	opChkV     // fault unless vecDef[a]; names[b]
	opChkVElem // fault unless vecDef[a]; names[b], c selects the read/write message
	opDefV     // vecDef[a] = true
	opVElemLd  // fr[a] = vr[b][int64(fr[c])-1] with 1-based bounds fault
	opVElemSt  // vr[a][int64(fr[b])-1] op(d)= fr[c]; d < 0 is plain store
	opVCompS   // vec local a op(c)= scalar fr[b], scratch d, infos[e]
	opVCompV   // vec local a op(c)= vr[b], scratch d, infos[e]
	opVBinVV   // vr[a] = vr[b] op(d) vr[c], scratch e
	opVBinVS   // vr[a] = vr[b] op(d) fr[c], scratch e
	opVBinSV   // vr[a] = fr[b] op(d) vr[c], scratch e
	opVNegV    // vr[a] = -vr[b], scratch c
	opZerosV   // vr[a] = zeros(fr[b]), scratch c
	opAxpyRow  // vr[a] (or range site acc) = vr[b] ± fr[c]*vr[w], w scaled by fr[c'] if fused; axpys[d]

	// Array and buffer ops.
	opArrChk   // fault unless arrays[a] != nil; names[b], c selects read/write
	opLdPtF    // fr[a] = point load through accs[b]  (SubscriptLoadF)
	opStPtF    // point store accs[a] <- fr[b], arith c (< 0 plain)  (SubscriptStoreF)
	opRowViewV // vr[a] = zero-copy consume borrow of accs[b]
	opRowMatV  // vr[a] = materialized range read of accs[b]
	opRowStV   // range store accs[a] <- vr[b]
	opRowUpdS  // range compound accs[a] <- scalar fr[b] (arith in access)
	opRowUpdV  // range compound accs[a] <- vr[b]
	opBufChk   // fault unless buffers[a] != nil; names[b]
	opBufPut   // baccs[a].Put(fr[b])

	// Control flow: absolute pc targets.
	opJmp       // pc = a
	opJmpIfNot  // pc = a unless br[b]
	opJmpCmpNot // pc = a unless fr[b] cmp(d) fr[c]
	opForInit   // ir[2a] = int64(fr[b]); ir[2a+1] = int64(fr[c])
	opForCond   // loop a: bind float local b and continue, or pc = c
	opForNext   // ir[2a]++; then bind float local d and pc = b, or pc = c
	opLanes     // after opForInit: run lanes[a] and leave by the next opForCond's exit, or pc++ if its guard fails
)

// Arithmetic selectors for compound/vector ops, in arithFn order.
const (
	selAdd int32 = iota
	selSub
	selMul
	selDiv
	selPow
)

// Message selectors for opArrChk/opChkVElem.
const (
	selRead int32 = iota
	selWrite
)

// Comparison selectors for opJmpCmpNot, in opEqB..opGeB order.
const (
	cmpEq int32 = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func arith(sel int32, a, b float64) float64 {
	switch sel {
	case selAdd:
		return a + b
	case selSub:
		return a - b
	case selMul:
		return a * b
	case selDiv:
		return a / b
	}
	return math.Pow(a, b)
}

// opInfo carries the statement context compound-assignment faults
// report ("+= of undefined variable ...").
type opInfo struct {
	op   string // "+=", "-=", ...
	name string
}

// access is the static shape of one array subscript site: the subscript
// registers its operands were evaluated into, the compile-time extents,
// and the scratch/index buffers the site owns. BindArray resolves it
// against the bound array into the site's runtime mirror (rtAcc).
type access struct {
	ai       int32 // array slot
	nameIdx  int32
	rangeDim int32 // -1 for point accesses
	full     bool
	extent   int64   // dims[rangeDim] when full
	dims     []int64 // compile-time extents
	subs     []int32 // fr register per dim; -1 at rangeDim
	loReg    int32   // partial-range bound registers
	hiReg    int32
	ii       int32 // full-rank index buffer
	sid      int32 // scratch id (materialized reads, compound current values)
	sel      int32 // arith selector for compound range updates
}

// rtAcc is the runtime mirror of one access site, point or range,
// resolved when its array binds: the dense storage and the site's
// strides, extents, and registers flattened into one fixed-size struct
// so the hot opcodes compute a flat offset inline. It has two
// dimensions: a point site's in array order, a range site's fixed
// dimension then its range dimension. A rank-1 site wears the same
// shape; its absent dimension has stride 0 and extent 1 and reads the
// kernel's unit register, which always holds 1. o0/o1 turn a 1-based
// DSL coordinate into one relative to the bound storage (1 plus the
// window's lower bound on a windowed dimension), and d0/d1 are that
// storage's extents, so one unsigned compare per coordinate checks the
// window and the array bounds at once. Unbound, non-dense, or rank ≥3
// sites keep the zero value — extent 0, which no coordinate passes —
// and route through the reference accessors.
type rtAcc struct {
	data       []float64
	s0, s1     int64
	o0, o1     int64
	d0, d1     uint64
	sub0, sub1 int32
	// Range sites only: the range covers the coordinates lo..hi of its
	// dimension read from these registers, hi-lo+span of them — span is
	// 1, or a full range's extent with lo and hi both reading the unit
	// register. sid is the scratch a read materializes into, sel the
	// compound update's arith selector.
	lo, hi   int32
	span     int64
	sid, sel int32
}

// ptOff resolves a point access's flat offset through its runtime
// mirror. ok=false sends the caller to the reference path — which
// reports the fault when a coordinate is actually out of range.
func ptOff(fr []float64, ra *rtAcc) (int64, bool) {
	v0 := int64(fr[ra.sub0]) - ra.o0
	v1 := int64(fr[ra.sub1]) - ra.o1
	if uint64(v0) < ra.d0 && uint64(v1) < ra.d1 {
		return v0*ra.s0 + v1*ra.s1, true
	}
	return 0, false
}

// rgOff resolves a range access through its runtime mirror: the flat
// offset of its first element and its length n (stride s1 apart). It
// takes the flat path only when the range starts inside the window and
// its n ≥ 1 elements end there too — so a window that cuts a full range
// misses. ok=false sends the caller to the reference path, as for
// ptOff.
func rgOff(fr []float64, ra *rtAcc) (base, n int64, ok bool) {
	v0 := int64(fr[ra.sub0]) - ra.o0
	l := int64(fr[ra.lo])
	lo, n := l-ra.o1, int64(fr[ra.hi])-l+ra.span
	if uint64(v0) < ra.d0 && uint64(lo) < ra.d1 && uint64(n-1) < ra.d1-uint64(lo) {
		return v0*ra.s0 + lo*ra.s1, n, true
	}
	return 0, 0, false
}

// bufAccess is the static shape of one buffer write site.
type bufAccess struct {
	bi      int32
	nameIdx int32
	neg     bool // "-=" negates before Put
	subs    []int32
	ii      int32
}

// axpyInfo is one opAxpyRow's shape beyond its instruction: out[i] =
// l[i] ± s*w[i], or l[i] ± s*(c*w[i]) when optimize fused the single-use
// c*w that fed it (fuseRows), into scratch sid — or, when it also fused
// the range store that consumed the result, into access site acc.
type axpyInfo struct {
	w   int32 // vr register holding the scaled vector
	c   int32 // fr register of the inline scale, -1 for none
	acc int32 // destination range site, -1 for a vector result
	sid int32
	sub bool // l - s*w instead of l + s*w
}

// laneLoop is an inner for loop lowered lane-wise (laneFor): each body
// statement but an if runs once over all trips, as ops over lane
// registers, each one element per trip; the ifs then run as sels, trip
// by trip. runLanes guards and runs it.
type laneLoop struct {
	forID, varSlot int32
	loads          []laneLoad
	regs           []laneReg
	ops            []laneOp
	sels           []laneSel
	outs           [][2]int32 // lane-private locals: (float slot, lane register)
}

// laneLoad loads fr[reg] from global g, or when g < 0 from the 1-based
// key literal key.
type laneLoad struct{ reg, g, key int32 }

// A lane register is scratch x (temps, lane-private locals, a fold's
// partial sums), vector local x at [v], range access site x at v+off, or
// the loop variable's values lo..hi in scratch x.
const (
	laneTemp = iota
	laneVec
	laneSite
	laneVar
)

type laneReg struct {
	kind, x int32
	off     int64
}

// laneOp applies scalar opcode op (opMovF, opAddF..opPowF, opMinF,
// opMaxF, or unary opNegF..opSigmoidF on a) per lane, or folds a's lanes
// in trip order into fr[dst] (opCompF) or gl[dst] (opCompG), each
// partial sum into lane register scan when scan >= 0. Operand o >= 0 is
// lane register o, o < 0 scalar fr[^o].
type laneOp struct {
	op              opcode
	dst, a, b, scan int32
}

// laneSel is one step of a lane loop's ifs: when cmp >= 0, comparison
// cmp of operands a and b, which skips the next skip steps unless it
// holds; else the assignment of operand a to float local b.
type laneSel struct{ cmp, a, b, skip int32 }

// Prog is a loop lowered to bytecode. It is immutable and safe to
// share; each executor obtains its own mutable state via NewKernel.
type Prog struct {
	loop *lang.Loop

	code  []instr
	names []string
	infos []opInfo
	accs  []access
	baccs []bufAccess
	axpys []axpyInfo
	pend  []instr  // presence checks folded past an opKeyC (its c is 1 + index)
	pins  []pinVal // number pins, written once per kernel
	lanes []laneLoop
	// forNotes says per inner for loop, in source order, why it has no
	// lane-wise form ("" when it has one).
	forNotes []string

	numFloat, numVec, numBool int // local slot counts
	nFReg, nVReg, nBReg       int // register file sizes (locals + temps)
	nFor                      int
	valSlot                   int

	globalIx    map[string]int
	globalNames []string
	arrayIx     map[string]int
	arrayNames  []string
	arrayDims   [][]int64
	bufIx       map[string]int
	bufNames    []string

	nScratch int
	idxSizes []int
}

// vmFault carries a runtime error out of the dispatch loop; RunIteration
// and RunBlock recover it back into an error. Non-fault panics (array
// bounds violations, which the interpreter also surfaces as panics)
// propagate unchanged.
type vmFault struct{ err error }

func fail(format string, args ...interface{}) {
	panic(vmFault{fmt.Errorf(format, args...)})
}

// Kernel is one executor's mutable instance of a Prog: register files,
// bound arrays/buffers, globals, and reusable scratch. Not safe for
// concurrent use; create one per goroutine with NewKernel.
type Kernel struct {
	p *Prog

	fr []float64
	vr [][]float64
	br []bool
	ir []int64 // two per inner for loop: counter, limit

	flDef  []bool // per float local
	vecDef []bool
	boDef  []bool

	gl    []float64
	glDef []bool

	arrays  []lang.ArrayAccess
	runs    []lang.RunAccess // non-nil where the view takes whole runs
	racc    []rtAcc          // per access site runtime mirror
	buffers []lang.BufferAccess
	rng     lang.RandSource

	scratch  [][]float64
	idx      [][]int64
	lane     [][]float64 // the running lane loop's registers
	laneRuns int         // lane loops run lane-wise, not as scalar loops

	budget   int64
	vecLimit int64
	key      []int64

	ops tally // per-opcode dispatch counts; empty unless built with -tags vmcount
}

// dimWin is one dimension of a bound array's dense storage: the global
// coordinates [lo, hi) it holds and the stride between them. That is
// [0, extent) everywhere except the windowed dimension of a
// lang.DenseWindow binding.
type dimWin struct{ lo, hi, stride int64 }

// NewKernel allocates a kernel instance with empty bindings.
func (p *Prog) NewKernel() *Kernel {
	k := &Kernel{p: p}
	// Number pins are loaded once here; no program instruction writes
	// them, so every literal operand reads its register for free. The
	// one register past the program's is the unit register (rtAcc).
	k.fr = make([]float64, p.nFReg+1)
	for _, pv := range p.pins {
		k.fr[pv.reg] = pv.val
	}
	k.fr[p.nFReg] = 1
	k.vr = make([][]float64, p.nVReg)
	k.br = make([]bool, p.nBReg)
	k.ir = make([]int64, 2*p.nFor)
	k.flDef = make([]bool, p.numFloat)
	k.vecDef = make([]bool, p.numVec)
	k.boDef = make([]bool, p.numBool)
	k.gl = make([]float64, len(p.globalNames))
	k.glDef = make([]bool, len(p.globalNames))
	k.arrays = make([]lang.ArrayAccess, len(p.arrayNames))
	k.runs = make([]lang.RunAccess, len(p.arrayNames))
	k.racc = make([]rtAcc, len(p.accs))
	k.buffers = make([]lang.BufferAccess, len(p.bufNames))
	k.scratch = make([][]float64, p.nScratch)
	for _, ln := range p.lanes {
		k.lane = make([][]float64, max(len(k.lane), len(ln.regs)))
	}
	k.idx = make([][]int64, len(p.idxSizes))
	for i, n := range p.idxSizes {
		k.idx[i] = make([]int64, n)
	}
	return k
}

// BindArray binds a DistArray view to its slot; the view's extents must
// match the compile-time environment. Views of rank 1 or 2 implementing
// lang.DenseAccess with dense backing take the fused flat-offset paths;
// a lang.DenseWindow (a partition) takes them for coordinates inside
// its window. Every flat access is bounds-checked against [lo, hi) on
// all dimensions first, and a coordinate outside goes to the view's
// At/SetAt — so faults keep the text and order of the reference path.
// Rebinding a slot drops every reference to the previous view's
// storage.
func (k *Kernel) BindArray(name string, a lang.ArrayAccess) error {
	i, ok := k.p.arrayIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no array %q", name)
	}
	want := k.p.arrayDims[i]
	got := a.Dims()
	if len(got) != len(want) {
		return fmt.Errorf("lang: array %q bound with rank %d, compiled for %d", name, len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			return fmt.Errorf("lang: array %q bound with dims %v, compiled for %v", name, got, want)
		}
	}
	var data []float64
	var stride []int64
	wd, wlo, whi := 0, int64(0), want[0]
	if da, ok := a.(lang.DenseAccess); ok {
		data, stride = da.DenseData()
		if w, ok := a.(lang.DenseWindow); ok && data != nil {
			wd, wlo, whi = w.Window()
			if wd < 0 || wd >= len(want) || wlo < 0 || whi < wlo || whi > want[wd] {
				return fmt.Errorf("lang: array %q bound with window [%d,%d) on dim %d of %v", name, wlo, whi, wd, want)
			}
		}
	}
	k.arrays[i] = a
	k.runs[i], _ = a.(lang.RunAccess)
	clear(k.lane) // a lane register may borrow the previous storage
	rank := len(want)
	if rank > 2 {
		data = nil
	}
	// win[rank] is the unit dimension a rank-1 site pads with.
	var win [3]dimWin
	if data != nil {
		for d := range rank {
			win[d] = dimWin{hi: want[d], stride: stride[d]}
		}
		win[wd].lo, win[wd].hi = wlo, whi
		win[rank] = dimWin{hi: 1}
	}
	// Refresh the runtime mirrors of this array's access sites.
	unit := int32(len(k.fr) - 1)
	for j := range k.p.accs {
		acc := &k.p.accs[j]
		if int(acc.ai) != i {
			continue
		}
		ra := &k.racc[j]
		*ra = rtAcc{}
		if data == nil {
			continue
		}
		// The mirror's dimensions (as win indices) and their registers:
		// the point coordinates in array order, then the range.
		dims, subs := [2]int{rank, rank}, [2]int32{unit, unit}
		n := 0
		for d, sr := range acc.subs {
			if int32(d) != acc.rangeDim {
				dims[n], subs[n] = d, sr
				n++
			}
		}
		if acc.rangeDim >= 0 {
			dims[1] = int(acc.rangeDim)
		}
		lo, hi, span := acc.loReg, acc.hiReg, int64(1)
		if acc.full {
			lo, hi, span = unit, unit, acc.extent
		}
		w0, w1 := win[dims[0]], win[dims[1]]
		*ra = rtAcc{data: data,
			s0: w0.stride, o0: 1 + w0.lo, d0: uint64(w0.hi - w0.lo), sub0: subs[0],
			s1: w1.stride, o1: 1 + w1.lo, d1: uint64(w1.hi - w1.lo), sub1: subs[1],
			lo: lo, hi: hi, span: span, sid: acc.sid, sel: acc.sel}
	}
	return nil
}

// BindBuffer binds a DistArray Buffer to its slot.
func (k *Kernel) BindBuffer(name string, b lang.BufferAccess) error {
	i, ok := k.p.bufIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no buffer %q", name)
	}
	k.buffers[i] = b
	return nil
}

// SetRng backs the rand() builtin (nil makes rand() an error, matching
// Machine semantics).
func (k *Kernel) SetRng(r lang.RandSource) { k.rng = r }

// SetStepBudget bounds inner for-range body executions across the
// kernel's lifetime; 0 disables the budget. Mirrors Machine.StepBudget.
//
//lint:ignore reach FuzzExecDifferential bounds runaway loops with it, and TestLaneFaults pins the fault it raises
func (k *Kernel) SetStepBudget(n int64) { k.budget = n }

// SetVecLimit bounds zeros() vector lengths; 0 disables the limit.
// Mirrors Machine.VecLimit.
//
//lint:ignore reach FuzzExecDifferential bounds zeros() lengths with it, as it does the interpreter's VecLimit
func (k *Kernel) SetVecLimit(n int64) { k.vecLimit = n }

// SetGlobal sets a global slot's value, reporting whether the loop
// declares the name.
func (k *Kernel) SetGlobal(name string, v float64) bool {
	i, ok := k.p.globalIx[name]
	if !ok {
		return false
	}
	k.gl[i] = v
	k.glDef[i] = true
	return true
}

// Global reads a global by name.
func (k *Kernel) Global(name string) (float64, bool) {
	i, ok := k.p.globalIx[name]
	if !ok {
		return 0, false
	}
	return k.gl[i], true
}

// GlobalSlot resolves a global name to its slot (-1 when absent), for
// allocation-free reads via GlobalAt on hot paths.
func (k *Kernel) GlobalSlot(name string) int {
	i, ok := k.p.globalIx[name]
	if !ok {
		return -1
	}
	return i
}

// GlobalAt reads a global by slot.
func (k *Kernel) GlobalAt(slot int) float64 { return k.gl[slot] }

func (k *Kernel) growScratch(sid, n int) []float64 {
	s := k.scratch[sid]
	if n < 0 || cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	k.scratch[sid] = s
	return s
}

// beginIter resets per-iteration state: definedness flags, the borrowed
// key, and the value slot.
func (k *Kernel) beginIter(key []int64, val float64) {
	for i := range k.flDef {
		k.flDef[i] = false
	}
	for i := range k.vecDef {
		k.vecDef[i] = false
	}
	for i := range k.boDef {
		k.boDef[i] = false
	}
	k.key = key
	if k.p.valSlot >= 0 {
		k.fr[k.p.valSlot] = val
		k.flDef[k.p.valSlot] = true
	}
}

// RunIteration executes the loop body for one iteration. The key slice
// is borrowed for the duration of the call and never retained. Runtime
// faults the interpreter reports as errors come back as errors; array
// bounds violations panic, exactly as they do under interpretation.
func (k *Kernel) RunIteration(key []int64, val float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if vf, ok := r.(vmFault); ok {
				err = vf.err
				return
			}
			panic(r)
		}
	}()
	k.beginIter(key, val)
	k.exec()
	return nil
}

// RunBlock executes a run of consecutive iterations with one
// recover/dispatch preamble for the whole batch. onIter (optional) is
// invoked after each completed iteration — the runtime uses it to fold
// accumulator deltas per iteration, preserving float ordering. It
// returns the number of fully completed iterations and the fault that
// stopped the run, if any.
func (k *Kernel) RunBlock(keys [][]int64, vals []float64, onIter func(i int)) (done int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if vf, ok := r.(vmFault); ok {
				err = vf.err
				return
			}
			panic(r)
		}
	}()
	for i := range keys {
		var v float64
		if vals != nil {
			v = vals[i]
		}
		k.beginIter(keys[i], v)
		k.exec()
		done = i + 1
		if onIter != nil {
			onIter(i)
		}
	}
	return done, nil
}

// RunLoop executes the loop body once per element of the bound
// iteration-space array, in deterministic element order, stopping at
// the first error.
func (k *Kernel) RunLoop() error {
	iterVar := k.p.loop.IterVar
	i, ok := k.p.arrayIx[iterVar]
	if !ok || k.arrays[i] == nil {
		return fmt.Errorf("lang: iteration space %q not bound", iterVar)
	}
	iter, ok := k.arrays[i].(lang.Iterable)
	if !ok {
		return fmt.Errorf("lang: iteration space %q is not iterable on this machine", iterVar)
	}
	if u, ok := iter.(lang.IterableUntil); ok {
		var err error
		u.ForEachUntil(func(idx []int64, v float64) bool {
			err = k.RunIteration(idx, v)
			return err == nil
		})
		return err
	}
	var err error
	iter.ForEach(func(idx []int64, v float64) {
		if err != nil {
			return
		}
		err = k.RunIteration(idx, v)
	})
	return err
}
