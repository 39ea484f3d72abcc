package vm

import (
	"fmt"
	"math"

	"orion/internal/lang"
)

// Lowering walks the slot-resolved AST once, emitting instructions
// bottom-up. Temporary registers are allocated monotonically within a
// statement and recycled at statement boundaries; locals occupy the low
// registers of each file so slot numbers double as register numbers.
//
// Evaluation-order parity with the closure backend is load-bearing:
// definedness checks precede subscript evaluation for vector-local
// reads, assignment right-hand sides are evaluated before target
// checks, array nil checks precede subscript evaluation, and subscripts
// evaluate in dimension order with lo before hi. Each emission site
// below mirrors the corresponding compile*.go closure.

type comp struct {
	res  *lang.Resolution
	loop *lang.Loop

	code    []instr
	consts  []float64
	constIx map[uint64]int32
	names   []string
	nameIx  map[string]int32
	infos   []opInfo
	accs    []access
	baccs   []bufAccess
	axpys   []axpyInfo
	fused   []fentry

	defs *defState

	// keyPin assigns each distinct literal key subscript a permanent
	// register (between the locals and the statement temps) so a
	// dominating opKeyC serves every later use of the same literal.
	// numPin does the same for numeric literals; their registers are
	// filled once at kernel construction and never written again, so a
	// literal operand lowers to no code.
	keyPin   map[int64]int32
	numPin   map[uint64]int32
	pinVals  []pinVal
	tempBase int32 // first statement-temp float register

	nFloatLoc, nVecLoc, nBoolLoc int32
	fTop, vTop, bTop             int32
	maxF, maxV, maxB             int32
	nFor                         int32
	nScratch                     int32
	idxSizes                     []int
}

// defState tracks, per lowering position, which locals are definitely
// defined, which globals definitely passed a definedness check, and
// which arrays/buffers definitely passed a nil check on every path
// reaching that position. A dominated re-check can never fire — local
// definedness only ever grows within an iteration and array/buffer
// bindings are fixed for the whole run — so the lowering elides it.
// Branches merge by intersection; loop bodies may run zero times, so
// their effects do not survive the loop.
type defState struct {
	f, b, v  []bool         // float/bool/vec local slots definitely defined
	g        []bool         // globals definitely defined
	arr, buf []bool         // arrays/buffers definitely nil-checked
	key      map[int64]bool // literal key subscripts with a dominating opKeyC
}

func newDefState(nf, nb, nv, ng, na, nbu int) *defState {
	return &defState{
		f: make([]bool, nf), b: make([]bool, nb), v: make([]bool, nv),
		g: make([]bool, ng), arr: make([]bool, na), buf: make([]bool, nbu),
		key: map[int64]bool{},
	}
}

func (d *defState) clone() *defState {
	c := &defState{
		f: append([]bool(nil), d.f...), b: append([]bool(nil), d.b...),
		v: append([]bool(nil), d.v...), g: append([]bool(nil), d.g...),
		arr: append([]bool(nil), d.arr...), buf: append([]bool(nil), d.buf...),
		key: make(map[int64]bool, len(d.key)),
	}
	for k := range d.key {
		c.key[k] = true
	}
	return c
}

func (d *defState) intersect(o *defState) {
	and := func(a, b []bool) {
		for i := range a {
			a[i] = a[i] && b[i]
		}
	}
	and(d.f, o.f)
	and(d.b, o.b)
	and(d.v, o.v)
	and(d.g, o.g)
	and(d.arr, o.arr)
	and(d.buf, o.buf)
	for k := range d.key {
		if !o.key[k] {
			delete(d.key, k)
		}
	}
}

// Compile lowers a loop body to bytecode against the given environment.
// It returns *lang.NotCompilableError for loops outside the compiled
// subset — the same subset as lang.CompileLoop, decided entirely by the
// shared resolution front end.
func Compile(loop *lang.Loop, env *lang.CompileEnv) (p *Prog, err error) {
	res, rerr := lang.ResolveLoop(loop, env)
	if rerr != nil {
		return nil, rerr
	}
	defer func() {
		if r := recover(); r != nil {
			if nce, ok := r.(*lang.NotCompilableError); ok {
				p, err = nil, nce
				return
			}
			panic(r)
		}
	}()
	c := &comp{
		res:     res,
		loop:    loop,
		constIx: map[uint64]int32{},
		nameIx:  map[string]int32{},
	}
	c.nFloatLoc = int32(res.NumFloat())
	c.nVecLoc = int32(res.NumVec())
	c.nBoolLoc = int32(res.NumBool())
	c.keyPin = map[int64]int32{}
	c.numPin = map[uint64]int32{}
	c.tempBase = c.nFloatLoc
	c.collectKeyLits(loop.Body)
	c.resetTemps()
	c.maxF, c.maxV, c.maxB = c.fTop, c.vTop, c.bTop

	globals := res.Globals()
	arrays := res.Arrays()
	buffers := res.Buffers()
	c.defs = newDefState(int(c.nFloatLoc), int(c.nBoolLoc), int(c.nVecLoc),
		len(globals), len(arrays), len(buffers))
	if vs := res.ValSlot(); vs >= 0 {
		// The iteration value local is bound before the body runs.
		c.defs.f[vs] = true
	}
	c.lowerStmts(loop.Body)
	c.emit(opHalt, 0, 0, 0, 0, 0)
	c.finalize()
	c.fuseSuper()
	p = &Prog{
		loop:        loop,
		code:        c.code,
		consts:      c.consts,
		names:       c.names,
		infos:       c.infos,
		accs:        c.accs,
		baccs:       c.baccs,
		axpys:       c.axpys,
		pins:        c.pinVals,
		fused:       c.fused,
		numFloat:    int(c.nFloatLoc),
		numVec:      int(c.nVecLoc),
		numBool:     int(c.nBoolLoc),
		nFReg:       int(c.maxF),
		nVReg:       int(c.maxV),
		nBReg:       int(c.maxB),
		nFor:        int(c.nFor),
		valSlot:     res.ValSlot(),
		globalIx:    make(map[string]int, len(globals)),
		globalNames: globals,
		arrayIx:     make(map[string]int, len(arrays)),
		arrayNames:  arrays,
		arrayDims:   make([][]int64, len(arrays)),
		bufIx:       make(map[string]int, len(buffers)),
		bufNames:    buffers,
		nScratch:    int(c.nScratch),
		idxSizes:    c.idxSizes,
	}
	for i, n := range globals {
		p.globalIx[n] = i
	}
	for i, n := range arrays {
		p.arrayIx[n] = i
		p.arrayDims[i] = res.ArrayDims(i)
	}
	for i, n := range buffers {
		p.bufIx[n] = i
	}
	return p, nil
}

// nc rejects a construct the lowering does not handle. Every reachable
// rejection already happened in lang.ResolveLoop; these are defensive.
func (c *comp) nc(at lang.Pos, format string, args ...interface{}) {
	panic(&lang.NotCompilableError{Reason: fmt.Sprintf(format, args...), At: at})
}

func (c *comp) emit(op opcode, a, b, cc, d, e int32) int {
	c.code = append(c.code, instr{op: op, a: a, b: b, c: cc, d: d, e: e})
	return len(c.code) - 1
}

func (c *comp) patch(pc int, target int) {
	c.code[pc].a = int32(target)
}

func (c *comp) here() int { return len(c.code) }

func (c *comp) resetTemps() {
	c.fTop, c.vTop, c.bTop = c.tempBase, c.nVecLoc, c.nBoolLoc
}

// pinVal records one constant pin: a float register filled with a
// literal's value when the kernel is built.
type pinVal struct {
	reg int32
	val float64
}

// keyLitConst reports whether a literal key subscript survives the
// int64 conversion the register form would apply at runtime, making it
// foldable into opKeyC.
func keyLitConst(n *lang.Num) (int64, bool) {
	kk := int64(n.Val)
	return kk, float64(kk) == n.Val && kk >= 0 && kk <= 1<<30
}

// collectKeyLits pre-assigns one pinned float register per distinct
// literal key subscript in the body, and one per distinct numeric
// literal. Pinned registers sit between the locals and the statement
// temps and survive statement boundaries: one executed opKeyC serves
// every dominated use of the same key literal — the key slice is fixed
// for the whole iteration — and constant pins are written once at
// kernel construction, so a literal operand costs no instruction at
// all.
func (c *comp) collectKeyLits(body []lang.Stmt) {
	var visitExpr func(e lang.Expr)
	visitExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.Num:
			key := math.Float64bits(x.Val)
			if _, have := c.numPin[key]; !have {
				c.numPin[key] = c.tempBase
				c.pinVals = append(c.pinVals, pinVal{reg: c.tempBase, val: x.Val})
				c.tempBase++
			}
		case *lang.UnOp:
			visitExpr(x.X)
		case *lang.BinOp:
			visitExpr(x.L)
			visitExpr(x.R)
		case *lang.Call:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *lang.RangeExpr:
			if !x.Full {
				visitExpr(x.Lo)
				visitExpr(x.Hi)
			}
		case *lang.Index:
			if x.Base == c.loop.KeyVar && len(x.Subs) == 1 {
				if n, isNum := x.Subs[0].(*lang.Num); isNum {
					if kk, ok := keyLitConst(n); ok {
						if _, have := c.keyPin[kk]; !have {
							c.keyPin[kk] = c.tempBase
							c.tempBase++
						}
						return
					}
				}
			}
			for _, s := range x.Subs {
				visitExpr(s)
			}
		}
	}
	var visitStmts func(stmts []lang.Stmt)
	visitStmts = func(stmts []lang.Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *lang.Assign:
				visitExpr(s.Target)
				visitExpr(s.Value)
			case *lang.If:
				visitExpr(s.Cond)
				visitStmts(s.Then)
				visitStmts(s.Else)
			case *lang.ForRange:
				visitExpr(s.Lo)
				visitExpr(s.Hi)
				visitStmts(s.Body)
			case *lang.ExprStmt:
				visitExpr(s.X)
			}
		}
	}
	visitStmts(body)
}

func (c *comp) allocF() int32 {
	r := c.fTop
	c.fTop++
	if c.fTop > c.maxF {
		c.maxF = c.fTop
	}
	return r
}

func (c *comp) allocV() int32 {
	r := c.vTop
	c.vTop++
	if c.vTop > c.maxV {
		c.maxV = c.vTop
	}
	return r
}

func (c *comp) allocB() int32 {
	r := c.bTop
	c.bTop++
	if c.bTop > c.maxB {
		c.maxB = c.bTop
	}
	return r
}

func (c *comp) constIdx(v float64) int32 {
	key := math.Float64bits(v)
	if i, ok := c.constIx[key]; ok {
		return i
	}
	i := int32(len(c.consts))
	c.consts = append(c.consts, v)
	c.constIx[key] = i
	return i
}

func (c *comp) nameIdx(n string) int32 {
	if i, ok := c.nameIx[n]; ok {
		return i
	}
	i := int32(len(c.names))
	c.names = append(c.names, n)
	c.nameIx[n] = i
	return i
}

func (c *comp) infoIdx(op, name string) int32 {
	c.infos = append(c.infos, opInfo{op: op, name: name})
	return int32(len(c.infos) - 1)
}

// The chk* helpers emit a definedness or nil check only when the
// tracked state cannot prove it passes; a check that runs successfully
// proves the property for the rest of the path, so each also updates
// the state.

func (c *comp) chkF(slot int32, name string) {
	if c.defs.f[slot] {
		return
	}
	c.emit(opChkF, slot, c.nameIdx(name), 0, 0, 0)
	c.defs.f[slot] = true
}

func (c *comp) chkB(slot int32, name string) {
	if c.defs.b[slot] {
		return
	}
	c.emit(opChkB, slot, c.nameIdx(name), 0, 0, 0)
	c.defs.b[slot] = true
}

func (c *comp) chkV(slot int32, name string) {
	if c.defs.v[slot] {
		return
	}
	c.emit(opChkV, slot, c.nameIdx(name), 0, 0, 0)
	c.defs.v[slot] = true
}

func (c *comp) chkVElem(slot int32, name string, sel int32) {
	if c.defs.v[slot] {
		return
	}
	c.emit(opChkVElem, slot, c.nameIdx(name), sel, 0, 0)
	c.defs.v[slot] = true
}

func (c *comp) arrChk(ai int32, name string, sel int32) {
	if c.defs.arr[ai] {
		return
	}
	c.emit(opArrChk, ai, c.nameIdx(name), sel, 0, 0)
	c.defs.arr[ai] = true
}

func (c *comp) bufChk(bi int32, name string) {
	if c.defs.buf[bi] {
		return
	}
	c.emit(opBufChk, bi, c.nameIdx(name), 0, 0, 0)
	c.defs.buf[bi] = true
}

// copyPropF retargets the instruction that just produced a scalar temp
// at the assignment's local slot, eliding the MovF. Every lowerFloat
// shape that returns a temp returns the destination of the instruction
// it emitted last, so matching (last instruction, fr-writing opcode,
// dst == rhs temp) identifies the producer; the temp dies at the
// statement boundary, so renaming its destination is safe.
func (c *comp) copyPropF(slot, rhs int32) bool {
	// Pinned key registers (< tempBase) are excluded: retargeting one
	// would leave the pin unwritten while the CSE facts say it holds.
	if rhs < c.tempBase || len(c.code) == 0 {
		return false
	}
	in := &c.code[len(c.code)-1]
	if in.a != rhs {
		return false
	}
	switch in.op {
	case opConstF, opLoadG, opLoadGU, opAddF, opSubF, opMulF, opDivF, opPowF,
		opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF,
		opSigmoidF, opMinF, opMaxF, opRandF, opKeyF, opKeyC, opLenF, opDotF,
		opVElemLd, opLdPtF, opArithFC, opArithCF, opArithFG, opArithGF,
		opMinFC, opMaxFC, opVElemArith, opLdPtMinC, opLdPtMaxC:
		in.a = slot
		return true
	}
	return false
}

// copyPropB is copyPropF for boolean temps.
func (c *comp) copyPropB(slot, rhs int32) bool {
	if rhs < c.nBoolLoc || len(c.code) == 0 {
		return false
	}
	in := &c.code[len(c.code)-1]
	if in.a != rhs {
		return false
	}
	switch in.op {
	case opConstB, opEqB, opNeB, opLtB, opLeB, opGtB, opGeB:
		in.a = slot
		return true
	}
	return false
}

// copyPropV is copyPropF for vector temps. Retargeting only renames
// which vr header receives the op's scratch slice; aliasing is
// unchanged because vecStore mode already forbids view-returning
// shapes on assignment right-hand sides.
func (c *comp) copyPropV(slot, rhs int32) bool {
	if rhs < c.nVecLoc || len(c.code) == 0 {
		return false
	}
	in := &c.code[len(c.code)-1]
	if in.a != rhs {
		return false
	}
	switch in.op {
	case opVBinVV, opVBinVS, opVBinSV, opVNegV, opZerosV, opAxpyRow, opRowMatV:
		in.a = slot
		return true
	}
	return false
}

// arithOp maps an arithmetic selector to its register-register opcode.
func arithOp(sel int32) opcode {
	switch sel {
	case selAdd:
		return opAddF
	case selSub:
		return opSubF
	case selMul:
		return opMulF
	case selDiv:
		return opDivF
	}
	return opPowF
}

// finalize removes definedness bookkeeping no surviving check reads:
// after check elision, a local whose every read was dominated by a
// definition has no opChk/opComp consumer left, so its opDef writes are
// dead. The pass drops them and rewrites the absolute jump targets.
func (c *comp) finalize() {
	usedF := make([]bool, c.maxF)
	usedB := make([]bool, c.maxB)
	usedV := make([]bool, c.maxV)
	for _, in := range c.code {
		switch in.op {
		case opChkF, opCompF:
			usedF[in.a] = true
		case opChkB:
			usedB[in.a] = true
		case opChkV, opChkVElem, opVCompS, opVCompV:
			usedV[in.a] = true
		}
	}
	keep := make([]bool, len(c.code))
	n := 0
	for i, in := range c.code {
		keep[i] = true
		switch in.op {
		case opDefF:
			keep[i] = usedF[in.a]
		case opDefB:
			keep[i] = usedB[in.a]
		case opDefV:
			keep[i] = usedV[in.a]
		}
		if keep[i] {
			n++
		}
	}
	if n == len(c.code) {
		return
	}
	c.compact(keep)
}

// compact drops the instructions keep marks false and rewrites the
// absolute jump targets. A dropped target maps to the next retained
// instruction, which is where the dropped no-op would have fallen
// through to.
func (c *comp) compact(keep []bool) {
	newPC := make([]int32, len(c.code))
	np := int32(0)
	for i := range c.code {
		newPC[i] = np
		if keep[i] {
			np++
		}
	}
	out := make([]instr, 0, int(np))
	for i, in := range c.code {
		if !keep[i] {
			continue
		}
		switch in.op {
		case opJmp, opJmpIfNot, opJmpCmpNot:
			in.a = newPC[in.a]
		case opForCond:
			in.c = newPC[in.c]
		case opForNext:
			in.b = newPC[in.b]
			in.c = newPC[in.c]
		}
		out = append(out, in)
	}
	c.code = out
}

// fuseSuper runs after finalize. It collapses adjacent instruction
// groups whose unfused forms round-trip intermediate temps through the
// register file into one superinstruction each. Fusion never reorders
// anything: every group is contiguous, no jump lands inside it, and
// the fused op executes the components in the original order, so fault
// order, messages, and each intermediate rounding step are identical
// to the unfused code. Groups that elide a temp's write additionally
// require the temp to be dead outside the group.
func (c *comp) fuseSuper() {
	targets := map[int32]bool{}
	for _, in := range c.code {
		switch in.op {
		case opJmp, opJmpIfNot, opJmpCmpNot:
			targets[in.a] = true
		case opForCond:
			targets[in.c] = true
		case opForNext:
			targets[in.b] = true
			targets[in.c] = true
		}
	}
	keep := make([]bool, len(c.code))
	for i := range keep {
		keep[i] = true
	}
	changed := false
	inside := func(j int) bool { return j < len(c.code) && !targets[int32(j)] }
	for i := 0; i < len(c.code); i++ {
		in1 := c.code[i]
		// (fr[b1]+gl) * (fr[b2]+gl): two global-add ArithFGs feeding a
		// MulF, all three temps dying at the multiply.
		if in1.op == opArithFG && in1.d == selAdd && inside(i+1) && inside(i+2) {
			in2, in3 := c.code[i+1], c.code[i+2]
			if in2.op == opArithFG && in2.d == selAdd && in3.op == opMulF &&
				in3.b == in1.a && in3.c == in2.a && in1.a != in2.a &&
				in2.b != in1.a &&
				in1.a >= c.tempBase && in2.a >= c.tempBase &&
				c.tempDeadAfter(in1.a, i+2) && c.tempDeadAfter(in2.a, i+2) {
				fi := int32(len(c.fused))
				c.fused = append(c.fused, fentry{
					a1: in1.b, b1: in1.c, c1: in1.e,
					a2: in2.b, b2: in2.c, c2: in2.e,
				})
				c.code[i] = instr{op: opAddG2Mul, a: in3.a, b: fi}
				keep[i+1], keep[i+2] = false, false
				changed = true
				i += 2
				continue
			}
		}
		// fr[x] / (fr[b]+gl): a global-add ArithFG whose dead temp is
		// the divisor of the next DivF.
		if in1.op == opArithFG && in1.d == selAdd && inside(i+1) {
			in2 := c.code[i+1]
			if in2.op == opDivF && in2.c == in1.a && in2.b != in1.a &&
				in1.a >= c.tempBase && c.tempDeadAfter(in1.a, i+1) {
				c.code[i] = instr{op: opAddGDivR, a: in2.a, b: in1.b, c: in1.c, d: in2.b, e: in1.e}
				keep[i+1] = false
				changed = true
				i++
				continue
			}
		}
		// Two adjacent clamped point loads share one dispatch. Blocked
		// when the first load's destination feeds the second access's
		// subscripts (the second load must see the new value).
		if (in1.op == opLdPtMinC || in1.op == opLdPtMaxC) && inside(i+1) {
			in2 := c.code[i+1]
			if (in2.op == opLdPtMinC || in2.op == opLdPtMaxC) &&
				!c.accReads(in2.b, in1.a) {
				fi := int32(len(c.fused))
				c.fused = append(c.fused, fentry{
					a1: in1.a, b1: in1.b, c1: in1.c, d1: b2i(in1.op == opLdPtMaxC),
					a2: in2.a, b2: in2.b, c2: in2.c, d2: b2i(in2.op == opLdPtMaxC),
				})
				c.code[i] = instr{op: opLdPt2C, b: fi}
				keep[i+1] = false
				changed = true
				i++
				continue
			}
		}
		// v[i] = x; acc = acc2 + v[i]: a plain element store whose value
		// is immediately accumulated back out of the same element.
		if in1.op == opVElemSt && in1.d < 0 && inside(i+1) {
			in2 := c.code[i+1]
			if in2.op == opVElemArith && in2.d == selAdd &&
				in2.c == in1.a && in2.e == in1.b {
				c.code[i] = instr{op: opVStAdd, a: in1.a, b: in1.b, c: in1.c, d: in2.a, e: in2.b}
				keep[i+1] = false
				changed = true
				i++
				continue
			}
		}
	}
	if changed {
		c.compact(keep)
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// accReads reports whether point/range access site ai reads scalar
// register r for a subscript or range bound.
func (c *comp) accReads(ai, r int32) bool {
	acc := &c.accs[ai]
	for _, s := range acc.subs {
		if s == r {
			return true
		}
	}
	return acc.loReg == r || acc.hiReg == r
}

func (c *comp) bufReads(bi, r int32) bool {
	for _, s := range c.baccs[bi].subs {
		if s == r {
			return true
		}
	}
	return false
}

// tempDeadAfter reports whether no read of float register t is
// reachable from code[hi+1] before a write to t kills the value. The
// walk follows every control-flow successor, so a statement that later
// reuses the same temp register (its own write starts a new live
// range) does not block fusion, while a genuine downstream read —
// including one reached through a loop back-edge — does.
func (c *comp) tempDeadAfter(t int32, hi int) bool {
	seen := make([]bool, len(c.code))
	work := []int{hi + 1}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc >= len(c.code) || seen[pc] {
			continue
		}
		seen[pc] = true
		in := c.code[pc]
		if c.readsF(in, t) {
			return false
		}
		if c.writesF(in, t) {
			continue
		}
		switch in.op {
		case opHalt:
		case opJmp:
			work = append(work, int(in.a))
		case opJmpIfNot, opJmpCmpNot:
			work = append(work, int(in.a), pc+1)
		case opForCond:
			work = append(work, int(in.c), pc+1)
		case opForNext:
			work = append(work, int(in.b), int(in.c))
		default:
			work = append(work, pc+1)
		}
	}
	return true
}

// writesF reports whether executing in writes float register r. Claiming
// an op does not write is the conservative direction — the liveness walk
// just keeps scanning past it.
func (c *comp) writesF(in instr, r int32) bool {
	switch in.op {
	case opConstF, opMovF, opLoadG, opCompF, opAddF, opSubF, opMulF, opDivF,
		opPowF, opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF,
		opCeilF, opSigmoidF, opMinF, opMaxF, opRandF, opKeyF, opLenF, opDotF,
		opKeyC, opLoadGU, opArithFC, opArithCF, opArithFG, opArithGF,
		opMinFC, opMaxFC, opVElemArith, opLdPtMinC, opLdPtMaxC, opVElemLd,
		opLdPtF, opAddG2Mul, opAddGDivR:
		return in.a == r
	case opForCond:
		return in.b == r
	case opForNext, opVStAdd:
		return in.d == r
	case opLdPt2C:
		f := c.fused[in.b]
		return f.a1 == r || f.a2 == r
	}
	return false
}

// readsF reports whether executing in reads float register r. Array and
// buffer operands read their subscript registers through the access
// tables. Unknown opcodes conservatively read everything.
func (c *comp) readsF(in instr, r int32) bool {
	switch in.op {
	case opHalt, opConstF, opChkF, opDefF, opLoadG, opRandF, opKeyC, opLoadGU,
		opLenF, opDotF, opConstB, opMovB, opChkB, opDefB, opChkV, opChkVElem,
		opDefV, opMovV, opVCompV, opVBinVV, opVNegV, opArrChk, opBufChk,
		opJmp, opJmpIfNot, opForCond, opForNext:
		return false
	case opMovF, opStoreG, opCompG, opKeyF, opArithFC, opArithCF, opArithFG,
		opArithGF, opMinFC, opMaxFC, opVCompS, opZerosV, opVBinSV,
		opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF,
		opSigmoidF:
		return in.b == r
	case opCompF:
		return in.a == r || in.b == r
	case opAddF, opSubF, opMulF, opDivF, opPowF, opMinF, opMaxF,
		opEqB, opNeB, opLtB, opLeB, opGtB, opGeB:
		return in.b == r || in.c == r
	case opVElemArith:
		return in.b == r || in.e == r
	case opVElemLd:
		return in.c == r
	case opVElemSt:
		return in.b == r || in.c == r
	case opVBinVS, opAxpyRow:
		return in.c == r
	case opLdPtF, opLdPtMinC, opLdPtMaxC, opRowViewV, opRowMatV:
		return c.accReads(in.b, r)
	case opStPtF, opRowUpdS:
		return in.b == r || c.accReads(in.a, r)
	case opStPtC, opRowStV, opRowUpdV:
		return c.accReads(in.a, r)
	case opBufPut:
		return in.b == r || c.bufReads(in.a, r)
	case opBufPutC:
		return c.bufReads(in.a, r)
	case opJmpCmpNot:
		return in.b == r || (in.e == 0 && in.c == r)
	case opForInit:
		return (in.d&1 == 0 && in.b == r) || (in.d&2 == 0 && in.c == r)
	case opLdPt2C:
		f := c.fused[in.b]
		return c.accReads(f.b1, r) || c.accReads(f.b2, r)
	case opAddG2Mul:
		f := c.fused[in.b]
		return f.a1 == r || f.a2 == r
	case opAddGDivR:
		return in.b == r || in.d == r
	case opVStAdd:
		return in.b == r || in.c == r || in.e == r
	}
	return true
}

func (c *comp) newScratch() int32 {
	id := c.nScratch
	c.nScratch++
	return id
}

func (c *comp) newIdx(n int) int32 {
	c.idxSizes = append(c.idxSizes, n)
	return int32(len(c.idxSizes) - 1)
}

func arithSel(op byte) int32 {
	switch op {
	case '+':
		return selAdd
	case '-':
		return selSub
	case '*':
		return selMul
	case '/':
		return selDiv
	}
	return selPow
}

func (c *comp) lowerStmts(body []lang.Stmt) {
	for _, st := range body {
		c.resetTemps()
		c.lowerStmt(st)
	}
}

func (c *comp) lowerStmt(st lang.Stmt) {
	switch s := st.(type) {
	case *lang.Assign:
		c.lowerAssign(s)
	case *lang.If:
		jElse := c.lowerCondJump(s.Cond)
		save := c.defs.clone()
		c.lowerStmts(s.Then)
		if len(s.Else) > 0 {
			jEnd := c.emit(opJmp, 0, 0, 0, 0, 0)
			c.patch(jElse, c.here())
			thenDefs := c.defs
			c.defs = save
			c.lowerStmts(s.Else)
			c.defs.intersect(thenDefs)
			c.patch(jEnd, c.here())
		} else {
			c.patch(jElse, c.here())
			// Without an else the branch may be skipped entirely, so
			// only facts established before it survive.
			c.defs = save
		}
	case *lang.ForRange:
		// Literal bounds fold into opForInit (flag bits in d); constants
		// evaluate to no code, so the lo-before-hi order is preserved.
		var flags, lo, hi int32
		if n, isNum := s.Lo.(*lang.Num); isNum {
			flags |= 1
			lo = c.constIdx(n.Val)
		} else {
			lo = c.lowerFloat(s.Lo)
		}
		if n, isNum := s.Hi.(*lang.Num); isNum {
			flags |= 2
			hi = c.constIdx(n.Val)
		} else {
			hi = c.lowerFloat(s.Hi)
		}
		slot, ok := c.res.FloatSlot(s.Var)
		if !ok {
			c.nc(s.At, "inner loop variable %q has no float slot", s.Var)
		}
		forID := c.nFor
		c.nFor++
		c.emit(opForInit, forID, lo, hi, flags, 0)
		head := c.here()
		cond := c.emit(opForCond, forID, int32(slot), 0, 0, 0)
		// The body may run zero times: facts it establishes (including
		// the loop variable, which opForCond binds per trip) die with it.
		save := c.defs.clone()
		c.defs.f[slot] = true
		c.lowerStmts(s.Body)
		// The fused for-next re-checks the bound, spends the budget, and
		// binds the loop variable itself — one dispatch per trip instead
		// of a jump back through opForCond, which now only runs on entry.
		next := c.emit(opForNext, forID, int32(head+1), 0, int32(slot), 0)
		exit := int32(c.here())
		c.code[cond].c = exit
		c.code[next].c = exit
		c.defs = save
	case *lang.ExprStmt:
		switch c.res.ExprKind(s.X) {
		case lang.KindVec:
			c.lowerVec(s.X, vecConsume)
		case lang.KindBool:
			c.lowerBool(s.X)
		default:
			c.lowerFloat(s.X)
		}
	default:
		c.nc(c.loop.At, "unsupported statement %T", st)
	}
}

// vecMode mirrors the closure backend's result-usage classification.
type vecMode int

const (
	vecConsume vecMode = iota
	vecStore
	vecWrite
)

func (c *comp) lowerAssign(s *lang.Assign) {
	switch t := s.Target.(type) {
	case *lang.Ident:
		c.lowerIdentAssign(s, t)
	case *lang.Index:
		if slot, isVec := c.res.VecSlot(t.Base); isVec && t.Base != c.loop.KeyVar {
			c.lowerVecElemAssign(s, t, int32(slot))
			return
		}
		if bi, isBuf := c.res.BufferIndex(t.Base); isBuf {
			c.lowerBufferWrite(s, t, int32(bi))
			return
		}
		c.lowerArrayWrite(s, t)
	default:
		c.nc(s.At, "bad assignment target %s", s.Target)
	}
}

func (c *comp) lowerIdentAssign(s *lang.Assign, t *lang.Ident) {
	name := t.Name
	if gs, isGlobal := c.res.GlobalSlot(name); isGlobal {
		rhs := c.lowerFloat(s.Value)
		if s.Op == "=" {
			c.emit(opStoreG, int32(gs), rhs, 0, 0, 0)
			c.defs.g[gs] = true
			return
		}
		c.emit(opCompG, int32(gs), rhs, arithSel(s.Op[0]), c.infoIdx(s.Op, name), 0)
		c.defs.g[gs] = true
		return
	}
	kind, _ := c.res.LocalKind(name)
	switch kind {
	case lang.KindFloat:
		slot, _ := c.res.FloatSlot(name)
		rhs := c.lowerFloat(s.Value)
		if s.Op == "=" {
			if rhs != int32(slot) && !c.copyPropF(int32(slot), rhs) {
				c.emit(opMovF, int32(slot), rhs, 0, 0, 0)
			}
			c.emit(opDefF, int32(slot), 0, 0, 0, 0)
			c.defs.f[slot] = true
			return
		}
		if c.defs.f[slot] {
			// The compound's undefined-variable check cannot fire.
			c.emit(arithOp(arithSel(s.Op[0])), int32(slot), int32(slot), rhs, 0, 0)
			return
		}
		c.emit(opCompF, int32(slot), rhs, arithSel(s.Op[0]), c.infoIdx(s.Op, name), 0)
		c.defs.f[slot] = true
	case lang.KindBool:
		if s.Op != "=" {
			c.nc(s.At, "compound assignment to boolean %q", name)
		}
		slot, _ := c.res.BoolSlot(name)
		rhs := c.lowerBool(s.Value)
		if rhs != int32(slot) && !c.copyPropB(int32(slot), rhs) {
			c.emit(opMovB, int32(slot), rhs, 0, 0, 0)
		}
		c.emit(opDefB, int32(slot), 0, 0, 0, 0)
		c.defs.b[slot] = true
	case lang.KindVec:
		slot, _ := c.res.VecSlot(name)
		if s.Op == "=" {
			rhs := c.lowerVec(s.Value, vecStore)
			if rhs != int32(slot) && !c.copyPropV(int32(slot), rhs) {
				c.emit(opMovV, int32(slot), rhs, 0, 0, 0)
			}
			c.emit(opDefV, int32(slot), 0, 0, 0, 0)
			c.defs.v[slot] = true
			return
		}
		sel := arithSel(s.Op[0])
		sid := c.newScratch()
		if c.res.ExprKind(s.Value) == lang.KindFloat {
			rhs := c.lowerFloat(s.Value)
			c.emit(opVCompS, int32(slot), rhs, sel, sid, c.infoIdx(s.Op, name))
			c.defs.v[slot] = true
			return
		}
		rhs := c.lowerVec(s.Value, vecConsume)
		c.emit(opVCompV, int32(slot), rhs, sel, sid, c.infoIdx(s.Op, name))
		c.defs.v[slot] = true
	default:
		c.nc(s.At, "assignment to %q has no inferable type", name)
	}
}

func (c *comp) lowerVecElemAssign(s *lang.Assign, t *lang.Index, slot int32) {
	rhs := c.lowerFloat(s.Value)
	c.chkVElem(slot, t.Base, selWrite)
	sub := c.lowerFloat(t.Subs[0])
	sel := int32(-1)
	if s.Op != "=" {
		sel = arithSel(s.Op[0])
	}
	c.emit(opVElemSt, slot, sub, rhs, sel, 0)
}

func (c *comp) lowerBufferWrite(s *lang.Assign, t *lang.Index, bi int32) {
	// A literal value folds into the put; constants evaluate to no code,
	// so skipping the register keeps the evaluation order.
	rhs, rhsConst := int32(-1), int32(-1)
	if n, isNum := s.Value.(*lang.Num); isNum {
		rhsConst = c.constIdx(n.Val)
	} else {
		rhs = c.lowerFloat(s.Value)
	}
	c.bufChk(bi, t.Base)
	subs := make([]int32, len(t.Subs))
	for i, sub := range t.Subs {
		subs[i] = c.lowerFloat(sub)
	}
	c.baccs = append(c.baccs, bufAccess{
		bi:      bi,
		nameIdx: c.nameIdx(t.Base),
		neg:     s.Op == "-=",
		subs:    subs,
		ii:      c.newIdx(len(subs)),
	})
	if rhsConst >= 0 {
		c.emit(opBufPutC, int32(len(c.baccs)-1), rhsConst, 0, 0, 0)
		return
	}
	c.emit(opBufPut, int32(len(c.baccs)-1), rhs, 0, 0, 0)
}

// newAccess evaluates the subscripts of x in dimension order into
// registers (lo before hi at the range dimension) and records the
// site's static shape. The opArrChk preceding the subscript evaluation
// must already be emitted by the caller.
func (c *comp) newAccess(x *lang.Index, ai int) int32 {
	dims := c.res.ArrayDims(ai)
	acc := access{
		ai:       int32(ai),
		nameIdx:  c.nameIdx(x.Base),
		rangeDim: -1,
		dims:     dims,
		subs:     make([]int32, len(dims)),
		loReg:    -1,
		hiReg:    -1,
		sid:      -1,
		sel:      -1,
	}
	for d, sub := range x.Subs {
		if r, isRange := sub.(*lang.RangeExpr); isRange {
			acc.rangeDim = int32(d)
			acc.full = r.Full
			acc.subs[d] = -1
			if r.Full {
				acc.extent = dims[d]
			} else {
				acc.loReg = c.lowerFloat(r.Lo)
				acc.hiReg = c.lowerFloat(r.Hi)
			}
			continue
		}
		acc.subs[d] = c.lowerFloat(sub)
	}
	acc.ii = c.newIdx(len(dims))
	c.accs = append(c.accs, acc)
	return int32(len(c.accs) - 1)
}

func (c *comp) lowerArrayWrite(s *lang.Assign, t *lang.Index) {
	ai, isArr := c.res.ArrayIndex(t.Base)
	if !isArr {
		c.nc(t.At, "write to unknown array %q", t.Base)
	}
	hasRange := false
	for _, sub := range t.Subs {
		if _, isRange := sub.(*lang.RangeExpr); isRange {
			hasRange = true
		}
	}
	if !hasRange {
		sel := int32(-1)
		if s.Op != "=" {
			sel = arithSel(s.Op[0])
		}
		// A literal value folds into the store; constants evaluate to no
		// code, so skipping the register keeps the evaluation order.
		if n, isNum := s.Value.(*lang.Num); isNum {
			c.arrChk(int32(ai), t.Base, selWrite)
			aidx := c.newAccess(t, ai)
			c.emit(opStPtC, aidx, c.constIdx(n.Val), sel, 0, 0)
			return
		}
		rhs := c.lowerFloat(s.Value)
		c.arrChk(int32(ai), t.Base, selWrite)
		aidx := c.newAccess(t, ai)
		c.emit(opStPtF, aidx, rhs, sel, 0, 0)
		return
	}
	if s.Op == "=" {
		rhs := c.lowerVec(s.Value, vecWrite)
		c.arrChk(int32(ai), t.Base, selWrite)
		aidx := c.newAccess(t, ai)
		c.emit(opRowStV, aidx, rhs, 0, 0, 0)
		return
	}
	sel := arithSel(s.Op[0])
	if c.res.ExprKind(s.Value) == lang.KindFloat {
		rhs := c.lowerFloat(s.Value)
		c.arrChk(int32(ai), t.Base, selWrite)
		aidx := c.newAccess(t, ai)
		c.accs[aidx].sel = sel
		c.accs[aidx].sid = c.newScratch()
		c.emit(opRowUpdS, aidx, rhs, 0, 0, 0)
		return
	}
	rhs := c.lowerVec(s.Value, vecWrite)
	c.arrChk(int32(ai), t.Base, selWrite)
	aidx := c.newAccess(t, ai)
	c.accs[aidx].sel = sel
	c.accs[aidx].sid = c.newScratch()
	c.emit(opRowUpdV, aidx, rhs, 0, 0, 0)
}

func (c *comp) lowerFloat(e lang.Expr) int32 {
	switch x := e.(type) {
	case *lang.Num:
		// Literals live in pinned registers written at kernel
		// construction; referencing one emits nothing.
		if pin, ok := c.numPin[math.Float64bits(x.Val)]; ok {
			return pin
		}
		dst := c.allocF()
		c.emit(opConstF, dst, c.constIdx(x.Val), 0, 0, 0)
		return dst
	case *lang.Ident:
		name := x.Name
		if gs, isGlobal := c.res.GlobalSlot(name); isGlobal {
			if _, isLocal := c.res.LocalKind(name); !isLocal {
				dst := c.allocF()
				if c.defs.g[gs] {
					c.emit(opLoadGU, dst, int32(gs), 0, 0, 0)
					return dst
				}
				c.emit(opLoadG, dst, int32(gs), c.nameIdx(name), 0, 0)
				c.defs.g[gs] = true
				return dst
			}
		}
		slot, ok := c.res.FloatSlot(name)
		if !ok {
			c.nc(x.At, "variable %q has no float slot", name)
		}
		c.chkF(int32(slot), name)
		return int32(slot)
	case *lang.UnOp:
		// Constant negation folds: -(c) == -c bitwise for float64.
		if n, isNum := x.X.(*lang.Num); isNum {
			dst := c.allocF()
			c.emit(opConstF, dst, c.constIdx(-n.Val), 0, 0, 0)
			return dst
		}
		v := c.lowerFloat(x.X)
		dst := c.allocF()
		c.emit(opNegF, dst, v, 0, 0, 0)
		return dst
	case *lang.BinOp:
		switch x.Op {
		case "+", "-", "*", "/", "^":
		default:
			c.nc(x.At, "operator %q is not a scalar operator", x.Op)
		}
		sel := arithSel(x.Op[0])
		// Fused operand shapes. Each keeps the unfused evaluation order:
		// a constant "evaluates" to no code, so folding it into the op is
		// order-neutral wherever it sits; a global folds only where its
		// definedness check already ran last (right operand), or where
		// the other operand's lowering is provably code-free.
		if n, isNum := x.R.(*lang.Num); isNum {
			l := c.lowerFloat(x.L)
			dst := c.allocF()
			c.emit(opArithFC, dst, l, c.constIdx(n.Val), sel, 0)
			return dst
		}
		if n, isNum := x.L.(*lang.Num); isNum {
			r := c.lowerFloat(x.R)
			dst := c.allocF()
			c.emit(opArithCF, dst, r, c.constIdx(n.Val), sel, 0)
			return dst
		}
		if gs, ok := c.globalOperand(x.R); ok {
			l := c.lowerFloat(x.L)
			dst := c.allocF()
			c.emit(opArithFG, dst, l, int32(gs), sel, c.globalChk(gs, x.R.(*lang.Ident).Name))
			return dst
		}
		if gs, ok := c.globalOperand(x.L); ok {
			if slot, free := c.codeFreeFloat(x.R); free {
				dst := c.allocF()
				c.emit(opArithGF, dst, slot, int32(gs), sel, c.globalChk(gs, x.L.(*lang.Ident).Name))
				return dst
			}
		}
		l := c.lowerFloat(x.L)
		r := c.lowerFloat(x.R)
		// When the right operand was a vector-element load into a
		// statement temp, fold the arithmetic into the load: the left
		// operand is already evaluated and no code runs between the load
		// and the op, so fault order is unchanged.
		if r >= c.tempBase && len(c.code) > 0 {
			if in := &c.code[len(c.code)-1]; in.op == opVElemLd && in.a == r {
				in.op = opVElemArith
				in.e = in.c
				in.c = in.b
				in.b = l
				in.d = sel
				return r
			}
		}
		dst := c.allocF()
		c.emit(arithOp(sel), dst, l, r, 0, 0)
		return dst
	case *lang.Call:
		return c.lowerFloatCall(x)
	case *lang.Index:
		return c.lowerFloatIndex(x)
	}
	c.nc(c.loop.At, "unsupported scalar expression %T", e)
	return 0
}

// globalOperand reports whether e is a read of a pure global float
// (not shadowed by a local) and returns its global slot.
func (c *comp) globalOperand(e lang.Expr) (int, bool) {
	x, ok := e.(*lang.Ident)
	if !ok {
		return 0, false
	}
	gs, isGlobal := c.res.GlobalSlot(x.Name)
	if !isGlobal {
		return 0, false
	}
	if _, isLocal := c.res.LocalKind(x.Name); isLocal {
		return 0, false
	}
	return gs, true
}

// globalChk returns the fused check operand for a global read: -1 when
// a dominating check already proved definedness, else the name index
// the runtime check reports.
func (c *comp) globalChk(gs int, name string) int32 {
	if c.defs.g[gs] {
		return -1
	}
	c.defs.g[gs] = true
	return c.nameIdx(name)
}

// codeFreeFloat reports whether lowering e emits no instructions — a
// read of a definitely-defined float local — and returns its register.
func (c *comp) codeFreeFloat(e lang.Expr) (int32, bool) {
	x, ok := e.(*lang.Ident)
	if !ok {
		return 0, false
	}
	if _, isGlobal := c.res.GlobalSlot(x.Name); isGlobal {
		if _, isLocal := c.res.LocalKind(x.Name); !isLocal {
			return 0, false
		}
	}
	slot, ok := c.res.FloatSlot(x.Name)
	if !ok || !c.defs.f[slot] {
		return 0, false
	}
	return int32(slot), true
}

func (c *comp) lowerFloatCall(x *lang.Call) int32 {
	switch x.Fn {
	case "rand":
		dst := c.allocF()
		c.emit(opRandF, dst, 0, 0, 0, 0)
		return dst
	case "dot":
		a := c.lowerVec(x.Args[0], vecConsume)
		b := c.lowerVec(x.Args[1], vecConsume)
		dst := c.allocF()
		c.emit(opDotF, dst, a, b, 0, 0)
		return dst
	case "length":
		v := c.lowerVec(x.Args[0], vecConsume)
		dst := c.allocF()
		c.emit(opLenF, dst, v, 0, 0, 0)
		return dst
	case "min", "max":
		a := c.lowerFloat(x.Args[0])
		// A literal second argument folds into the op; NaN selection
		// depends on operand order, so only this side fuses.
		if n, isNum := x.Args[1].(*lang.Num); isNum {
			// When the first argument was a point load that just landed in
			// a statement temp, fold the clamp into the load: no code runs
			// between the two, so fault order is unchanged.
			if a >= c.tempBase && len(c.code) > 0 {
				if in := &c.code[len(c.code)-1]; in.op == opLdPtF && in.a == a {
					if x.Fn == "min" {
						in.op = opLdPtMinC
					} else {
						in.op = opLdPtMaxC
					}
					in.c = c.constIdx(n.Val)
					return a
				}
			}
			dst := c.allocF()
			if x.Fn == "min" {
				c.emit(opMinFC, dst, a, c.constIdx(n.Val), 0, 0)
			} else {
				c.emit(opMaxFC, dst, a, c.constIdx(n.Val), 0, 0)
			}
			return dst
		}
		b := c.lowerFloat(x.Args[1])
		dst := c.allocF()
		if x.Fn == "min" {
			c.emit(opMinF, dst, a, b, 0, 0)
		} else {
			c.emit(opMaxF, dst, a, b, 0, 0)
		}
		return dst
	case "abs", "abs2", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		arg := c.lowerFloat(x.Args[0])
		dst := c.allocF()
		var op opcode
		switch x.Fn {
		case "abs":
			op = opAbsF
		case "abs2":
			op = opAbs2F
		case "sqrt":
			op = opSqrtF
		case "exp":
			op = opExpF
		case "log":
			op = opLogF
		case "floor":
			op = opFloorF
		case "ceil":
			op = opCeilF
		default:
			op = opSigmoidF
		}
		c.emit(op, dst, arg, 0, 0, 0)
		return dst
	}
	c.nc(x.At, "unsupported function %q", x.Fn)
	return 0
}

func (c *comp) lowerFloatIndex(x *lang.Index) int32 {
	base := x.Base
	if base == c.loop.KeyVar {
		// A literal subscript folds into the op when it survives the
		// int64 conversion the register form would apply at runtime. The
		// load lands in the literal's pinned register; a dominating
		// opKeyC for the same literal makes later uses free — the key is
		// fixed for the whole iteration, and the first load's bounds
		// check proves every dominated re-check passes.
		if n, isNum := x.Subs[0].(*lang.Num); isNum {
			if kk, ok := keyLitConst(n); ok {
				pin := c.keyPin[kk]
				if !c.defs.key[kk] {
					c.emit(opKeyC, pin, int32(kk), 0, 0, 0)
					c.defs.key[kk] = true
				}
				return pin
			}
		}
		sub := c.lowerFloat(x.Subs[0])
		dst := c.allocF()
		c.emit(opKeyF, dst, sub, 0, 0, 0)
		return dst
	}
	if slot, isVec := c.res.VecSlot(base); isVec {
		// Definedness is checked before the subscript evaluates,
		// matching the closure backend's fall-through semantics.
		c.chkVElem(int32(slot), base, selRead)
		sub := c.lowerFloat(x.Subs[0])
		dst := c.allocF()
		c.emit(opVElemLd, dst, int32(slot), sub, 0, 0)
		return dst
	}
	ai, isArr := c.res.ArrayIndex(base)
	if !isArr {
		c.nc(x.At, "read of unknown array %q", base)
	}
	c.arrChk(int32(ai), base, selRead)
	aidx := c.newAccess(x, ai)
	dst := c.allocF()
	c.emit(opLdPtF, dst, aidx, 0, 0, 0)
	return dst
}

func (c *comp) lowerVec(e lang.Expr, mode vecMode) int32 {
	switch x := e.(type) {
	case *lang.Ident:
		if mode == vecStore {
			c.nc(x.At, "vector aliasing assignment from %q", x.Name)
		}
		slot, ok := c.res.VecSlot(x.Name)
		if !ok {
			c.nc(x.At, "variable %q has no vector slot", x.Name)
		}
		c.chkV(int32(slot), x.Name)
		return int32(slot)
	case *lang.UnOp:
		v := c.lowerVec(x.X, vecConsume)
		dst := c.allocV()
		c.emit(opVNegV, dst, v, c.newScratch(), 0, 0)
		return dst
	case *lang.BinOp:
		return c.lowerVecBin(x)
	case *lang.Call:
		// zeros is the only vector-valued builtin.
		n := c.lowerFloat(x.Args[0])
		dst := c.allocV()
		c.emit(opZerosV, dst, n, c.newScratch(), 0, 0)
		return dst
	case *lang.Index:
		return c.lowerVecIndex(x, mode)
	}
	c.nc(c.loop.At, "unsupported vector expression %T", e)
	return 0
}

func (c *comp) lowerVecBin(x *lang.BinOp) int32 {
	if len(x.Op) != 1 {
		c.nc(x.At, "operator %q is not a vector operator", x.Op)
	}
	switch x.Op[0] {
	case '+', '-', '*', '/', '^':
	default:
		c.nc(x.At, "operator %q is not a vector operator", x.Op)
	}
	lt := c.res.ExprKind(x.L)
	rt := c.res.ExprKind(x.R)
	// AxpyRow fusion: v ± s*w evaluates the three operands in the same
	// order as the unfused closures (l, then s, then w) and rounds the
	// product before the add, so results stay bitwise identical.
	if (x.Op == "+" || x.Op == "-") && lt == lang.KindVec {
		if m, isMul := x.R.(*lang.BinOp); isMul && m.Op == "*" &&
			c.res.ExprKind(m.L) == lang.KindFloat && c.res.ExprKind(m.R) == lang.KindVec {
			l := c.lowerVec(x.L, vecConsume)
			s := c.lowerFloat(m.L)
			w := c.lowerVec(m.R, vecConsume)
			dst := c.allocV()
			c.axpys = append(c.axpys, axpyInfo{w: w, sid: c.newScratch(), sub: x.Op == "-"})
			c.emit(opAxpyRow, dst, l, s, int32(len(c.axpys)-1), 0)
			return dst
		}
	}
	sel := arithSel(x.Op[0])
	sid := c.newScratch()
	switch {
	case lt == lang.KindVec && rt == lang.KindVec:
		l := c.lowerVec(x.L, vecConsume)
		r := c.lowerVec(x.R, vecConsume)
		dst := c.allocV()
		c.emit(opVBinVV, dst, l, r, sel, sid)
		return dst
	case lt == lang.KindVec:
		l := c.lowerVec(x.L, vecConsume)
		r := c.lowerFloat(x.R)
		dst := c.allocV()
		c.emit(opVBinVS, dst, l, r, sel, sid)
		return dst
	default:
		l := c.lowerFloat(x.L)
		r := c.lowerVec(x.R, vecConsume)
		dst := c.allocV()
		c.emit(opVBinSV, dst, l, r, sel, sid)
		return dst
	}
}

func (c *comp) lowerVecIndex(x *lang.Index, mode vecMode) int32 {
	ai, isArr := c.res.ArrayIndex(x.Base)
	if !isArr {
		c.nc(x.At, "read of unknown array %q", x.Base)
	}
	dims := c.res.ArrayDims(ai)
	rangeDim := -1
	full := false
	for d, sub := range x.Subs {
		if r, isRange := sub.(*lang.RangeExpr); isRange {
			rangeDim = d
			full = r.Full
		}
	}
	c.arrChk(int32(ai), x.Base, selRead)
	aidx := c.newAccess(x, ai)
	c.accs[aidx].sid = c.newScratch()
	dst := c.allocV()
	if mode == vecConsume && rangeDim == 0 && full && len(dims) >= 1 {
		c.emit(opRowViewV, dst, aidx, 0, 0, 0)
		return dst
	}
	c.emit(opRowMatV, dst, aidx, 0, 0, 0)
	return dst
}

// lowerCondJump lowers an if condition and emits the branch that skips
// the then-block, fusing float comparisons into a single compare-and-
// branch. Operand evaluation order and faults match the unfused
// opEqB..opGeB + opJmpIfNot pair. Returns the branch's pc for patching.
func (c *comp) lowerCondJump(cond lang.Expr) int {
	if x, ok := cond.(*lang.BinOp); ok {
		sel := int32(-1)
		switch x.Op {
		case "==":
			sel = cmpEq
		case "!=":
			sel = cmpNe
		case "<":
			sel = cmpLt
		case "<=":
			sel = cmpLe
		case ">":
			sel = cmpGt
		case ">=":
			sel = cmpGe
		}
		if sel >= 0 {
			l := c.lowerFloat(x.L)
			if n, isNum := x.R.(*lang.Num); isNum {
				return c.emit(opJmpCmpNot, 0, l, c.constIdx(n.Val), sel, 1)
			}
			r := c.lowerFloat(x.R)
			return c.emit(opJmpCmpNot, 0, l, r, sel, 0)
		}
	}
	b := c.lowerBool(cond)
	return c.emit(opJmpIfNot, 0, b, 0, 0, 0)
}

func (c *comp) lowerBool(e lang.Expr) int32 {
	switch x := e.(type) {
	case *lang.Bool:
		dst := c.allocB()
		v := int32(0)
		if x.Val {
			v = 1
		}
		c.emit(opConstB, dst, v, 0, 0, 0)
		return dst
	case *lang.Ident:
		slot, ok := c.res.BoolSlot(x.Name)
		if !ok {
			c.nc(x.At, "variable %q has no boolean slot", x.Name)
		}
		c.chkB(int32(slot), x.Name)
		return int32(slot)
	case *lang.BinOp:
		l := c.lowerFloat(x.L)
		r := c.lowerFloat(x.R)
		dst := c.allocB()
		switch x.Op {
		case "==":
			c.emit(opEqB, dst, l, r, 0, 0)
		case "!=":
			c.emit(opNeB, dst, l, r, 0, 0)
		case "<":
			c.emit(opLtB, dst, l, r, 0, 0)
		case "<=":
			c.emit(opLeB, dst, l, r, 0, 0)
		case ">":
			c.emit(opGtB, dst, l, r, 0, 0)
		case ">=":
			c.emit(opGeB, dst, l, r, 0, 0)
		default:
			c.nc(x.At, "unsupported boolean expression %s", e)
		}
		return dst
	}
	c.nc(c.loop.At, "unsupported boolean expression %s", e)
	return 0
}
