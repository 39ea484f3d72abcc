package vm

import (
	"fmt"
	"math"
	"slices"

	"orion/internal/lang"
)

// Lowering walks the slot-resolved AST once, emitting instructions
// bottom-up. Temporary registers are allocated monotonically over the
// whole body and never recycled, so each temp has exactly one defining
// instruction — the rewrites after lowering (optimize) rely on it; locals
// occupy the low registers of each file so slot numbers double as
// register numbers.
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
	pend    []instr

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
	lanes                        []laneLoop
	forNotes                     []string
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
	c.fTop, c.vTop, c.bTop = c.tempBase, c.nVecLoc, c.nBoolLoc
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
	c.optimize()
	c.finalize()
	p = &Prog{
		loop:        loop,
		code:        c.code,
		consts:      c.consts,
		names:       c.names,
		infos:       c.infos,
		accs:        c.accs,
		baccs:       c.baccs,
		axpys:       c.axpys,
		pend:        c.pend,
		pins:        c.pinVals,
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
		lanes:       c.lanes,
		forNotes:    c.forNotes,
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

// numLit reports whether e is a numeric literal or the negation of one,
// and its value. Constant negation folds — -(c) is -c bitwise for
// float64 — so a negated literal folds into an op wherever a literal
// does, and like one evaluates to no code.
func numLit(e lang.Expr) (float64, bool) {
	switch x := e.(type) {
	case *lang.Num:
		return x.Val, true
	case *lang.UnOp:
		if n, isNum := x.X.(*lang.Num); isNum {
			return -n.Val, true
		}
	}
	return 0, false
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
// opAddF..opPowF run in selector order.
func arithOp(sel int32) opcode { return opAddF + opcode(sel) }

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

// Post-lowering rewrites. optimize runs four rewrites over the lowered
// code, each inside one basic block — a straight run of instructions no
// jump enters or leaves mid-way — and each bitwise-neutral, fault text
// and fault order included:
//
//   - cse shares a pure scalar value computed twice;
//   - foldChecks folds a presence check into its access's miss path;
//   - fuseRows fuses a single-use c*v into the AxpyRow reading it, and
//     that AxpyRow into the range store reading its result;
//   - borrowRows lets a column local view its array instead of copying
//     it when no read of it could tell.
//
// They rest on one def/use table, operands, which names every fr and vr
// register an instruction reads or writes, those of its access site,
// buffer site, AxpyRow shape or lane loop included. Every statement temp
// has one defining instruction (lowering never recycles temps), so a
// temp read anywhere reads the value its one definition left.
func (c *comp) optimize() {
	keep := make([]bool, len(c.code))
	for i := range keep {
		keep[i] = true
	}
	lead := c.leaders()
	c.cse(keep, lead)
	c.foldChecks(keep, lead)
	// A header copy (opMovV) may alias two vector registers, which the
	// vector rewrites do not track.
	if !slices.ContainsFunc(c.code, func(in instr) bool { return in.op == opMovV }) {
		c.fuseRows(keep, lead)
		c.borrowRows(keep, lead)
	}
	c.compact(keep)
}

// leaders marks the first instruction of each basic block: the entry,
// every jump target, and every instruction after one that may jump.
func (c *comp) leaders() []bool {
	lead := make([]bool, len(c.code)+1)
	lead[0] = true
	for pc, in := range c.code {
		switch in.op {
		case opJmp, opJmpIfNot, opJmpCmpNot:
			lead[in.a] = true
		case opForCond:
			lead[in.c] = true
		case opForNext:
			lead[in.b], lead[in.c] = true, true
		case opLanes:
			lead[c.code[pc+1].c] = true
		case opHalt:
		default:
			continue
		}
		lead[pc+1] = true
	}
	return lead
}

// regFile names the register file an operand indexes.
type regFile int8

const (
	fileF regFile = iota
	fileV
)

// reg is register r of file f; r < 0 names none.
type reg struct {
	f regFile
	r int32
}

// A role says what one instruction field names: a register it reads
// (rd), writes (wr) or both, in fr or, with vec, in vr.
type role uint8

const (
	rd role = 1 << iota
	wr
	vec

	noReg  = role(0)
	rF, wF = rd, wr
	rwF    = rd | wr
	rV, wV = rd | vec, wr | vec
	rwV    = rd | wr | vec
)

// roles is the def/use table: per opcode, the role of its fields a..e.
// Access sites, buffer sites, AxpyRow shapes and lane loops, and the
// fields whose role depends on another field, are added by operands.
var roles = func() (t [opLanes + 1][5]role) {
	for _, g := range []struct {
		ops []opcode
		r   [5]role
	}{
		{[]opcode{opConstF, opLoadG, opLoadGU, opRandF, opKeyC, opLdPtF, opLdPtMinC, opLdPtMaxC}, [5]role{wF}},
		{[]opcode{opMovF, opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF,
			opKeyF, opArithFC, opArithCF, opArithFG, opArithGF, opMinFC, opMaxFC}, [5]role{wF, rF}},
		{[]opcode{opAddF, opSubF, opMulF, opDivF, opPowF, opMinF, opMaxF}, [5]role{wF, rF, rF}},
		{[]opcode{opCompF}, [5]role{rwF, rF}},
		{[]opcode{opStoreG, opCompG, opStPtF, opRowUpdS, opBufPut, opJmpCmpNot}, [5]role{noReg, rF}},
		{[]opcode{opEqB, opNeB, opLtB, opLeB, opGtB, opGeB}, [5]role{noReg, rF, rF}},
		{[]opcode{opLenF}, [5]role{wF, rV}},
		{[]opcode{opDotF}, [5]role{wF, rV, rV}},
		{[]opcode{opVElemArith}, [5]role{wF, rF, rV, noReg, rF}},
		{[]opcode{opVElemLd}, [5]role{wF, rV, rF}},
		{[]opcode{opChkV, opChkVElem}, [5]role{rV}},
		{[]opcode{opMovV, opVNegV}, [5]role{wV, rV}},
		{[]opcode{opVElemSt}, [5]role{rwV, rF, rF}}, // writes the vector's elements
		{[]opcode{opVCompS}, [5]role{rwV, rF}},
		{[]opcode{opVCompV}, [5]role{rwV, rV}},
		{[]opcode{opVBinVV}, [5]role{wV, rV, rV}},
		{[]opcode{opVBinVS}, [5]role{wV, rV, rF}},
		{[]opcode{opVBinSV}, [5]role{wV, rF, rV}},
		{[]opcode{opAxpyRow}, [5]role{wV, rV, rF}}, // a: only when it does not store
		{[]opcode{opZerosV}, [5]role{wV, rF}},
		{[]opcode{opRowViewV, opRowMatV}, [5]role{wV}},
		{[]opcode{opRowStV, opRowUpdV}, [5]role{noReg, rV}},
		{[]opcode{opForCond}, [5]role{noReg, wF}},
		{[]opcode{opForNext}, [5]role{noReg, noReg, noReg, wF}},
	} {
		for _, op := range g.ops {
			t[op] = g.r
		}
	}
	return t
}()

// operands calls visit for every fr and vr register in reads (def false),
// then every one it writes (def true); visit may rename the register
// through r. Boolean registers are not visited.
func (c *comp) operands(in *instr, visit func(f regFile, r *int32, def bool)) {
	rs := roles[in.op]
	var extra []*int32 // fr reads beyond the fields: sites and shapes
	if x, _ := c.siteOf(in); x >= 0 {
		acc := &c.accs[x]
		for d := range acc.subs {
			if acc.subs[d] >= 0 {
				extra = append(extra, &acc.subs[d])
			}
		}
		if acc.loReg >= 0 {
			extra = append(extra, &acc.loReg, &acc.hiReg)
		}
	}
	switch in.op {
	case opBufPut, opBufPutC:
		for d := range c.baccs[in.a].subs {
			extra = append(extra, &c.baccs[in.a].subs[d])
		}
	case opAxpyRow:
		ax := &c.axpys[in.d]
		visit(fileV, &ax.w, false)
		if ax.c >= 0 {
			extra = append(extra, &ax.c)
		}
		if ax.acc >= 0 {
			rs[0] = noReg
		}
	case opJmpCmpNot:
		if in.e == 0 {
			rs[2] = rF
		}
	case opForInit:
		if in.d&1 == 0 {
			rs[1] = rF
		}
		if in.d&2 == 0 {
			rs[2] = rF
		}
	case opLanes:
		c.laneOperands(&c.lanes[in.a], visit)
		return
	}
	for _, r := range extra {
		visit(fileF, r, false)
	}
	fields := [5]*int32{&in.a, &in.b, &in.c, &in.d, &in.e}
	for _, pass := range []role{rd, wr} {
		for i, r := range rs {
			if r&pass == 0 {
				continue
			}
			f := fileF
			if r&vec != 0 {
				f = fileV
			}
			visit(f, fields[i], pass == wr)
		}
	}
}

// laneOperands is operands for a lane loop: scalar operands and site
// subscripts are read, a vector local read and written, and the guard's
// loads, each site's lo/hi registers, a lane-private local and an fr
// fold target written.
func (c *comp) laneOperands(ln *laneLoop, visit func(f regFile, r *int32, def bool)) {
	var defs, vecs []*int32
	for i := range ln.regs {
		switch r := &ln.regs[i]; r.kind {
		case laneVec:
			visit(fileV, &r.x, false)
			vecs = append(vecs, &r.x)
		case laneSite:
			acc := &c.accs[r.x]
			for d := range acc.subs {
				if acc.subs[d] >= 0 {
					visit(fileF, &acc.subs[d], false)
				}
			}
			defs = append(defs, &acc.loReg, &acc.hiReg)
		}
	}
	for i := range ln.ops {
		op := &ln.ops[i]
		for _, o := range []*int32{&op.a, &op.b} {
			if *o < 0 {
				r := ^*o
				visit(fileF, &r, false)
				*o = ^r
			}
		}
		if op.op == opCompF {
			visit(fileF, &op.dst, false)
			defs = append(defs, &op.dst)
		}
	}
	for i := range ln.loads {
		defs = append(defs, &ln.loads[i].reg)
	}
	for i := range ln.outs {
		defs = append(defs, &ln.outs[i][0])
	}
	for _, r := range defs {
		visit(fileF, r, true)
	}
	for _, r := range vecs {
		visit(fileV, r, true)
	}
}

// defines reports whether in writes register r of file f.
func (c *comp) defines(in *instr, f regFile, r int32) bool {
	hit := false
	c.operands(in, func(ff regFile, rr *int32, def bool) {
		hit = hit || (def && ff == f && *rr == r)
	})
	return hit
}

// cseKey identifies a pure scalar op's value: its opcode and operands.
// A global read (g >= 0) is one value whether it checks definedness or
// not.
type cseKey struct {
	op      opcode
	b, c, d int32
}

// cseVal is an available value: the temp holding it, and the fr
// registers and global it was computed from.
type cseVal struct {
	reg int32
	src [2]int32
	g   int32
}

// pureScalar returns in's key and operands when in computes a scalar from
// fr registers, constants and globals alone, and whether it can also be
// removed: it raises no fault (a global read that checks definedness
// cannot).
func pureScalar(in *instr) (k cseKey, v cseVal, removable, ok bool) {
	v = cseVal{src: [2]int32{-1, -1}, g: -1}
	k = cseKey{op: in.op, b: in.b}
	switch in.op {
	case opAddF, opSubF, opMulF, opDivF, opPowF, opMinF, opMaxF:
		k.c, v.src = in.c, [2]int32{in.b, in.c}
	case opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF:
		v.src[0] = in.b
	case opArithFC, opArithCF, opMinFC, opMaxFC:
		k.c, k.d, v.src[0] = in.c, in.d, in.b
	case opLoadG, opLoadGU:
		k.op, v.g = opLoadGU, in.b
		return k, v, in.op == opLoadGU, true
	case opArithFG, opArithGF:
		k.c, k.d, v.src[0], v.g = in.c, in.d, in.b, in.c
		return k, v, in.e < 0, true
	default:
		return k, v, false, false
	}
	return k, v, true, true
}

// cse removes a pure scalar op whose value an earlier op of its block
// left in a temp: the same opcode and operands, none of them written in
// between. The removed op's destination must be a temp too; every read
// of it reads the earlier temp instead, whose one definition dominates
// them all. A removed op raises no fault and writes nothing but its
// register, so results and faults are unchanged.
func (c *comp) cse(keep, lead []bool) {
	avail := map[cseKey]cseVal{}
	rename := map[int32]int32{}
	for pc := range c.code {
		if lead[pc] {
			clear(avail)
		}
		in := &c.code[pc]
		c.operands(in, func(f regFile, r *int32, def bool) {
			if to, ok := rename[*r]; ok && f == fileF && !def {
				*r = to
			}
		})
		key, val, removable, pure := pureScalar(in)
		if have, ok := avail[key]; ok && pure && removable && in.a >= c.tempBase {
			rename[in.a] = have.reg
			keep[pc] = false
			continue
		}
		c.operands(in, func(f regFile, r *int32, def bool) {
			if f != fileF || !def {
				return
			}
			for k, v := range avail {
				if v.reg == *r || v.src[0] == *r || v.src[1] == *r {
					delete(avail, k)
				}
			}
		})
		if in.op == opStoreG || in.op == opCompG {
			for k, v := range avail {
				if v.g == in.a {
					delete(avail, k)
				}
			}
		}
		if pure && in.a >= c.tempBase && in.a != val.src[0] && in.a != val.src[1] {
			val.reg = in.a
			avail[key] = val
		}
	}
}

// cannotFault reports whether in neither faults nor changes anything but
// registers and definedness marks, which an iteration's fault leaves
// unobservable.
func cannotFault(in *instr) bool {
	switch in.op {
	case opConstF, opMovF, opDefF, opAddF, opSubF, opMulF, opDivF, opPowF,
		opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF,
		opMinF, opMaxF, opLoadGU, opArithFC, opArithCF, opMinFC, opMaxFC, opLenF,
		opConstB, opMovB, opDefB, opEqB, opNeB, opLtB, opLeB, opGtB, opGeB,
		opDefV, opMovV, opVBinVS, opVBinSV, opVNegV:
		return true
	case opArithFG, opArithGF:
		return in.e < 0
	}
	return false
}

// siteOf returns the array access site in reads or writes and whether it
// writes it, or -1.
func (c *comp) siteOf(in *instr) (site int32, write bool) {
	switch in.op {
	case opLdPtF, opLdPtMinC, opLdPtMaxC, opRowViewV, opRowMatV:
		return in.b, false
	case opStPtF, opStPtC, opRowStV, opRowUpdS, opRowUpdV:
		return in.a, true
	case opAxpyRow:
		return c.axpys[in.d].acc, true
	}
	return -1, false
}

// foldChecks deletes an opArrChk or opBufChk when the access it guards
// follows in its block with nothing between that can fault. That
// access's miss path runs the same check first (Kernel.array, bufPut),
// and a hit proves the array bound, so an unbound array or buffer faults
// at the access with the check's text, and no other fault could have
// come first. An opKeyC between, which faults on a short key, carries
// the check (pend) and runs it before its own fault. The check's later
// dominated uses stay elided: the access ran, so the check passed.
func (c *comp) foldChecks(keep, lead []bool) {
	for pc := range c.code {
		chk := c.code[pc]
		if !keep[pc] || (chk.op != opArrChk && chk.op != opBufChk) {
			continue
		}
		var keys []int
	scan:
		for j := pc + 1; j < len(c.code) && !lead[j]; j++ {
			in := &c.code[j]
			site, _ := c.siteOf(in)
			switch {
			case !keep[j] || cannotFault(in):
			case in.op == opKeyC && in.c == 0:
				keys = append(keys, j)
			case chk.op == opArrChk && site >= 0 && c.accs[site].ai == chk.a,
				chk.op == opBufChk && (in.op == opBufPut || in.op == opBufPutC) && c.baccs[in.a].bi == chk.a:
				keep[pc] = false
				if len(keys) > 0 {
					c.pend = append(c.pend, chk)
				}
				for _, kj := range keys {
					c.code[kj].c = int32(len(c.pend))
				}
				break scan
			default:
				break scan
			}
		}
	}
}

// fuseRows fuses, per opAxpyRow l ± s*w:
//
//   - w = c*v (opVBinSV) read by nothing else: the AxpyRow computes
//     l ± s*(c*v) itself, with the same roundings, and c*v is never
//     materialized. Between the two, c and v are not written, and no
//     store reaches an array v may view (a consume borrow, opRowViewV).
//   - its result, read by nothing but the opRowStV that stores it: the
//     AxpyRow takes the store's place and writes the range through the
//     site's mirror. Between the two nothing can fault or write l, s, w,
//     c or the result, so the fused op's faults come in the same order,
//     and neither l nor w may view the destination array, whose
//     elements the fused op overwrites while it still reads them.
func (c *comp) fuseRows(keep, lead []bool) {
	uses := map[int32]int{}
	views := map[int32][]int32{} // vector register → arrays it may view
	for pc := range c.code {
		in := &c.code[pc]
		if in.op == opRowViewV {
			views[in.a] = append(views[in.a], c.accs[in.b].ai)
		}
		c.operands(in, func(f regFile, r *int32, def bool) {
			if f == fileV && !def {
				uses[*r]++
			}
		})
	}
	// clean reports whether no kept instruction in (from, to) writes one
	// of regs or stores into one of arrays.
	clean := func(from, to int, regs []reg, arrays []int32) bool {
		for j := from + 1; j < to; j++ {
			in := &c.code[j]
			if !keep[j] {
				continue
			}
			for _, r := range regs {
				if r.r >= 0 && c.defines(in, r.f, r.r) {
					return false
				}
			}
			if site, write := c.siteOf(in); write && site >= 0 && slices.Contains(arrays, c.accs[site].ai) {
				return false
			}
		}
		return true
	}
	for pc := range c.code {
		in := c.code[pc]
		if !keep[pc] || in.op != opAxpyRow {
			continue
		}
		ax := &c.axpys[in.d]
		if ax.acc >= 0 {
			continue // fused below when the loop reached its first pc
		}
		if def := c.blockDef(keep, lead, pc, ax.w); uses[ax.w] == 1 && def >= 0 {
			if d := c.code[def]; d.op == opVBinSV && d.d == selMul &&
				clean(def, pc, []reg{{fileF, d.b}, {fileV, d.c}}, views[d.c]) {
				keep[def] = false
				ax.w, ax.c = d.c, d.b
			}
		}
		if uses[in.a] != 1 {
			continue
		}
		for j := pc + 1; j < len(c.code) && !lead[j]; j++ {
			st := &c.code[j]
			if !keep[j] || cannotFault(st) {
				continue
			}
			regs := []reg{{fileV, in.b}, {fileF, in.c}, {fileV, ax.w}, {fileF, ax.c}, {fileV, in.a}}
			if st.op == opRowStV && st.b == in.a && clean(pc, j, regs, nil) &&
				!slices.Contains(views[in.b], c.accs[st.a].ai) && !slices.Contains(views[ax.w], c.accs[st.a].ai) {
				ax.acc = st.a
				*st = in
				keep[pc] = false
			}
			break
		}
	}
}

// borrowRows makes a vector local's full-column read (opRowMatV) a
// zero-copy borrow (opRowViewV) where no read of the local can tell: it
// has no other definition, all its reads follow in its block, and
// nothing stores into its array before its last read — except that read
// itself when it is a fused AxpyRow storing the same column, which reads
// each element before it writes it. MF's H_row qualifies; W_row, read by
// H's update after W's, does not.
func (c *comp) borrowRows(keep, lead []bool) {
	for pc := range c.code {
		in := &c.code[pc]
		if !keep[pc] || in.op != opRowMatV || in.a >= c.nVecLoc || !c.accs[in.b].full || c.accs[in.b].rangeDim != 0 {
			continue
		}
		acc, last, ok := &c.accs[in.b], -1, true
		for j := range c.code {
			if keep[j] && j != pc {
				c.operands(&c.code[j], func(f regFile, r *int32, def bool) {
					if f == fileV && *r == in.a {
						ok, last = ok && !def && j > pc, j
					}
				})
			}
		}
		for j := pc + 1; ok && j <= last; j++ {
			site, write := c.siteOf(&c.code[j])
			switch {
			case lead[j]:
				ok = false
			case !keep[j]:
			case write && site >= 0 && c.accs[site].ai == acc.ai:
				st := &c.accs[site]
				ok = j == last && c.code[j].op == opAxpyRow && st.full && st.rangeDim == 0 && slices.Equal(st.subs, acc.subs)
			}
			for _, r := range acc.subs {
				ok = ok && (r < 0 || !c.defines(&c.code[j], fileF, r))
			}
		}
		if ok && last > pc {
			in.op = opRowViewV
		}
	}
}

// blockDef returns the pc of the last kept instruction before pc in its
// block that writes vector register r, or -1.
func (c *comp) blockDef(keep, lead []bool, pc int, r int32) int {
	for j := pc - 1; j >= 0; j-- {
		if keep[j] && c.defines(&c.code[j], fileV, r) {
			return j
		}
		if lead[j] {
			break
		}
	}
	return -1
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
		if v, isNum := numLit(s.Lo); isNum {
			flags |= 1
			lo = c.constIdx(v)
		} else {
			lo = c.lowerFloat(s.Lo)
		}
		if v, isNum := numLit(s.Hi); isNum {
			flags |= 2
			hi = c.constIdx(v)
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
		// A qualifying loop runs lane-wise unless its guard fails.
		ln, why := c.laneFor(s, int32(slot), forID)
		if c.forNotes = append(c.forNotes, why); ln != nil {
			c.emit(opLanes, int32(len(c.lanes)), 0, 0, 0, 0)
			c.lanes = append(c.lanes, *ln)
		}
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
	if v, isNum := numLit(s.Value); isNum {
		rhsConst = c.constIdx(v)
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
		if v, isNum := numLit(s.Value); isNum {
			c.arrChk(int32(ai), t.Base, selWrite)
			aidx := c.newAccess(t, ai)
			c.emit(opStPtC, aidx, c.constIdx(v), sel, 0, 0)
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
		if v, isNum := numLit(x); isNum {
			dst := c.allocF()
			c.emit(opConstF, dst, c.constIdx(v), 0, 0, 0)
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
		if v, isNum := numLit(x.R); isNum {
			l := c.lowerFloat(x.L)
			dst := c.allocF()
			c.emit(opArithFC, dst, l, c.constIdx(v), sel, 0)
			return dst
		}
		if v, isNum := numLit(x.L); isNum {
			r := c.lowerFloat(x.R)
			dst := c.allocF()
			c.emit(opArithCF, dst, r, c.constIdx(v), sel, 0)
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
		if v, isNum := numLit(x.Args[1]); isNum {
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
					in.c = c.constIdx(v)
					return a
				}
			}
			dst := c.allocF()
			if x.Fn == "min" {
				c.emit(opMinFC, dst, a, c.constIdx(v), 0, 0)
			} else {
				c.emit(opMaxFC, dst, a, c.constIdx(v), 0, 0)
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
		c.emit(fnOps[x.Fn], dst, arg, 0, 0, 0)
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
			c.axpys = append(c.axpys, axpyInfo{w: w, c: -1, acc: -1, sid: c.newScratch(), sub: x.Op == "-"})
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
			if v, isNum := numLit(x.R); isNum {
				return c.emit(opJmpCmpNot, 0, l, c.constIdx(v), sel, 1)
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

// Lane-wise inner loops. An inner `for v = lo:hi` also lowers to a
// laneLoop when no trip can see another's values, or fault once
// runLanes' guard has passed: straight-line assignments to a scalar
// local assigned before it is read in a trip (lane-private), to a vector
// local at [v], or to a reduction s = s + e (s += e) that is s's only
// assignment and read; arithmetic, min, max and the scalar builtins over
// those, array reads at one subscript v or v ± c, and loop-invariant
// scalars — literals, globals, literal key subscripts, and defined
// locals the body does not assign — which the other subscripts must be.
// Anything else stays a scalar loop, and laneFor says why.

type laneRefusal string

func refuse(format string, args ...interface{}) {
	panic(laneRefusal(fmt.Sprintf(format, args...)))
}

// fnOps maps the scalar builtins a lane op applies to their opcodes.
var fnOps = map[string]opcode{"min": opMinF, "max": opMaxF, "abs": opAbsF, "abs2": opAbs2F,
	"sqrt": opSqrtF, "exp": opExpF, "log": opLogF, "floor": opFloorF, "ceil": opCeilF,
	"sigmoid": opSigmoidF}

// laneComp is laneFor's state for one loop.
type laneComp struct {
	c       *comp
	v       string // the loop variable
	ln      *laneLoop
	assigns map[string]int     // assignments per name in the body
	ready   map[string]bool    // lane-private locals assigned so far in a trip
	red     map[string]bool    // reductions lowered so far
	memo    map[[2]int32]int32 // lane register of (0 private | 1 vector slot, x); fr one of (2 global | 3 key, x)
}

// laneFor returns s's lane-wise form, or nil and why it has none; a
// refusal leaves no access site, index buffer, scratch or temp behind.
func (c *comp) laneFor(s *lang.ForRange, slot, forID int32) (ln *laneLoop, why string) {
	nAcc, nIdx, nScratch, fTop := len(c.accs), len(c.idxSizes), c.nScratch, c.fTop
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(laneRefusal)
			if !ok {
				panic(r)
			}
			c.accs, c.idxSizes, c.nScratch, c.fTop = c.accs[:nAcc], c.idxSizes[:nIdx], nScratch, fTop
			ln, why = nil, string(rf)
		}
	}()
	lc := &laneComp{c: c, v: s.Var, ln: &laneLoop{forID: forID, varSlot: slot},
		assigns: map[string]int{}, ready: map[string]bool{}, red: map[string]bool{}, memo: map[[2]int32]int32{}}
	for _, st := range s.Body {
		switch a := st.(type) {
		case *lang.Assign:
			if t, ok := a.Target.(*lang.Ident); ok {
				lc.assigns[t.Name]++
			}
		case *lang.If:
			refuse("if statement")
		case *lang.ForRange:
			refuse("not innermost")
		default:
			refuse("expression statement")
		}
	}
	for _, st := range s.Body {
		lc.assign(st.(*lang.Assign))
	}
	return lc.ln, ""
}

func (lc *laneComp) assign(a *lang.Assign) {
	res := lc.c.res
	value := a.Value
	if a.Op != "=" {
		value = &lang.BinOp{Op: a.Op[:1], L: a.Target, R: a.Value}
	}
	t, isIdent := a.Target.(*lang.Ident)
	if !isIdent {
		x := a.Target.(*lang.Index)
		slot, isVec := res.VecSlot(x.Base)
		if !isVec || x.Base == lc.c.loop.KeyVar {
			refuse("writes %s", x)
		}
		lc.into(value, lc.vec(x, slot))
		return
	}
	name := t.Name
	gs, isGlobal := res.GlobalSlot(name)
	kind, _ := res.LocalKind(name)
	if name == lc.v {
		refuse("assigns the loop variable")
	}
	if b, ok := value.(*lang.BinOp); ok && b.Op == "+" && lc.assigns[name] == 1 {
		if l, ok := b.L.(*lang.Ident); ok && l.Name == name {
			// The fold adds e's lanes in trip order to s's value at entry.
			lc.red[name] = true
			op := laneOp{op: opCompF, a: lc.expr(b.R, -1)}
			if isGlobal {
				op.op, op.dst = opCompG, int32(gs)
				lc.load(int32(gs), 0)
			} else {
				op.dst = lc.float(name)
			}
			lc.ln.ops = append(lc.ln.ops, op)
			return
		}
	}
	switch {
	case isGlobal:
		refuse("assigns global %s", name)
	case kind != lang.KindFloat:
		refuse("assigns %s local %s", kind, name)
	}
	slot, _ := res.FloatSlot(name)
	key := [2]int32{0, int32(slot)}
	if _, seen := lc.memo[key]; !seen {
		lc.memo[key] = lc.newReg(laneReg{kind: laneTemp, x: lc.c.newScratch()})
		lc.ln.outs = append(lc.ln.outs, [2]int32{int32(slot), lc.memo[key]})
	}
	lc.into(value, lc.memo[key])
	lc.ready[name] = true
}

// into lowers e with its result in lane register dst.
func (lc *laneComp) into(e lang.Expr, dst int32) {
	if r := lc.expr(e, dst); r != dst {
		lc.op(opMovF, dst, r, r)
	}
}

// expr lowers e to an operand — lane register o >= 0, or loop-invariant
// scalar fr[^o] — and an op it emits last writes dst when dst >= 0.
func (lc *laneComp) expr(e lang.Expr, dst int32) int32 {
	switch x := e.(type) {
	case *lang.Num:
		return ^lc.c.numPin[math.Float64bits(x.Val)]
	case *lang.Ident:
		return lc.ident(x.Name)
	case *lang.UnOp:
		a := lc.expr(x.X, -1)
		return lc.op(opNegF, dst, a, a)
	case *lang.BinOp:
		l := lc.expr(x.L, -1)
		return lc.op(arithOp(arithSel(x.Op[0])), dst, l, lc.expr(x.R, -1))
	case *lang.Call:
		op, ok := fnOps[x.Fn]
		if !ok {
			refuse("calls %s()", x.Fn)
		}
		a := lc.expr(x.Args[0], -1)
		b := a
		if len(x.Args) == 2 {
			b = lc.expr(x.Args[1], -1)
		}
		return lc.op(op, dst, a, b)
	case *lang.Index:
		return lc.index(x)
	}
	refuse("%T expression", e)
	return 0
}

// op appends op with its result in lane register dst, or in a new temp
// when dst < 0, and returns that register.
func (lc *laneComp) op(op opcode, dst, a, b int32) int32 {
	if dst < 0 {
		dst = lc.newReg(laneReg{kind: laneTemp, x: lc.c.newScratch()})
	}
	lc.ln.ops = append(lc.ln.ops, laneOp{op: op, dst: dst, a: a, b: b})
	return dst
}

func (lc *laneComp) newReg(r laneReg) int32 {
	lc.ln.regs = append(lc.ln.regs, r)
	return int32(len(lc.ln.regs) - 1)
}

// ident lowers a variable read: a lane-private local's lanes, or a
// loop-invariant scalar.
func (lc *laneComp) ident(name string) int32 {
	switch {
	case name == lc.v:
		refuse("reads the loop variable")
	case lc.red[name]:
		refuse("reads reduction %s", name)
	case lc.assigns[name] > 0 && !lc.ready[name]:
		refuse("carries %s across trips", name)
	case lc.assigns[name] > 0:
		slot, _ := lc.c.res.FloatSlot(name)
		return lc.memo[[2]int32{0, int32(slot)}]
	}
	if gs, isGlobal := lc.c.res.GlobalSlot(name); isGlobal {
		return ^lc.load(int32(gs), 0)
	}
	return ^lc.float(name)
}

// float returns the slot of a float local defined on every path in.
func (lc *laneComp) float(name string) int32 {
	slot, ok := lc.c.res.FloatSlot(name)
	if !ok || !lc.c.defs.f[slot] {
		refuse("%s may be undefined", name)
	}
	return int32(slot)
}

// load returns the fr register the guard loads global g into, or when
// key > 0 the 1-based key literal key (into its pinned register).
func (lc *laneComp) load(g, key int32) int32 {
	memo, ld := [2]int32{2, g}, laneLoad{g: g}
	if key > 0 {
		memo, ld = [2]int32{3, key}, laneLoad{reg: lc.c.keyPin[int64(key)], g: -1, key: key}
	}
	if _, seen := lc.memo[memo]; !seen {
		if key == 0 {
			ld.reg = lc.c.allocF()
		}
		lc.memo[memo] = ld.reg
		lc.ln.loads = append(lc.ln.loads, ld)
	}
	return lc.memo[memo]
}

// vec returns the lane register of vector local slot, read or written
// at x, which must be [v] of a vector a definition dominating the loop
// defines.
func (lc *laneComp) vec(x *lang.Index, slot int) int32 {
	if id, ok := x.Subs[0].(*lang.Ident); !ok || id.Name != lc.v {
		refuse("vector %s at %s", x.Base, x.Subs[0])
	}
	if !lc.c.defs.v[slot] {
		refuse("%s may be undefined", x.Base)
	}
	key := [2]int32{1, int32(slot)}
	if _, seen := lc.memo[key]; !seen {
		lc.memo[key] = lc.newReg(laneReg{kind: laneVec, x: int32(slot)})
	}
	return lc.memo[key]
}

func (lc *laneComp) index(x *lang.Index) int32 {
	res := lc.c.res
	if x.Base == lc.c.loop.KeyVar {
		if n, isNum := x.Subs[0].(*lang.Num); isNum {
			if kk, ok := keyLitConst(n); ok && kk >= 1 {
				return ^lc.load(-1, int32(kk))
			}
		}
		refuse("key subscript %s", x.Subs[0])
	}
	if slot, isVec := res.VecSlot(x.Base); isVec {
		return lc.vec(x, slot)
	}
	// The site reads its lanes as the range v+off = lo+off:hi+off, whose
	// bounds the guard writes into loReg and hiReg.
	ai, _ := res.ArrayIndex(x.Base) // ResolveLoop refused any other name
	site := laneReg{kind: laneSite}
	acc := access{ai: int32(ai), nameIdx: lc.c.nameIdx(x.Base), rangeDim: -1, dims: res.ArrayDims(ai),
		subs: make([]int32, len(x.Subs)), loReg: lc.c.allocF(), hiReg: lc.c.allocF(),
		ii: lc.c.newIdx(len(x.Subs)), sid: lc.c.newScratch(), sel: -1}
	for d, sub := range x.Subs {
		if off, ok := lc.laneSub(sub); ok && acc.rangeDim < 0 {
			acc.rangeDim, acc.subs[d], site.off = int32(d), -1, off
		} else if acc.subs[d] = ^lc.expr(sub, -1); acc.subs[d] < 0 {
			refuse("%s subscript %s varies", x.Base, sub)
		}
	}
	if acc.rangeDim < 0 {
		refuse("%s read without the loop variable", x.Base)
	}
	lc.c.accs = append(lc.c.accs, acc)
	site.x = int32(len(lc.c.accs) - 1)
	return lc.newReg(site)
}

// laneSub reports whether sub is v, v + c or v - c for an integer
// literal c, returning c's signed value.
func (lc *laneComp) laneSub(sub lang.Expr) (int64, bool) {
	if id, ok := sub.(*lang.Ident); ok {
		return 0, id.Name == lc.v
	}
	b, _ := sub.(*lang.BinOp)
	if b == nil || (b.Op != "+" && b.Op != "-") {
		return 0, false
	}
	id, _ := b.L.(*lang.Ident)
	n, _ := b.R.(*lang.Num)
	if id == nil || id.Name != lc.v || n == nil {
		return 0, false
	}
	c, ok := keyLitConst(n)
	if b.Op == "-" {
		c = -c
	}
	return c, ok
}
