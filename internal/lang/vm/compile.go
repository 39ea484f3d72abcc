package vm

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"orion/internal/lang"
)

// Lowering walks the slot-resolved AST once, emitting instructions
// bottom-up. It keeps no facts about what ran before: every definedness
// and presence check, and every checked form, is emitted plainly, and
// optimize (flow.go) drops what its analysis proves. Temporary registers
// are allocated monotonically over the whole body and never recycled, so
// each temp has exactly one defining instruction — the rewrites after
// lowering rely on it; locals occupy the low registers of each file so
// slot numbers double as register numbers.
//
// Evaluation-order parity with the closure backend is load-bearing:
// definedness checks precede subscript evaluation for vector-local
// reads, assignment right-hand sides are evaluated before target
// checks, array nil checks precede subscript evaluation, and subscripts
// evaluate in dimension order with lo before hi. Each emission site
// below mirrors the closure lang.CompileLoop builds for the same node
// (internal/lang/compile.go). A literal lowers to its pin and emits no
// code, so it keeps the order wherever it sits.

type comp struct {
	res  *lang.Resolution
	loop *lang.Loop

	code   []instr
	names  []string
	nameIx map[string]int32
	infos  []opInfo
	accs   []access
	baccs  []bufAccess
	axpys  []axpyInfo
	pend   []instr

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
	nGlob, nArr, nBuf            int32
	fTop, vTop, bTop             int32
	maxF                         int32
	nFor                         int32
	nScratch                     int32
	idxSizes                     []int
	lanes                        []laneLoop
	forNotes                     []string
	// laneNeeds lists per inner for loop, in source order, the locals
	// its lane-wise form reads as loop-invariant scalars or vectors,
	// which must be defined on every path to its header; refused holds,
	// by loop, why optimize found one that may not be.
	laneNeeds [][]laneNeed
	refused   map[int32]string
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
	globals, arrays, buffers := res.Globals(), res.Arrays(), res.Buffers()
	// A lane loop optimize refuses is refused up front when the body
	// lowers again, so the refusal leaves nothing behind.
	var c *comp
	refused := map[int32]string{}
	for c == nil || !c.optimize() {
		c = &comp{res: res, loop: loop, code: make([]instr, 0, 64), names: make([]string, 0, 16),
			nameIx: make(map[string]int32, 16), keyPin: map[int64]int32{}, numPin: map[uint64]int32{},
			nFloatLoc: int32(res.NumFloat()), nVecLoc: int32(res.NumVec()), nBoolLoc: int32(res.NumBool()),
			nGlob: int32(len(globals)), nArr: int32(len(arrays)), nBuf: int32(len(buffers)), refused: refused}
		c.tempBase = c.nFloatLoc
		c.collectKeyLits(loop.Body)
		c.fTop, c.vTop, c.bTop = c.tempBase, c.nVecLoc, c.nBoolLoc
		c.maxF = c.fTop
		c.lowerStmts(loop.Body)
		c.emit(opHalt, 0, 0, 0, 0, 0)
	}
	p = &Prog{
		loop:        loop,
		code:        c.code,
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
		nVReg:       int(c.vTop),
		nBReg:       int(c.bTop),
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

// pinVal records one number pin: a float register filled with a
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
// float64 — so a negated literal has its own pin and, like a literal,
// evaluates to no code.
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
// literal value, a negated literal's folded value included. Pinned
// registers sit between the locals and the statement temps and survive
// statement boundaries: one executed opKeyC serves every dominated use
// of the same key literal — the key slice is fixed for the whole
// iteration — and number pins are written once at kernel construction,
// so a literal operand costs no instruction at all.
func (c *comp) collectKeyLits(body []lang.Stmt) {
	var visitExpr func(e lang.Expr)
	visitExpr = func(e lang.Expr) {
		if v, isNum := numLit(e); isNum {
			key := math.Float64bits(v)
			if _, have := c.numPin[key]; !have {
				c.numPin[key] = c.tempBase
				c.pinVals = append(c.pinVals, pinVal{reg: c.tempBase, val: v})
				c.tempBase++
			}
			return
		}
		switch x := e.(type) {
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

// allocF takes a new float register; laneFor's refusals roll fTop back,
// so maxF is the file's size. Vector and bool registers are never
// returned.
func (c *comp) allocF() int32 {
	c.fTop++
	c.maxF = max(c.maxF, c.fTop)
	return c.fTop - 1
}

func (c *comp) allocV() int32 {
	c.vTop++
	return c.vTop - 1
}

func (c *comp) allocB() int32 {
	c.bTop++
	return c.bTop - 1
}

// pin returns the register collectKeyLits pinned literal value v to.
// Every literal the lowering reaches was pinned, so a miss is a compiler
// bug and panics rather than read whatever register 0 holds.
func (c *comp) pin(v float64) int32 {
	r, ok := c.numPin[math.Float64bits(v)]
	if !ok {
		panic(fmt.Sprintf("vm: literal %v has no pinned register", v))
	}
	return r
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

// check emits a definedness or presence check of local, array or buffer
// x, naming it in its fault (sel picks a vector element's or array's
// read/write message); optimize drops every check the facts prove.
func (c *comp) check(op opcode, x int32, name string, sel int32) {
	c.emit(op, x, c.nameIdx(name), sel, 0, 0)
}

// retarget points the producer of statement temp rhs at local slot
// instead, reporting whether it could: the nearest instruction before
// that is not a definedness check must write rhs in its field a, as
// roles says w. The temp dies at the statement boundary, so renaming its
// destination is safe, and a check between can only fault, which leaves
// the local unobservable.
func (c *comp) retarget(w role, slot, rhs, temps int32) bool {
	for pc := len(c.code) - 1; pc >= 0 && rhs >= temps; pc-- {
		in := &c.code[pc]
		if r := roles[in.op][0]; r&^(vec|boo) != chk {
			if r == w && in.a == rhs {
				in.a = slot
				return true
			}
			return false
		}
	}
	return false
}

// arithOp maps an arithmetic selector to its register-register opcode.
// opAddF..opPowF run in selector order.
func arithOp(sel int32) opcode { return opAddF + opcode(sel) }

func (c *comp) newScratch() int32 {
	id := c.nScratch
	c.nScratch++
	return id
}

func (c *comp) newIdx(n int) int32 {
	c.idxSizes = append(c.idxSizes, n)
	return int32(len(c.idxSizes) - 1)
}

// arithSel maps an arithmetic operator, or a compound assignment's
// first byte, to its selector, -1 for none (a plain "=").
func arithSel(op byte) int32 { return int32(strings.IndexByte("+-*/^", op)) }

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
		c.lowerStmts(s.Then)
		if len(s.Else) > 0 {
			jEnd := c.emit(opJmp, 0, 0, 0, 0, 0)
			c.patch(jElse, c.here())
			c.lowerStmts(s.Else)
			c.patch(jEnd, c.here())
		} else {
			c.patch(jElse, c.here())
		}
	case *lang.ForRange:
		lo := c.lowerFloat(s.Lo)
		hi := c.lowerFloat(s.Hi)
		slot, ok := c.res.FloatSlot(s.Var)
		if !ok {
			c.nc(s.At, "inner loop variable %q has no float slot", s.Var)
		}
		forID := c.nFor
		c.nFor++
		c.emit(opForInit, forID, lo, hi, 0, 0)
		// A qualifying loop runs lane-wise unless its guard fails.
		ln, why := c.laneFor(s, int32(slot), forID)
		if c.forNotes = append(c.forNotes, why); ln != nil {
			c.emit(opLanes, int32(len(c.lanes)), 0, 0, 0, 0)
			c.lanes = append(c.lanes, *ln)
		}
		head := c.here()
		cond := c.emit(opForCond, forID, int32(slot), 0, 0, 0)
		c.lowerStmts(s.Body)
		// The fused for-next re-checks the bound, spends the budget, and
		// binds the loop variable itself — one dispatch per trip instead
		// of a jump back through opForCond, which now only runs on entry.
		next := c.emit(opForNext, forID, int32(head+1), 0, int32(slot), 0)
		exit := int32(c.here())
		c.code[cond].c = exit
		c.code[next].c = exit
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
			return
		}
		c.emit(opCompG, int32(gs), rhs, arithSel(s.Op[0]), c.infoIdx(s.Op, name), 0)
		return
	}
	kind, _ := c.res.LocalKind(name)
	switch kind {
	case lang.KindFloat:
		slot, _ := c.res.FloatSlot(name)
		rhs := c.lowerFloat(s.Value)
		if s.Op != "=" {
			c.emit(opCompF, int32(slot), rhs, arithSel(s.Op[0]), c.infoIdx(s.Op, name), 0)
			return
		}
		if rhs != int32(slot) && !c.retarget(wF, int32(slot), rhs, c.tempBase) {
			c.emit(opMovF, int32(slot), rhs, 0, 0, 0)
		}
		c.emit(opDefF, int32(slot), 0, 0, 0, 0)
	case lang.KindBool:
		if s.Op != "=" {
			c.nc(s.At, "compound assignment to boolean %q", name)
		}
		slot, _ := c.res.BoolSlot(name)
		rhs := c.lowerBool(s.Value)
		if rhs != int32(slot) && !c.retarget(wB, int32(slot), rhs, c.nBoolLoc) {
			c.emit(opMovB, int32(slot), rhs, 0, 0, 0)
		}
		c.emit(opDefB, int32(slot), 0, 0, 0, 0)
	case lang.KindVec:
		slot, _ := c.res.VecSlot(name)
		if s.Op == "=" {
			// lowerVec refuses aliasing (q = p), and every other vector
			// value is a temp its producer wrote last.
			if !c.retarget(wV, int32(slot), c.lowerVec(s.Value, vecStore), c.nVecLoc) {
				c.nc(s.At, "vector assignment to %q copies a header", name)
			}
			c.emit(opDefV, int32(slot), 0, 0, 0, 0)
			return
		}
		sel := arithSel(s.Op[0])
		sid := c.newScratch()
		if c.res.ExprKind(s.Value) == lang.KindFloat {
			rhs := c.lowerFloat(s.Value)
			c.emit(opVCompS, int32(slot), rhs, sel, sid, c.infoIdx(s.Op, name))
			return
		}
		rhs := c.lowerVec(s.Value, vecConsume)
		c.emit(opVCompV, int32(slot), rhs, sel, sid, c.infoIdx(s.Op, name))
	default:
		c.nc(s.At, "assignment to %q has no inferable type", name)
	}
}

func (c *comp) lowerVecElemAssign(s *lang.Assign, t *lang.Index, slot int32) {
	rhs := c.lowerFloat(s.Value)
	c.check(opChkVElem, slot, t.Base, selWrite)
	sub := c.lowerFloat(t.Subs[0])
	sel := arithSel(s.Op[0]) // -1 for "="
	c.emit(opVElemSt, slot, sub, rhs, sel, 0)
}

func (c *comp) lowerBufferWrite(s *lang.Assign, t *lang.Index, bi int32) {
	rhs := c.lowerFloat(s.Value)
	c.check(opBufChk, bi, t.Base, 0)
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
	sel := arithSel(s.Op[0]) // -1 for "="
	hasRange := slices.ContainsFunc(t.Subs, func(e lang.Expr) bool { _, r := e.(*lang.RangeExpr); return r })
	// The value evaluates before the presence check.
	op, rhs := opStPtF, int32(0)
	switch {
	case !hasRange:
		rhs = c.lowerFloat(s.Value)
	case s.Op == "=":
		op, rhs = opRowStV, c.lowerVec(s.Value, vecWrite)
	case c.res.ExprKind(s.Value) == lang.KindFloat:
		op, rhs = opRowUpdS, c.lowerFloat(s.Value)
	default:
		op, rhs = opRowUpdV, c.lowerVec(s.Value, vecWrite)
	}
	c.check(opArrChk, int32(ai), t.Base, selWrite)
	aidx := c.newAccess(t, ai)
	if hasRange {
		// A range update keeps its arith selector in the access.
		if sel >= 0 {
			c.accs[aidx].sel, c.accs[aidx].sid = sel, c.newScratch()
		}
		sel = 0
	}
	c.emit(op, aidx, rhs, sel, 0, 0)
}

// emitF emits op with a new float temp as its destination and returns
// the temp; emitV is emitF for a vector temp. Go evaluates a call's
// arguments first, so operands lowered in them take the lower temps.
func (c *comp) emitF(op opcode, b, cc, d, e int32) int32 {
	dst := c.allocF()
	c.emit(op, dst, b, cc, d, e)
	return dst
}

func (c *comp) emitV(op opcode, b, cc, d, e int32) int32 {
	dst := c.allocV()
	c.emit(op, dst, b, cc, d, e)
	return dst
}

func (c *comp) lowerFloat(e lang.Expr) int32 {
	if v, isNum := numLit(e); isNum {
		return c.pin(v)
	}
	switch x := e.(type) {
	case *lang.Ident:
		if gs, isGlobal := c.globalOperand(x); isGlobal {
			return c.emitF(opLoadG, int32(gs), c.nameIdx(x.Name), 0, 0)
		}
		slot, ok := c.res.FloatSlot(x.Name)
		if !ok {
			c.nc(x.At, "variable %q has no float slot", x.Name)
		}
		c.check(opChkF, int32(slot), x.Name, 0)
		return int32(slot)
	case *lang.UnOp:
		return c.emitF(opNegF, c.lowerFloat(x.X), 0, 0, 0)
	case *lang.BinOp:
		if len(x.Op) != 1 || arithSel(x.Op[0]) < 0 {
			c.nc(x.At, "operator %q is not a scalar operator", x.Op)
		}
		sel := arithSel(x.Op[0])
		// Fused global operands. Each keeps the unfused evaluation order:
		// a global folds where its check runs last anyway (right operand),
		// or before a local's definedness check, the right operand's only
		// code, which then runs after the op: computing with an undefined
		// local's register cannot fault, and the check's fault leaves the
		// result unread.
		if gs, ok := c.globalOperand(x.R); ok {
			return c.emitF(opArithFG, c.lowerFloat(x.L), int32(gs), sel, c.nameIdx(x.R.(*lang.Ident).Name))
		}
		if gs, ok := c.globalOperand(x.L); ok {
			if slot, ok := c.floatLocal(x.R); ok {
				dst := c.emitF(opArithGF, slot, int32(gs), sel, c.nameIdx(x.L.(*lang.Ident).Name))
				c.check(opChkF, slot, x.R.(*lang.Ident).Name, 0)
				return dst
			}
		}
		l := c.lowerFloat(x.L)
		r := c.lowerFloat(x.R)
		// When the right operand was a vector-element load into a
		// statement temp, fold the arithmetic into the load: the left
		// operand is already evaluated and no code runs between the load
		// and the op, so fault order is unchanged.
		if n := len(c.code) - 1; r >= c.tempBase && c.code[n].op == opVElemLd && c.code[n].a == r {
			in := &c.code[n]
			in.op, in.b, in.c, in.d, in.e = opVElemArith, l, in.b, sel, in.c
			return r
		}
		return c.emitF(arithOp(sel), l, r, 0, 0)
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
	if _, isLocal := c.res.LocalKind(x.Name); isLocal {
		return 0, false
	}
	return c.res.GlobalSlot(x.Name)
}

// floatLocal reports whether e is a read of a float local, and its slot.
func (c *comp) floatLocal(e lang.Expr) (int32, bool) {
	x, ok := e.(*lang.Ident)
	if _, isGlobal := c.globalOperand(e); !ok || isGlobal {
		return 0, false
	}
	slot, ok := c.res.FloatSlot(x.Name)
	return int32(slot), ok
}

func (c *comp) lowerFloatCall(x *lang.Call) int32 {
	switch x.Fn {
	case "rand":
		return c.emitF(opRandF, 0, 0, 0, 0)
	case "dot":
		return c.emitF(opDotF, c.lowerVec(x.Args[0], vecConsume), c.lowerVec(x.Args[1], vecConsume), 0, 0)
	case "length":
		return c.emitF(opLenF, c.lowerVec(x.Args[0], vecConsume), 0, 0, 0)
	case "min", "max":
		a := c.lowerFloat(x.Args[0])
		b := c.lowerFloat(x.Args[1])
		// When the first argument was a point load that just landed in a
		// statement temp and the second emitted no code (a literal), the
		// clamp folds into the load: no code runs between the two, so
		// fault order is unchanged. NaN selection depends on operand
		// order, so only this side fuses.
		if n := len(c.code) - 1; a >= c.tempBase && c.code[n].op == opLdPtF && c.code[n].a == a {
			c.code[n].op, c.code[n].c = opLdPtMin+fnOps[x.Fn]-opMinF, b
			return a
		}
		return c.emitF(fnOps[x.Fn], a, b, 0, 0)
	case "abs", "abs2", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		return c.emitF(fnOps[x.Fn], c.lowerFloat(x.Args[0]), 0, 0, 0)
	}
	c.nc(x.At, "unsupported function %q", x.Fn)
	return 0
}

func (c *comp) lowerFloatIndex(x *lang.Index) int32 {
	base := x.Base
	if base == c.loop.KeyVar {
		// A literal subscript folds into the op when it survives the
		// int64 conversion the register form would apply at runtime. The
		// load lands in the literal's pinned register; optimize drops it
		// where a load of the same literal dominates — the key is fixed
		// for the whole iteration, and the first load's bounds check
		// proves every dominated re-check passes.
		if n, isNum := x.Subs[0].(*lang.Num); isNum {
			if kk, ok := keyLitConst(n); ok {
				c.emit(opKeyC, c.keyPin[kk], int32(kk), 0, 0, 0)
				return c.keyPin[kk]
			}
		}
		return c.emitF(opKeyF, c.lowerFloat(x.Subs[0]), 0, 0, 0)
	}
	if slot, isVec := c.res.VecSlot(base); isVec {
		// Definedness is checked before the subscript evaluates,
		// matching the closure backend's fall-through semantics.
		c.check(opChkVElem, int32(slot), base, selRead)
		return c.emitF(opVElemLd, int32(slot), c.lowerFloat(x.Subs[0]), 0, 0)
	}
	ai, isArr := c.res.ArrayIndex(base)
	if !isArr {
		c.nc(x.At, "read of unknown array %q", base)
	}
	c.check(opArrChk, int32(ai), base, selRead)
	return c.emitF(opLdPtF, c.newAccess(x, ai), 0, 0, 0)
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
		c.check(opChkV, int32(slot), x.Name, 0)
		return int32(slot)
	case *lang.UnOp:
		return c.emitV(opVNegV, c.lowerVec(x.X, vecConsume), c.newScratch(), 0, 0)
	case *lang.BinOp:
		return c.lowerVecBin(x)
	case *lang.Call:
		// zeros is the only vector-valued builtin.
		return c.emitV(opZerosV, c.lowerFloat(x.Args[0]), c.newScratch(), 0, 0)
	case *lang.Index:
		return c.lowerVecIndex(x, mode)
	}
	c.nc(c.loop.At, "unsupported vector expression %T", e)
	return 0
}

func (c *comp) lowerVecBin(x *lang.BinOp) int32 {
	if len(x.Op) != 1 || arithSel(x.Op[0]) < 0 {
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
			c.axpys = append(c.axpys, axpyInfo{w: w, c: -1, acc: -1, sid: c.newScratch(), sub: x.Op == "-"})
			return c.emitV(opAxpyRow, l, s, int32(len(c.axpys)-1), 0)
		}
	}
	sel, sid := arithSel(x.Op[0]), c.newScratch()
	switch {
	case lt == lang.KindVec && rt == lang.KindVec:
		return c.emitV(opVBinVV, c.lowerVec(x.L, vecConsume), c.lowerVec(x.R, vecConsume), sel, sid)
	case lt == lang.KindVec:
		return c.emitV(opVBinVS, c.lowerVec(x.L, vecConsume), c.lowerFloat(x.R), sel, sid)
	}
	return c.emitV(opVBinSV, c.lowerFloat(x.L), c.lowerVec(x.R, vecConsume), sel, sid)
}

func (c *comp) lowerVecIndex(x *lang.Index, mode vecMode) int32 {
	ai, isArr := c.res.ArrayIndex(x.Base)
	if !isArr {
		c.nc(x.At, "read of unknown array %q", x.Base)
	}
	c.check(opArrChk, int32(ai), x.Base, selRead)
	aidx := c.newAccess(x, ai)
	acc := &c.accs[aidx]
	acc.sid = c.newScratch()
	if mode == vecConsume && acc.rangeDim == 0 && acc.full {
		return c.emitV(opRowViewV, aidx, 0, 0, 0)
	}
	return c.emitV(opRowMatV, aidx, 0, 0, 0)
}

// cmpSels maps a comparison operator to its selector.
var cmpSels = map[string]int32{"==": cmpEq, "!=": cmpNe, "<": cmpLt, "<=": cmpLe, ">": cmpGt, ">=": cmpGe}

// lowerCondJump lowers an if condition and emits the branch that skips
// the then-block, fusing float comparisons into a single compare-and-
// branch. Operand evaluation order and faults match the unfused
// opEqB..opGeB + opJmpIfNot pair. Returns the branch's pc for patching.
func (c *comp) lowerCondJump(cond lang.Expr) int {
	if x, ok := cond.(*lang.BinOp); ok {
		if sel, ok := cmpSels[x.Op]; ok {
			l := c.lowerFloat(x.L)
			return c.emit(opJmpCmpNot, 0, l, c.lowerFloat(x.R), sel, 0)
		}
	}
	return c.emit(opJmpIfNot, 0, c.lowerBool(cond), 0, 0, 0)
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
		c.check(opChkB, int32(slot), x.Name, 0)
		return int32(slot)
	case *lang.BinOp:
		l, r := c.lowerFloat(x.L), c.lowerFloat(x.R)
		sel, ok := cmpSels[x.Op]
		if !ok {
			c.nc(x.At, "unsupported boolean expression %s", e)
		}
		dst := c.allocB()
		c.emit(opEqB+opcode(sel), dst, l, r, 0, 0) // opEqB..opGeB in selector order
		return dst
	}
	c.nc(c.loop.At, "unsupported boolean expression %s", e)
	return 0
}

// Lane-wise inner loops. An inner `for v = lo:hi` also lowers to a
// laneLoop when no trip can see another's values, or fault once
// runLanes' guard has passed, except through a reduction or an if's
// local, which run in trip order. Its statements are assignments to a
// scalar local assigned before it is read in a trip (lane-private), to
// a vector local at [v], or to a reduction s = s + e (s += e), s's only
// assignment, which a read after it in the trip sees as its partial
// sums; and if nests without else whose statements assign one float
// local that no other statement touches, comparing operands of the
// trip with that local. Their operands are arithmetic, min, max and the
// scalar builtins over those, the loop variable, array reads at one
// subscript v or v ± c, and loop-invariant scalars — literals, globals,
// literal key subscripts, and defined locals the body does not assign —
// which the other subscripts must be. Anything else stays a scalar
// loop, and laneFor says why.

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
	assigns map[string]int     // assignments per name outside the ifs, a vector's element writes included
	sel     map[string]bool    // the locals the ifs assign
	ready   map[string]bool    // lane-private locals assigned so far in a trip
	red     map[string]int     // reductions lowered so far: 1 + their fold's op
	memo    map[[2]int32]int32 // lane register of (0 private | 1 vector slot, x) or (4, 0) the loop variable; fr one of (2 global | 3 key, x)
}

// laneFor returns s's lane-wise form, or nil and why it has none; a
// refusal leaves no access site, index buffer, scratch or temp behind.
// The locals the form reads must be defined on every path in, which
// only optimize knows: a loop whose laneNeeds it finds may not be is
// refused here when the body lowers again.
func (c *comp) laneFor(s *lang.ForRange, slot, forID int32) (ln *laneLoop, why string) {
	c.laneNeeds = append(c.laneNeeds, nil)
	if why := c.refused[forID]; why != "" {
		return nil, why
	}
	nAcc, nIdx, nScratch, fTop := len(c.accs), len(c.idxSizes), c.nScratch, c.fTop
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(laneRefusal)
			if !ok {
				panic(r)
			}
			c.accs, c.idxSizes, c.nScratch, c.fTop = c.accs[:nAcc], c.idxSizes[:nIdx], nScratch, fTop
			c.laneNeeds[forID] = nil
			ln, why = nil, string(rf)
		}
	}()
	lc := &laneComp{c: c, v: s.Var, ln: &laneLoop{forID: forID, varSlot: slot}, assigns: map[string]int{},
		sel: map[string]bool{}, ready: map[string]bool{}, red: map[string]int{}, memo: map[[2]int32]int32{}}
	for _, st := range s.Body {
		switch a := st.(type) {
		case *lang.Assign:
			if t, ok := a.Target.(*lang.Ident); ok {
				lc.assigns[t.Name]++
			} else {
				lc.assigns[a.Target.(*lang.Index).Base]++
			}
		case *lang.If:
			if name := lc.selects(a); name != "" {
				lc.local(name)
				lc.sel[name] = true
			}
		case *lang.ForRange:
			refuse("not innermost")
		default:
			refuse("expression statement")
		}
	}
	for _, st := range s.Body {
		if x, isIf := st.(*lang.If); isIf {
			lc.ifNest(x)
		} else {
			lc.assign(st.(*lang.Assign))
		}
	}
	return lc.ln, ""
}

// selects returns the one local if nest x assigns ("" for none),
// refusing any other shape.
func (lc *laneComp) selects(x *lang.If) (local string) {
	if len(x.Else) > 0 {
		refuse("if with else")
	}
	for _, st := range x.Then {
		var name string
		switch s := st.(type) {
		case *lang.If:
			name = lc.selects(s)
		case *lang.Assign:
			t, ok := s.Target.(*lang.Ident)
			if !ok {
				refuse("if writes %s", s.Target)
			}
			name = t.Name
		case *lang.ForRange:
			refuse("not innermost")
		default:
			refuse("expression statement")
		}
		if name != "" && local != "" && name != local {
			refuse("if assigns %s and %s", local, name)
		}
		if name != "" {
			local = name
		}
	}
	return local
}

// ifNest lowers if nest x: its operands become lane ops at this point of
// the trip, its comparisons and assignments sels.
func (lc *laneComp) ifNest(x *lang.If) {
	cond, _ := x.Cond.(*lang.BinOp)
	cmp, ok := int32(0), false
	if cond != nil {
		cmp, ok = cmpSels[cond.Op]
	}
	if !ok {
		refuse("if condition %s", x.Cond)
	}
	at := len(lc.ln.sels)
	a := lc.selOperand(cond.L)
	lc.ln.sels = append(lc.ln.sels, laneSel{cmp: cmp, a: a, b: lc.selOperand(cond.R)})
	for _, st := range x.Then {
		if y, isIf := st.(*lang.If); isIf {
			lc.ifNest(y)
			continue
		}
		asg := st.(*lang.Assign)
		slot := lc.local(asg.Target.(*lang.Ident).Name)
		lc.ln.sels = append(lc.ln.sels, laneSel{cmp: -1, a: lc.selOperand(rhs(asg)), b: slot})
	}
	lc.ln.sels[at].skip = int32(len(lc.ln.sels) - at - 1)
}

// selOperand lowers an operand of an if nest: a local the ifs assign is
// read as it stands when its step runs, anything else as a lane operand,
// copied when another statement of the trip may overwrite the register
// it names before the sels run.
func (lc *laneComp) selOperand(e lang.Expr) int32 {
	if id, ok := e.(*lang.Ident); ok && lc.sel[id.Name] {
		return ^lc.float(id.Name)
	}
	o := lc.expr(e, -1)
	switch x := e.(type) {
	case *lang.Ident:
		if lc.assigns[x.Name] > 1 {
			o = lc.op(opMovF, -1, o, o)
		}
	case *lang.Index:
		if _, isVec := lc.c.res.VecSlot(x.Base); isVec && lc.assigns[x.Base] > 0 {
			o = lc.op(opMovF, -1, o, o)
		}
	}
	return o
}

// rhs is the value a's target takes: a compound s op= e is s op e.
func rhs(a *lang.Assign) lang.Expr {
	if a.Op != "=" {
		return &lang.BinOp{Op: a.Op[:1], L: a.Target, R: a.Value}
	}
	return a.Value
}

// local returns the slot of the float local name a lane loop assigns.
func (lc *laneComp) local(name string) int32 {
	kind, _ := lc.c.res.LocalKind(name)
	_, isGlobal := lc.c.res.GlobalSlot(name)
	switch {
	case name == lc.v:
		refuse("assigns the loop variable")
	case isGlobal:
		refuse("assigns global %s", name)
	case kind != lang.KindFloat:
		refuse("assigns %s local %s", kind, name)
	}
	slot, _ := lc.c.res.FloatSlot(name)
	return int32(slot)
}

func (lc *laneComp) assign(a *lang.Assign) {
	res := lc.c.res
	value := rhs(a)
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
	switch {
	case name == lc.v:
		refuse("assigns the loop variable")
	case lc.sel[name]:
		refuse("assigns %s outside its if", name)
	}
	if b, ok := value.(*lang.BinOp); ok && b.Op == "+" && lc.assigns[name] == 1 {
		if l, ok := b.L.(*lang.Ident); ok && l.Name == name {
			// The fold adds e's lanes in trip order to s's value at entry.
			op := laneOp{op: opCompF, a: lc.expr(b.R, -1), scan: -1}
			if isGlobal {
				op.op, op.dst = opCompG, int32(gs)
				lc.load(int32(gs), 0)
			} else {
				op.dst = lc.float(name)
			}
			lc.ln.ops = append(lc.ln.ops, op)
			lc.red[name] = len(lc.ln.ops)
			return
		}
	}
	slot := lc.local(name)
	key := [2]int32{0, slot}
	if _, seen := lc.memo[key]; !seen {
		lc.memo[key] = lc.newReg(laneReg{kind: laneTemp, x: lc.c.newScratch()})
		lc.ln.outs = append(lc.ln.outs, [2]int32{slot, lc.memo[key]})
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
	if v, isNum := numLit(e); isNum {
		return ^lc.c.pin(v)
	}
	switch x := e.(type) {
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
		key := [2]int32{4, 0}
		if _, seen := lc.memo[key]; !seen {
			lc.memo[key] = lc.newReg(laneReg{kind: laneVar, x: lc.c.newScratch()})
		}
		return lc.memo[key]
	case lc.red[name] > 0:
		// A read after the fold in the trip reads its partial sums.
		op := &lc.ln.ops[lc.red[name]-1]
		if op.scan < 0 {
			op.scan = lc.newReg(laneReg{kind: laneTemp, x: lc.c.newScratch()})
		}
		return op.scan
	case lc.sel[name]:
		refuse("reads %s, which an if assigns", name)
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

// float returns the slot of a float local, which must be defined on
// every path in.
func (lc *laneComp) float(name string) int32 {
	slot, ok := lc.c.res.FloatSlot(name)
	if !ok {
		refuse("%s may be undefined", name)
	}
	lc.need(fileF, int32(slot), name)
	return int32(slot)
}

// laneNeed is a local a lane loop reads, which optimize asks is defined
// on every path to the loop's header: a lane loop whose first such local
// may be undefined is dropped, and says so.
type laneNeed struct {
	file regFile
	slot int32
	name string
}

func (lc *laneComp) need(f regFile, slot int32, name string) {
	needs := &lc.c.laneNeeds[lc.ln.forID]
	*needs = append(*needs, laneNeed{f, slot, name})
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
	lc.need(fileV, int32(slot), x.Base)
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
