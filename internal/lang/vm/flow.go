package vm

import "slices"

// Post-lowering rewrites. Lowering emits every check and every checked
// form plainly; optimize then answers every question about operands
// from one def/use core: roles and operands name every register an
// instruction reads or writes (fr, vr, br and globals, those of its
// access site, buffer site, AxpyRow shape or lane loop included), and
// flow, one forward must-analysis over the basic blocks, holds what is
// true before each instruction on every path reaching it. Its clients,
// each bitwise-neutral, fault text and fault order included, are check
// elision, CSE, laneFor's definedness questions (rewrite), the dead Def*
// drop, and, inside one basic block, foldCheck and — reading def sites
// from the same walk — fuseRows and borrowRows. Every statement temp has
// one defining instruction (lowering never recycles temps), so a temp
// read anywhere reads the value its one definition left. optimize
// reports false, its work void, when a lane loop reads a local that may
// be undefined at its header; c.refused then says why, and Compile
// lowers the body again.
func (c *comp) optimize() bool {
	f := c.newFlow()
	f.solve()
	keep := make([]bool, len(c.code))
	for i := range keep {
		keep[i] = true
	}
	if !f.rewrite(keep) {
		return false
	}
	f.dropDeadDefs(keep)
	for pc := range c.code {
		if op := c.code[pc].op; keep[pc] && (op == opArrChk || op == opBufChk) {
			f.foldCheck(keep, pc)
		}
	}
	f.fuseRows(keep)
	f.borrowRows(keep)
	c.compact(keep)
	return true
}

// regFile names the register file an operand indexes: fr, vr, br, or
// the globals.
type regFile int8

const (
	fileF regFile = iota
	fileV
	fileB
	fileG
)

// A role says what one instruction field names: a register of some file
// it reads (rd), writes (wr) or both, or a local whose definedness mark
// it checks, faulting when unset (chk), or sets (set).
type role uint8

const (
	rd role = 1 << iota
	wr
	chk
	set

	vec  = role(fileV) << 4
	boo  = role(fileB) << 4
	glob = role(fileG) << 4

	noReg       = role(0)
	rF, wF, rwF = rd, wr, rd | wr
	rV, wV, rwV = rd | vec, wr | vec, rd | wr | vec
	rB, wB      = rd | boo, wr | boo
	rG, rwG     = rd | glob, rd | wr | glob
)

func (r role) file() regFile { return regFile(r >> 4) }

// roles is the def/use table: per opcode, the role of its fields a..e.
// Access sites, buffer sites, AxpyRow shapes and lane loops are added
// by operands, which also drops the vector result of an AxpyRow that
// stores; an opcode without a row names no register in its fields.
var roles = func() (t [opLanes + 1][5]role) {
	for _, g := range []struct {
		ops []opcode
		r   [5]role
	}{
		{[]opcode{opRandF, opKeyC, opLdPtF}, [5]role{wF}},
		{[]opcode{opLdPtMin, opLdPtMax}, [5]role{wF, noReg, rF}},
		{[]opcode{opLoadG, opLoadGU}, [5]role{wF, rG}},
		{[]opcode{opMovF, opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF,
			opKeyF}, [5]role{wF, rF}},
		{[]opcode{opArithFG, opArithGF}, [5]role{wF, rF, rG}},
		{[]opcode{opAddF, opSubF, opMulF, opDivF, opPowF, opMinF, opMaxF}, [5]role{wF, rF, rF}},
		{[]opcode{opChkF}, [5]role{chk}},
		{[]opcode{opDefF}, [5]role{set}},
		{[]opcode{opCompF}, [5]role{rwF | chk, rF}},
		{[]opcode{opStoreG}, [5]role{wr | glob, rF}},
		{[]opcode{opCompG}, [5]role{rwG, rF}},
		{[]opcode{opStPtF, opRowUpdS, opBufPut}, [5]role{noReg, rF}},
		{[]opcode{opJmpCmpNot, opForInit}, [5]role{noReg, rF, rF}},
		{[]opcode{opConstB}, [5]role{wB}},
		{[]opcode{opMovB}, [5]role{wB, rB}},
		{[]opcode{opChkB}, [5]role{chk | boo}},
		{[]opcode{opDefB}, [5]role{set | boo}},
		{[]opcode{opEqB, opNeB, opLtB, opLeB, opGtB, opGeB}, [5]role{wB, rF, rF}},
		{[]opcode{opJmpIfNot}, [5]role{noReg, rB}},
		{[]opcode{opLenF}, [5]role{wF, rV}},
		{[]opcode{opDotF}, [5]role{wF, rV, rV}},
		{[]opcode{opVElemArith}, [5]role{wF, rF, rV, noReg, rF}},
		{[]opcode{opVElemLd}, [5]role{wF, rV, rF}},
		{[]opcode{opChkV, opChkVElem}, [5]role{chk | vec}},
		{[]opcode{opDefV}, [5]role{set | vec}},
		{[]opcode{opVNegV}, [5]role{wV, rV}},
		{[]opcode{opVElemSt}, [5]role{rwV, rF, rF}}, // writes the vector's elements
		{[]opcode{opVCompS}, [5]role{rwV | chk, rF}},
		{[]opcode{opVCompV}, [5]role{rwV | chk, rV}},
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

// operands calls visit for every register in reads (def false), then
// every one it writes (def true); visit may rename the register through
// r.
func (c *comp) operands(in *instr, visit func(f regFile, r *int32, def bool)) {
	rs := roles[in.op]
	if x, _ := c.siteOf(in); x >= 0 {
		acc := &c.accs[x]
		for d := range acc.subs {
			if acc.subs[d] >= 0 {
				visit(fileF, &acc.subs[d], false)
			}
		}
		if acc.loReg >= 0 {
			visit(fileF, &acc.loReg, false)
			visit(fileF, &acc.hiReg, false)
		}
	}
	switch in.op {
	case opBufPut:
		for d := range c.baccs[in.a].subs {
			visit(fileF, &c.baccs[in.a].subs[d], false)
		}
	case opAxpyRow:
		ax := &c.axpys[in.d]
		visit(fileV, &ax.w, false)
		if ax.c >= 0 {
			visit(fileF, &ax.c, false)
		}
		if ax.acc >= 0 {
			rs[0] = noReg
		}
	case opLanes:
		c.laneOperands(&c.lanes[in.a], visit)
		return
	}
	fields := [5]*int32{&in.a, &in.b, &in.c, &in.d, &in.e}
	for _, pass := range [2]role{rd, wr} {
		for i, r := range rs {
			if r&pass != 0 {
				visit(r.file(), fields[i], pass == wr)
			}
		}
	}
}

// laneOperands is operands for a lane loop: scalar operands, site
// subscripts and the guard's globals are read; a vector local and a
// fold's local or global are read and written; the guard's loads, each
// site's lo/hi registers, a lane-private local and a local the ifs
// assign are written.
func (c *comp) laneOperands(ln *laneLoop, visit func(f regFile, r *int32, def bool)) {
	for _, def := range [2]bool{false, true} {
		scalar := func(o *int32) {
			if *o < 0 && !def {
				r := ^*o
				visit(fileF, &r, false)
				*o = ^r
			}
		}
		for i := range ln.regs {
			switch r := &ln.regs[i]; {
			case r.kind == laneVec:
				visit(fileV, &r.x, def)
			case r.kind == laneSite && def:
				visit(fileF, &c.accs[r.x].loReg, true)
				visit(fileF, &c.accs[r.x].hiReg, true)
			case r.kind == laneSite:
				acc := &c.accs[r.x]
				for d := range acc.subs {
					if acc.subs[d] >= 0 {
						visit(fileF, &acc.subs[d], false)
					}
				}
			}
		}
		for i := range ln.ops {
			op := &ln.ops[i]
			scalar(&op.a)
			scalar(&op.b)
			switch op.op {
			case opCompF:
				visit(fileF, &op.dst, def)
			case opCompG:
				visit(fileG, &op.dst, def)
			}
		}
		for i := range ln.sels {
			sel := &ln.sels[i]
			scalar(&sel.a)
			switch {
			case sel.cmp >= 0:
				scalar(&sel.b)
			case def:
				visit(fileF, &sel.b, true)
			}
		}
		for i := range ln.loads {
			if ld := &ln.loads[i]; def {
				visit(fileF, &ld.reg, true)
			} else if ld.g >= 0 {
				visit(fileG, &ld.g, false)
			}
		}
		for i := range ln.outs {
			if def {
				visit(fileF, &ln.outs[i][0], true)
			}
		}
	}
}

// siteOf returns the array access site in reads or writes and whether it
// writes it, or -1.
func (c *comp) siteOf(in *instr) (site int32, write bool) {
	switch in.op {
	case opLdPtF, opLdPtMin, opLdPtMax, opRowViewV, opRowMatV:
		return in.b, false
	case opStPtF, opRowStV, opRowUpdS, opRowUpdV:
		return in.a, true
	case opAxpyRow:
		return c.axpys[in.d].acc, true
	}
	return -1, false
}

// pureScalar returns the key of in's value — its opcode and operands, in
// with its destination and check cleared — when in computes a scalar
// from fr registers (literal pins included) and globals alone, and
// whether it can also be removed: it raises no fault (a global read that
// checks definedness cannot). A global read is one value whether it
// checks or not.
func pureScalar(in *instr) (k instr, removable, ok bool) {
	k = instr{op: in.op, b: in.b, c: in.c, d: in.d}
	switch in.op {
	case opAddF, opSubF, opMulF, opDivF, opPowF, opMinF, opMaxF,
		opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF:
		return k, true, true
	case opLoadG, opLoadGU:
		return instr{op: opLoadGU, b: in.b}, in.op == opLoadGU, true
	case opArithFG, opArithGF:
		return k, in.e < 0, true
	}
	return k, false, false
}

// cannotFault reports whether in neither faults nor changes anything but
// registers and definedness marks, which an iteration's fault leaves
// unobservable.
func cannotFault(in *instr) bool {
	switch in.op {
	case opMovF, opDefF, opAddF, opSubF, opMulF, opDivF, opPowF,
		opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF,
		opMinF, opMaxF, opLoadGU, opLenF,
		opConstB, opMovB, opDefB, opEqB, opNeB, opLtB, opLeB, opGtB, opGeB,
		opDefV, opVBinVS, opVBinSV, opVNegV:
		return true
	case opArithFG, opArithGF:
		return in.e < 0
	}
	return false
}

// succs calls fn for each pc control may pass to after pc, with the
// float local that edge binds (-1 for none): an inner loop's variable is
// bound on the edges into its body only.
func (c *comp) succs(pc int, fn func(to int, bind int32)) {
	switch in := &c.code[pc]; in.op {
	case opHalt:
	case opJmp:
		fn(int(in.a), -1)
	case opJmpIfNot, opJmpCmpNot:
		fn(pc+1, -1)
		fn(int(in.a), -1)
	case opForCond:
		fn(pc+1, in.b)
		fn(int(in.c), -1)
	case opForNext:
		fn(int(in.b), in.d)
		fn(int(in.c), -1)
	case opLanes:
		fn(pc+1, -1)
		fn(int(c.code[pc+1].c), -1)
	default:
		fn(pc+1, -1)
	}
}

// leaders marks the first instruction of each basic block: the entry,
// every jump target, and every instruction after one that may jump.
func (c *comp) leaders() []bool {
	lead := make([]bool, len(c.code)+1)
	lead[0] = true
	for pc := range c.code {
		c.succs(pc, func(to int, _ int32) {
			if to != pc+1 {
				lead[to], lead[pc+1] = true, true
			}
		})
	}
	return lead
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

// flow is the def/use core. A fact is one bit:
//
//   - fr register r: a float local (r < nFloatLoc) is defined; a key pin
//     holds its literal's key element (an opKeyC ran); a statement temp
//     holds the value of the pure op defining it, none of whose operands
//     was written since;
//   - vr or br register r, a vector or bool local: it is defined;
//   - a global passed its definedness check (or was stored);
//   - an array or buffer passed its presence check.
//
// Within an iteration definedness only grows and bindings are fixed for
// the run, so only an available value is ever killed: by a write to one
// of its operands (a key pin's writes keep its value). A lane loop's
// guard may fail having checked nothing, so it establishes nothing.
type flow struct {
	c     *comp
	base  [4]int32 // fact index of register 0 of each file
	arr   int32    // fact index of array 0; buffers follow the arrays
	buf   int32
	words int
	kill  []uint64 // per fact, words each: the temps whose value reads it
	// eff holds every instruction's effects in pc order, a write of x as
	// x and a gen of x as ^x, from at[pc]. No rewrite changes them: a
	// rename touches only fr reads, which establish nothing, and a
	// rewritten op writes and establishes what it did (a check it lost
	// was proven).
	eff []int32
	at  []int32

	lead  []bool
	block []int32  // per pc, its block
	in    []uint64 // per block, words each: the facts on entry

	have  []uint64 // the walk's facts
	sink  []uint64 // what the walk's steps kill, unread
	last  []int32  // per fact: the walk's last write of it (a store, for arrays), or -1
	start int32    // the walk's block's first pc
}

func (c *comp) newFlow() *flow {
	f := &flow{c: c}
	n := int32(0)
	for i, size := range []int32{c.maxF, c.vTop, c.bTop, c.nGlob} {
		f.base[i] = n
		n += size
	}
	f.arr, f.buf = n, n+c.nArr
	n += c.nArr + c.nBuf
	f.words = int(n+63) / 64
	bits := make([]uint64, int(n+2)*f.words)
	f.kill, f.have, f.sink = bits[:int(n)*f.words], bits[int(n)*f.words:][:f.words], bits[int(n+1)*f.words:]
	pcs := make([]int32, int(n)+2*len(c.code)+1)
	f.last, f.at, f.block = pcs[:n], pcs[n:][:len(c.code)+1], pcs[int(n)+len(c.code)+1:]
	f.eff = make([]int32, 0, 4*len(c.code))
	for pc := range c.code {
		f.at[pc] = int32(len(f.eff))
		f.effects(&c.code[pc])
	}
	f.at[len(c.code)] = int32(len(f.eff))
	return f
}

func (f *flow) has(x int32) bool { return f.have[x/64]&(1<<(x%64)) != 0 }

// effects appends to eff what in does when control passes it: a write
// of every register it writes (and of the array a store writes), then a
// gen of every fact it establishes, each as a fact index; and adds a
// pure op's temp to the kill set of each register it reads.
func (f *flow) effects(in *instr) {
	c := f.c
	lanes := in.op == opLanes
	_, _, pure := pureScalar(in)
	pure = pure && in.a >= c.tempBase
	c.operands(in, func(file regFile, r *int32, def bool) {
		x := f.base[file] + *r
		switch {
		case def:
			f.eff = append(f.eff, x)
		case pure:
			f.kill[int(x)*f.words+int(in.a/64)] |= 1 << (in.a % 64)
		}
		if !lanes && (file == fileG || def && file == fileF && (pure || in.op == opKeyC)) {
			f.eff = append(f.eff, ^x)
		}
	})
	fields := [5]int32{in.a, in.b, in.c, in.d, in.e}
	for i, r := range roles[in.op] {
		if r&(chk|set) != 0 {
			f.eff = append(f.eff, ^(f.base[r.file()] + fields[i]))
		}
	}
	if site, store := c.siteOf(in); site >= 0 {
		if store {
			f.eff = append(f.eff, f.arr+c.accs[site].ai)
		}
		f.eff = append(f.eff, ^(f.arr + c.accs[site].ai))
	}
	switch in.op {
	case opArrChk:
		f.eff = append(f.eff, ^(f.arr + in.a))
	case opBufChk:
		f.eff = append(f.eff, ^(f.buf + in.a))
	case opBufPut:
		f.eff = append(f.eff, ^(f.buf + c.baccs[in.a].bi))
	}
}

// step applies pc's effects to facts have, adds the temps they kill to
// killed, and records its writes as def sites. A write kills the temps
// computed from what it writes; a key pin's writes keep its value.
func (f *flow) step(pc int, have, killed []uint64) {
	for _, x := range f.eff[f.at[pc]:f.at[pc+1]] {
		if x < 0 {
			have[^x/64] |= 1 << (^x % 64)
			continue
		}
		if f.last[x] = int32(pc); x >= f.c.nFloatLoc && x < f.c.tempBase {
			continue
		}
		for w, k := range f.kill[int(x)*f.words:][:f.words] {
			have[w] &^= k
			killed[w] |= k
		}
	}
}

// gens reports whether pc establishes fact x, or with x < 0 whether
// every fact pc establishes already holds.
func (f *flow) gens(pc int, x int32) bool {
	for _, e := range f.eff[f.at[pc]:f.at[pc+1]] {
		if e < 0 && (x < 0 && !f.has(^e) || ^e == x) {
			return x >= 0
		}
	}
	return x < 0
}

// solve iterates the blocks' entry facts to the fixpoint. The entry
// block starts with the iteration value local defined and every other
// block with every fact, and each pass meets every edge's facts into its
// target's until none changes. A block's facts on exit are its entry
// facts less those it kills, plus those it establishes and keeps.
func (f *flow) solve() {
	c := f.c
	f.lead = c.leaders()
	nb := int32(-1)
	for pc := range c.code {
		if f.lead[pc] {
			nb++
		}
		f.block[pc] = nb
	}
	sum := make([]uint64, 3*int(nb+1)*f.words) // per block: what it kills, then what it establishes and keeps
	f.in, sum = sum[:int(nb+1)*f.words], sum[int(nb+1)*f.words:]
	for i := range f.in[f.words:] {
		f.in[f.words+i] = ^uint64(0)
	}
	if vs := c.res.ValSlot(); vs >= 0 {
		f.in[vs/64] |= 1 << (vs % 64)
	}
	for pc := range c.code {
		b := 2 * int(f.block[pc]) * f.words
		f.step(pc, sum[b+f.words:][:f.words], sum[b:])
	}
	for changed := true; changed; {
		changed = false
		for pc := range c.code {
			if !f.lead[pc+1] {
				continue
			}
			b := int(f.block[pc]) * f.words
			for w := range f.have {
				f.have[w] = f.in[b+w]&^sum[2*b+w] | sum[2*b+f.words+w]
			}
			c.succs(pc, func(to int, bind int32) {
				in := f.in[int(f.block[to])*f.words:][:f.words]
				for w, v := range f.have {
					if bind >= 0 && int(bind/64) == w {
						v |= 1 << (bind % 64)
					}
					if in[w]&v != in[w] {
						in[w] &= v
						changed = true
					}
				}
			})
		}
	}
}

// walk calls fn at every kept instruction in pc order, then applies its
// effects, each block starting from its fixpoint entry facts; fn may
// drop the instruction it is called at by clearing keep.
func (f *flow) walk(keep []bool, fn func(pc int)) {
	for i := range f.last {
		f.last[i] = -1
	}
	for pc := range f.c.code {
		if f.lead[pc] {
			copy(f.have, f.in[int(f.block[pc])*f.words:])
			f.start = int32(pc)
		}
		if keep[pc] {
			fn(pc)
		}
		if keep[pc] {
			f.step(pc, f.have, f.sink)
		}
	}
}

// rewrite elides what the facts prove and shares available scalars. A
// removed pure op raises no fault and writes nothing but its temp, and
// every read of that temp reads the earlier one instead, whose
// definition dominates them all. It reports false when a lane loop's
// laneNeeds fail, having recorded why in c.refused.
func (f *flow) rewrite(keep []bool) bool {
	c := f.c
	renamed, lanesOK := false, true
	rename := make([]int32, c.maxF) // a removed op's temp → 1 + the temp read instead
	keyOf := make([]instr, c.maxF)  // a kept pure op's key, by its temp
	f.walk(keep, func(pc int) {
		in := &c.code[pc]
		if renamed {
			c.operands(in, func(file regFile, r *int32, def bool) {
				if file == fileF && !def && rename[*r] > 0 {
					*r = rename[*r] - 1
				}
			})
		}
		switch in.op {
		case opChkF, opChkB, opChkV, opChkVElem, opDefF, opDefB, opDefV, opKeyC, opArrChk, opBufChk:
			keep[pc] = !f.gens(pc, -1)
		case opLoadG:
			if f.has(f.base[fileG] + in.b) {
				in.op = opLoadGU
			}
		case opArithFG, opArithGF:
			if f.has(f.base[fileG] + in.c) {
				in.e = -1
			}
		case opCompF:
			if f.has(in.a) {
				*in = instr{op: arithOp(in.c), a: in.a, b: in.a, c: in.b}
			}
		case opForInit:
			for _, n := range c.laneNeeds[in.a] {
				if !f.has(f.base[n.file] + n.slot) {
					c.refused[in.a], lanesOK = n.name+" may be undefined", false
					break
				}
			}
		}
		k, removable, pure := pureScalar(in)
		if !pure || in.a < c.tempBase {
			return
		}
		for r := c.tempBase; r < c.maxF; r++ {
			if r != in.a && keyOf[r] == k && f.has(r) {
				if removable {
					rename[in.a], keep[pc], renamed = r+1, false, true
					return
				}
				break
			}
		}
		keyOf[in.a] = k
	})
	return lanesOK
}

// dropDeadDefs drops the definedness marks no kept check reads: after
// elision, a local whose every read is proven defined has no check left,
// so its Def* writes are dead.
func (f *flow) dropDeadDefs(keep []bool) {
	c, read := f.c, f.have // the marks a kept check reads
	clear(read)
	for pc := range c.code {
		if in, r := &c.code[pc], roles[c.code[pc].op][0]; keep[pc] && r&chk != 0 {
			x := f.base[r.file()] + in.a
			read[x/64] |= 1 << (x % 64)
		}
	}
	for pc := range c.code {
		if in, r := &c.code[pc], roles[c.code[pc].op][0]; keep[pc] && r&^(vec|boo) == set {
			keep[pc] = f.has(f.base[r.file()] + in.a)
		}
	}
}

// fuseRows, per opAxpyRow l ± s*w in a block:
//
//   - w = c*v (opVBinSV) read by nothing else: the AxpyRow computes
//     l ± s*(c*v) itself, with the same roundings, and c*v is never
//     materialized. Between the two, c and v are not written, and no
//     store reaches an array v may view (a consume borrow, opRowViewV).
//   - its result read by nothing but the opRowStV that stores it: the
//     AxpyRow takes the store's place and writes the range through the
//     site's mirror. Between the two nothing can fault or write l, s, w,
//     c or the result, so faults come in the same order, and neither l
//     nor w may view the destination array, whose elements the fused op
//     overwrites while it still reads them.
func (f *flow) fuseRows(keep []bool) {
	c := f.c
	if len(c.axpys) == 0 {
		return
	}
	uses := make([]int, c.vTop)
	views := map[int32][]int32{} // vector register → arrays it may view
	for pc := range c.code {
		if in := &c.code[pc]; keep[pc] {
			if in.op == opRowViewV {
				views[in.a] = append(views[in.a], c.accs[in.b].ai)
			}
			c.operands(in, func(file regFile, r *int32, def bool) {
				if file == fileV && !def {
					uses[*r]++
				}
			})
		}
	}
	// since returns the pc of the block's last write of register r of
	// file, or of its last store to one of arrays, before the running
	// instruction; -1 for none.
	since := func(file regFile, r int32, arrays []int32) int32 {
		pc := int32(-1)
		if r >= 0 {
			pc = f.last[f.base[file]+r]
		}
		for _, a := range arrays {
			pc = max(pc, f.last[f.arr+a])
		}
		if pc < f.start {
			return -1
		}
		return pc
	}
	f.walk(keep, func(pc int) {
		in := &c.code[pc]
		switch in.op {
		case opAxpyRow:
			ax := &c.axpys[in.d]
			if def := since(fileV, ax.w, nil); uses[ax.w] == 1 && def >= 0 {
				if d := c.code[def]; d.op == opVBinSV && d.d == selMul &&
					since(fileF, d.b, nil) < def && since(fileV, d.c, views[d.c]) < def {
					keep[def] = false
					ax.w, ax.c = d.c, d.b
				}
			}
		case opRowStV:
			def := since(fileV, in.b, nil)
			if def < 0 || uses[in.b] != 1 || c.code[def].op != opAxpyRow {
				return
			}
			ax, l := &c.axpys[c.code[def].d], c.code[def].b
			if max(since(fileV, l, nil), since(fileF, c.code[def].c, nil), since(fileV, ax.w, nil), since(fileF, ax.c, nil)) > def ||
				slices.Contains(views[l], c.accs[in.a].ai) || slices.Contains(views[ax.w], c.accs[in.a].ai) {
				return
			}
			for j := def + 1; j < int32(pc); j++ {
				if keep[j] && !cannotFault(&c.code[j]) {
					return
				}
			}
			ax.acc = in.a
			*in = c.code[def]
			keep[def] = false
		}
	})
}

// foldCheck deletes the opArrChk or opBufChk at pc when the next
// instruction in its block that can fault establishes its fact with the
// same message — its access, whose miss path runs the same check first
// (Kernel.array, bufPut): an unbound array or buffer faults there with
// the check's text, and no other fault could have come first. An opKeyC
// between, which faults on a short key, carries the check (pend) and
// runs it before its own fault. Later checks the deleted one proved stay
// elided: the access establishes the same fact.
func (f *flow) foldCheck(keep []bool, pc int) {
	c := f.c
	chk := c.code[pc]
	fact := f.arr + chk.a
	if chk.op == opBufChk {
		fact = f.buf + chk.a
	}
	var buf [4]int
	keys := buf[:0]
	for j := pc + 1; j < len(c.code) && !f.lead[j]; j++ {
		in := &c.code[j]
		switch {
		case !keep[j] || cannotFault(in):
			continue
		case in.op == opKeyC && in.c == 0:
			keys = append(keys, j)
			continue
		}
		if _, store := c.siteOf(in); f.gens(j, fact) && (chk.op == opBufChk || store == (chk.c == selWrite)) {
			keep[pc] = false
			if len(keys) > 0 {
				c.pend = append(c.pend, chk)
			}
			for _, kj := range keys {
				c.code[kj].c = int32(len(c.pend))
			}
		}
		return
	}
}

// borrowRows makes a vector local's full-column read (opRowMatV) a
// zero-copy borrow (opRowViewV) where no read of the local can tell: it has no other definition, all its reads follow in
// its block, and nothing stores into its array before its last read —
// except that read itself when it is a fused AxpyRow storing the same
// column, which reads each element before it writes it. MF's H_row
// qualifies; W_row, read by H's update after W's, does not.
func (f *flow) borrowRows(keep []bool) {
	c := f.c
	defs, from := make([]int, c.nVecLoc), map[int32]int32{} // per vector local: its definitions, its column read
	for pc := range c.code {
		if in := &c.code[pc]; keep[pc] {
			for _, x := range f.eff[f.at[pc]:f.at[pc+1]] {
				if x >= f.base[fileV] && x < f.base[fileV]+c.nVecLoc {
					defs[x-f.base[fileV]]++
				}
			}
			if in.op == opRowMatV && in.a < c.nVecLoc && c.accs[in.b].full && c.accs[in.b].rangeDim == 0 {
				from[in.a] = int32(pc)
			}
		}
	}
	if len(from) == 0 {
		return
	}
	ok := map[int32]bool{}
	f.walk(keep, func(pc int) {
		in := &c.code[pc]
		site, store := c.siteOf(in)
		c.operands(in, func(file regFile, r *int32, def bool) {
			at, cand := from[*r]
			if file != fileV || def || !cand {
				return
			}
			acc := &c.accs[c.code[at].b]
			good := defs[*r] == 1 && f.block[at] == f.block[pc] && at < int32(pc) && f.last[f.arr+acc.ai] < at
			for _, s := range acc.subs {
				good = good && (s < 0 || f.last[s] < at)
			}
			if store && site >= 0 && c.accs[site].ai == acc.ai {
				st := &c.accs[site]
				good = good && in.op == opAxpyRow && st.full && st.rangeDim == 0 && slices.Equal(st.subs, acc.subs)
			}
			prev, seen := ok[*r]
			ok[*r] = good && (prev || !seen)
		})
	})
	for r, at := range from {
		if ok[r] {
			c.code[at].op = opRowViewV
		}
	}
}
