package vm

import (
	"math"

	"orion/internal/lang"
)

// exec runs the instruction stream once (one loop-body iteration).
// Register files and side tables are hoisted into locals; every case
// either advances pc or installs a jump target. Runtime faults panic
// with vmFault and are recovered by RunIteration/RunBlock.
func (k *Kernel) exec() {
	code := k.p.code
	names := k.p.names
	infos := k.p.infos
	fr := k.fr
	vr := k.vr
	br := k.br
	ir := k.ir
	flDef := k.flDef
	glDef := k.glDef
	gl := k.gl
	key := k.key
	pc := 0
	for {
		in := &code[pc]
		k.ops.add(in.op)
		switch in.op {
		case opHalt:
			return

		case opMovF:
			fr[in.a] = fr[in.b]
			pc++
		case opChkF:
			if !flDef[in.a] {
				fail("lang: undefined variable %q", names[in.b])
			}
			pc++
		case opDefF:
			flDef[in.a] = true
			pc++
		case opLoadG:
			if !glDef[in.b] {
				fail("lang: undefined variable %q", names[in.c])
			}
			fr[in.a] = gl[in.b]
			pc++
		case opStoreG:
			gl[in.a] = fr[in.b]
			glDef[in.a] = true
			pc++
		case opCompG:
			v := fr[in.b]
			if !glDef[in.a] {
				info := infos[in.d]
				fail("lang: %s of undefined variable %q", info.op, info.name)
			}
			gl[in.a] = arith(in.c, gl[in.a], v)
			pc++
		case opCompF:
			v := fr[in.b]
			if !flDef[in.a] {
				info := infos[in.d]
				fail("lang: %s of undefined variable %q", info.op, info.name)
			}
			fr[in.a] = arith(in.c, fr[in.a], v)
			pc++
		case opAddF:
			fr[in.a] = fr[in.b] + fr[in.c]
			pc++
		case opSubF:
			fr[in.a] = fr[in.b] - fr[in.c]
			pc++
		case opMulF:
			fr[in.a] = fr[in.b] * fr[in.c]
			pc++
		case opDivF:
			fr[in.a] = fr[in.b] / fr[in.c]
			pc++
		case opPowF:
			fr[in.a] = math.Pow(fr[in.b], fr[in.c])
			pc++
		case opNegF, opAbsF, opAbs2F, opSqrtF, opExpF, opLogF, opFloorF, opCeilF, opSigmoidF:
			fr[in.a] = unary(in.op, fr[in.b])
			pc++
		case opMinF:
			// Same NaN behavior as the closure backend's
			// isMin == (av < bv) selection.
			av, bv := fr[in.b], fr[in.c]
			if av < bv {
				fr[in.a] = av
			} else {
				fr[in.a] = bv
			}
			pc++
		case opMaxF:
			av, bv := fr[in.b], fr[in.c]
			if av < bv {
				fr[in.a] = bv
			} else {
				fr[in.a] = av
			}
			pc++
		case opRandF:
			if k.rng == nil {
				fail("lang: rand() requires a Machine with an Rng")
			}
			fr[in.a] = k.rng.Float64()
			pc++
		case opKeyF:
			kk := int64(fr[in.b])
			if kk < 1 || int(kk) > len(key) {
				fail("lang: key subscript %d out of range", kk)
			}
			// DSL coordinates are 1-based.
			fr[in.a] = float64(key[kk-1] + 1)
			pc++
		case opKeyC:
			kk := in.b
			if kk < 1 || int(kk) > len(key) {
				if in.c > 0 {
					k.presence(&k.p.pend[in.c-1])
				}
				fail("lang: key subscript %d out of range", int64(kk))
			}
			fr[in.a] = float64(key[kk-1] + 1)
			pc++
		case opLoadGU:
			fr[in.a] = gl[in.b]
			pc++
		case opArithFG:
			if in.e >= 0 && !glDef[in.c] {
				fail("lang: undefined variable %q", names[in.e])
			}
			av, bv := fr[in.b], gl[in.c]
			switch in.d {
			case selAdd:
				fr[in.a] = av + bv
			case selSub:
				fr[in.a] = av - bv
			case selMul:
				fr[in.a] = av * bv
			case selDiv:
				fr[in.a] = av / bv
			default:
				fr[in.a] = arith(in.d, av, bv)
			}
			pc++
		case opArithGF:
			if in.e >= 0 && !glDef[in.c] {
				fail("lang: undefined variable %q", names[in.e])
			}
			fr[in.a] = arith(in.d, gl[in.c], fr[in.b])
			pc++
		case opVElemArith:
			i := int64(fr[in.e])
			vec := vr[in.c]
			if i < 1 || int(i) > len(vec) {
				fail("lang: vector subscript %d out of range", i)
			}
			av, bv := fr[in.b], vec[i-1]
			switch in.d {
			case selAdd:
				fr[in.a] = av + bv
			case selSub:
				fr[in.a] = av - bv
			case selMul:
				fr[in.a] = av * bv
			case selDiv:
				fr[in.a] = av / bv
			default:
				fr[in.a] = arith(in.d, av, bv)
			}
			pc++
		case opLenF:
			fr[in.a] = float64(len(vr[in.b]))
			pc++
		case opDotF:
			av := vr[in.b]
			bv := vr[in.c]
			if len(av) != len(bv) {
				fail("lang: dot needs two equal-length vectors")
			}
			var s float64
			for i := range av {
				s += av[i] * bv[i]
			}
			fr[in.a] = s
			pc++

		case opConstB:
			br[in.a] = in.b != 0
			pc++
		case opMovB:
			br[in.a] = br[in.b]
			pc++
		case opChkB:
			if !k.boDef[in.a] {
				fail("lang: undefined variable %q", names[in.b])
			}
			pc++
		case opDefB:
			k.boDef[in.a] = true
			pc++
		case opEqB:
			br[in.a] = fr[in.b] == fr[in.c]
			pc++
		case opNeB:
			br[in.a] = fr[in.b] != fr[in.c]
			pc++
		case opLtB:
			br[in.a] = fr[in.b] < fr[in.c]
			pc++
		case opLeB:
			br[in.a] = fr[in.b] <= fr[in.c]
			pc++
		case opGtB:
			br[in.a] = fr[in.b] > fr[in.c]
			pc++
		case opGeB:
			br[in.a] = fr[in.b] >= fr[in.c]
			pc++

		case opChkV:
			if !k.vecDef[in.a] {
				fail("lang: undefined variable %q", names[in.b])
			}
			pc++
		case opChkVElem:
			if !k.vecDef[in.a] {
				// The interpreter's lookup misses and the access falls
				// through to the (absent) array table.
				unknownArray(names[in.b], in.c)
			}
			pc++
		case opDefV:
			k.vecDef[in.a] = true
			pc++
		case opVElemLd:
			i := int64(fr[in.c])
			vec := vr[in.b]
			if i < 1 || int(i) > len(vec) {
				fail("lang: vector subscript %d out of range", i)
			}
			fr[in.a] = vec[i-1]
			pc++
		case opVElemSt:
			i := int64(fr[in.b])
			vec := vr[in.a]
			if i < 1 || int(i) > len(vec) {
				fail("lang: vector subscript %d out of range", i)
			}
			if in.d < 0 {
				vec[i-1] = fr[in.c]
			} else {
				vec[i-1] = arith(in.d, vec[i-1], fr[in.c])
			}
			pc++
		case opVCompS:
			v := fr[in.b]
			if !k.vecDef[in.a] {
				info := infos[in.e]
				fail("lang: %s of undefined variable %q", info.op, info.name)
			}
			cur := vr[in.a]
			out := k.growScratch(int(in.d), len(cur))
			vecOpVS(in.c, out, cur, v)
			vr[in.a] = out
			pc++
		case opVCompV:
			rv := vr[in.b]
			if !k.vecDef[in.a] {
				info := infos[in.e]
				fail("lang: %s of undefined variable %q", info.op, info.name)
			}
			cur := vr[in.a]
			if len(cur) != len(rv) {
				fail("lang: vector length mismatch %d vs %d", len(cur), len(rv))
			}
			out := k.growScratch(int(in.d), len(cur))
			vecOpVV(in.c, out, cur, rv)
			vr[in.a] = out
			pc++
		case opVBinVV:
			lv := vr[in.b]
			rv := vr[in.c]
			if len(lv) != len(rv) {
				fail("lang: vector length mismatch %d vs %d", len(lv), len(rv))
			}
			out := k.growScratch(int(in.e), len(lv))
			vecOpVV(in.d, out, lv, rv)
			vr[in.a] = out
			pc++
		case opVBinVS:
			lv := vr[in.b]
			out := k.growScratch(int(in.e), len(lv))
			vecOpVS(in.d, out, lv, fr[in.c])
			vr[in.a] = out
			pc++
		case opVBinSV:
			rv := vr[in.c]
			out := k.growScratch(int(in.e), len(rv))
			vecOpSV(in.d, out, fr[in.b], rv)
			vr[in.a] = out
			pc++
		case opVNegV:
			v := vr[in.b]
			out := k.growScratch(int(in.c), len(v))
			for i, e := range v {
				out[i] = -e
			}
			vr[in.a] = out
			pc++
		case opZerosV:
			nf := fr[in.b]
			if k.vecLimit > 0 && nf > float64(k.vecLimit) {
				fail("lang: zeros(%g) exceeds the vector length limit %d", nf, k.vecLimit)
			}
			out := k.growScratch(int(in.c), int(nf))
			for i := range out {
				out[i] = 0
			}
			vr[in.a] = out
			pc++
		case opAxpyRow:
			ax := &k.p.axpys[in.d]
			lv, wv := vr[in.b], vr[ax.w]
			if len(lv) != len(wv) {
				fail("lang: vector length mismatch %d vs %d", len(lv), len(wv))
			}
			s, c := fr[in.c], 1.0
			if ax.c >= 0 {
				c = fr[ax.c]
			}
			if ax.acc < 0 {
				out := k.growScratch(int(ax.sid), len(lv))
				axpy(out, lv, wv, s, c, ax.c >= 0, ax.sub)
				vr[in.a] = out
				pc++
				continue
			}
			// A fused store writes a contiguous in-window range in place:
			// an operand viewing its array views this very range
			// (borrowRows) and is read at each element before it is
			// written. A strided range scatters, and a miss materializes
			// the result and takes opRowStV's reference path.
			ra := &k.racc[ax.acc]
			base, n, ok := rgOff(fr, ra)
			if ok = ok && n == int64(len(lv)); ok && ra.s1 == 1 {
				axpy(ra.data[base:base+n], lv, wv, s, c, ax.c >= 0, ax.sub)
				pc++
				continue
			}
			out := k.growScratch(int(ax.sid), len(lv))
			axpy(out, lv, wv, s, c, ax.c >= 0, ax.sub)
			if ok {
				scatter(ra.data, out, base, ra.s1)
			} else {
				k.rowSt(&k.p.accs[ax.acc], out)
			}
			pc++

		case opArrChk:
			if k.arrays[in.a] == nil {
				unknownArray(names[in.b], in.c)
			}
			pc++
		case opLdPtF:
			// In-bounds dense point reads of the common ranks resolve
			// through the flattened runtime mirror; anything else takes
			// the ldPt slow path (reference panics included).
			ra := &k.racc[in.b]
			if off, ok := ptOff(fr, ra); ok {
				fr[in.a] = ra.data[off]
			} else {
				fr[in.a] = k.ldPt(&k.p.accs[in.b])
			}
			pc++
		case opLdPtMin:
			ra := &k.racc[in.b]
			var av float64
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[in.b])
			}
			if bv := fr[in.c]; av < bv {
				fr[in.a] = av
			} else {
				fr[in.a] = bv
			}
			pc++
		case opLdPtMax:
			ra := &k.racc[in.b]
			var av float64
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[in.b])
			}
			if bv := fr[in.c]; av < bv {
				fr[in.a] = bv
			} else {
				fr[in.a] = av
			}
			pc++
		case opStPtF:
			ra := &k.racc[in.a]
			if off, ok := ptOff(fr, ra); ok {
				data := ra.data
				switch in.c {
				case -1:
					data[off] = fr[in.b]
				case selAdd:
					data[off] += fr[in.b]
				case selSub:
					data[off] -= fr[in.b]
				case selMul:
					data[off] *= fr[in.b]
				case selDiv:
					data[off] /= fr[in.b]
				default:
					data[off] = arith(in.c, data[off], fr[in.b])
				}
			} else {
				k.stPt(&k.p.accs[in.a], fr[in.b], in.c)
			}
			pc++
		case opRowViewV:
			// A full first-dimension range (stride 1) the window holds
			// whole borrows the storage: the @view of the paper's Fig. 5.
			ra := &k.racc[in.b]
			if base, n, ok := rgOff(fr, ra); ok {
				vr[in.a] = ra.data[base : base+n]
			} else {
				vr[in.a] = k.rowMat(&k.p.accs[in.b])
			}
			pc++
		case opRowMatV:
			ra := &k.racc[in.b]
			if base, n, ok := rgOff(fr, ra); ok {
				out := k.growScratch(int(ra.sid), int(n))
				gather(out, ra.data, base, ra.s1)
				vr[in.a] = out
			} else {
				vr[in.a] = k.rowMat(&k.p.accs[in.b])
			}
			pc++
		case opRowStV:
			// A length mismatch misses too: rowSt reports it.
			ra, rv := &k.racc[in.a], vr[in.b]
			if base, n, ok := rgOff(fr, ra); ok && int64(len(rv)) == n {
				scatter(ra.data, rv, base, ra.s1)
			} else {
				k.rowSt(&k.p.accs[in.a], rv)
			}
			pc++
		case opRowUpdS:
			// Read all, apply, write all back: the reference order.
			ra := &k.racc[in.a]
			if base, n, ok := rgOff(fr, ra); ok {
				cur := k.growScratch(int(ra.sid), int(n))
				gather(cur, ra.data, base, ra.s1)
				vecOpVS(ra.sel, cur, cur, fr[in.b])
				scatter(ra.data, cur, base, ra.s1)
			} else {
				k.rowUpd(&k.p.accs[in.a], fr[in.b], nil, false)
			}
			pc++
		case opRowUpdV:
			ra, rv := &k.racc[in.a], vr[in.b]
			if base, n, ok := rgOff(fr, ra); ok && int64(len(rv)) == n {
				cur := k.growScratch(int(ra.sid), int(n))
				gather(cur, ra.data, base, ra.s1)
				vecOpVV(ra.sel, cur, cur, rv)
				scatter(ra.data, cur, base, ra.s1)
			} else {
				k.rowUpd(&k.p.accs[in.a], 0, rv, true)
			}
			pc++
		case opBufChk:
			if k.buffers[in.a] == nil {
				unknownArray(names[in.b], selWrite)
			}
			pc++
		case opBufPut:
			k.bufPut(&k.p.baccs[in.a], fr[in.b])
			pc++

		case opJmp:
			pc = int(in.a)
		case opJmpIfNot:
			if br[in.b] {
				pc++
			} else {
				pc = int(in.a)
			}
		case opJmpCmpNot:
			l, r := fr[in.b], fr[in.c]
			var taken bool
			switch in.d {
			case cmpEq:
				taken = l == r
			case cmpNe:
				taken = l != r
			case cmpLt:
				taken = l < r
			case cmpLe:
				taken = l <= r
			case cmpGt:
				taken = l > r
			default:
				taken = l >= r
			}
			if taken {
				pc++
			} else {
				pc = int(in.a)
			}
		case opForInit:
			ir[2*in.a] = int64(fr[in.b])
			ir[2*in.a+1] = int64(fr[in.c])
			pc++
		case opForCond:
			v := ir[2*in.a]
			if v > ir[2*in.a+1] {
				pc = int(in.c)
			} else {
				if k.budget != 0 {
					k.budget--
					if k.budget == 0 {
						fail("lang: step budget exhausted")
					}
				}
				fr[in.b] = float64(v)
				flDef[in.b] = true
				pc++
			}
		case opForNext:
			// Fused back-edge: re-check the bound, spend the budget, and
			// bind the loop variable exactly as opForCond would, without
			// a second dispatch through the loop head.
			v := ir[2*in.a] + 1
			ir[2*in.a] = v
			if v > ir[2*in.a+1] {
				pc = int(in.c)
			} else {
				if k.budget != 0 {
					k.budget--
					if k.budget == 0 {
						fail("lang: step budget exhausted")
					}
				}
				fr[in.d] = float64(v)
				flDef[in.d] = true
				pc = int(in.b)
			}
		case opLanes:
			pc++
			if k.runLanes(&k.p.lanes[in.a]) {
				pc = int(code[pc].c)
			}
		default:
			fail("lang: vm: invalid opcode %d at pc %d", in.op, pc)
		}
	}
}

// runLanes runs lane loop ln after opForInit, and reports whether it
// did. Its guard passes only when no scalar trip could fault: 1..1024
// trips (bounding its scratch), a budget that outlasts them, its globals
// defined, its key literals in range, its vector locals holding
// [lo, hi], and each site's lanes inside the array and any window (rgOff),
// or served whole by a lang.RunAccess view. A failed guard has written
// only registers and scratch; the scalar loop runs and faults as ever.
// A passed one runs the ops over all lanes, then the ifs (laneSels).
func (k *Kernel) runLanes(ln *laneLoop) bool {
	lo, hi := k.ir[2*ln.forID], k.ir[2*ln.forID+1]
	if hi < lo || uint64(hi-lo) >= 1<<10 || (k.budget > 0 && k.budget <= hi-lo+1) {
		return false
	}
	n, fr := int(hi-lo+1), k.fr
	for _, ld := range ln.loads {
		switch {
		case ld.g >= 0 && k.glDef[ld.g]:
			fr[ld.reg] = k.gl[ld.g]
		case ld.g < 0 && int(ld.key) <= len(k.key):
			fr[ld.reg] = float64(k.key[ld.key-1] + 1)
		default:
			return false
		}
	}
	// Runs read last: a view sees no other step of a failed guard.
	for pass := 0; pass < 2; pass++ {
		for r := range ln.regs {
			lr, ok := &ln.regs[r], true
			switch {
			case lr.kind == laneSite:
				if (k.racc[lr.x].data == nil) == (pass == 1) {
					k.lane[r], ok = k.laneSrc(lr, lo, hi)
				}
			case pass == 1:
			case lr.kind == laneVec:
				v := k.vr[lr.x]
				if ok = lo >= 1 && hi <= int64(len(v)); ok {
					k.lane[r] = v[lo-1 : hi]
				}
			case lr.kind == laneVar:
				out := k.growScratch(int(lr.x), n)
				for j := range out {
					out[j] = float64(lo + int64(j))
				}
				k.lane[r] = out
			default:
				k.lane[r] = k.growScratch(int(lr.x), n)
			}
			if !ok {
				return false
			}
		}
	}
	if k.budget != 0 {
		k.budget -= int64(n)
	}
	k.laneOps(ln.ops, n)
	k.laneSels(ln.sels, n)
	// Bind the loop variable and lane-private locals as the last trip.
	k.laneRuns++
	fr[ln.varSlot] = float64(hi)
	k.flDef[ln.varSlot] = true
	for _, o := range ln.outs {
		fr[o[0]] = k.lane[o[1]][n-1]
		k.flDef[o[0]] = true
	}
	return true
}

// laneSrc returns site lr's lanes lo+off..hi+off: a slice of the
// storage when they are contiguous, else gathered or read as a run into
// the site's scratch.
func (k *Kernel) laneSrc(lr *laneReg, lo, hi int64) ([]float64, bool) {
	acc, ra := &k.p.accs[lr.x], &k.racc[lr.x]
	k.fr[acc.loReg], k.fr[acc.hiReg] = float64(lo+lr.off), float64(hi+lr.off)
	if ra.data != nil {
		base, n, ok := rgOff(k.fr, ra)
		if !ok || ra.s1 == 1 {
			return ra.data[base : base+n], ok
		}
		out := k.growScratch(int(ra.sid), int(n))
		gather(out, ra.data, base, ra.s1)
		return out, true
	}
	// A view refuses, untouched, any run it cannot serve whole.
	run := k.runs[acc.ai]
	if run == nil {
		return nil, false
	}
	ix := k.fillIx(acc)
	l, h := k.rangeBounds(acc)
	ix[acc.rangeDim] = l
	out := k.growScratch(int(acc.sid), int(h-l+1))
	return out, run.ReadRun(out, int(acc.rangeDim), ix)
}

// laneOps runs a lane loop's ops, each applying its scalar opcode's
// arithmetic to every lane as each trip would; a fold adds the lanes in
// trip order, the scalar loop's additions in its order, and a scan keeps
// each partial sum. A scalar operand is read for every lane (mask 0).
func (k *Kernel) laneOps(ops []laneOp, n int) {
	for i := range ops {
		op := &ops[i]
		a, ma := k.laneArg(op.a)
		switch op.op {
		case opCompF, opCompG:
			s := &k.fr[op.dst]
			if op.op == opCompG {
				s = &k.gl[op.dst]
			}
			sum := *s
			if op.scan < 0 {
				for j := range n {
					sum = sum + a[j&ma]
				}
			} else {
				scan := k.lane[op.scan][:n]
				for j := range scan {
					sum = sum + a[j&ma]
					scan[j] = sum
				}
			}
			*s = sum
			continue
		}
		b, mb := k.laneArg(op.b)
		out := k.lane[op.dst]
		switch sel := int32(op.op - opAddF); op.op {
		case opAddF, opSubF, opMulF, opDivF, opPowF:
			switch {
			case ma != 0 && mb != 0:
				vecOpVV(sel, out, a, b)
			case ma != 0:
				vecOpVS(sel, out, a, b[0])
			default:
				for j := range out {
					out[j] = arith(sel, a[0], b[j&mb])
				}
			}
		case opMinF, opMaxF:
			isMin := op.op == opMinF // opMinF's and opMaxF's NaN order
			for j := range out {
				if av, bv := a[j&ma], b[j&mb]; (av < bv) == isMin {
					out[j] = av
				} else {
					out[j] = bv
				}
			}
		case opMovF:
			for j := range out {
				out[j] = a[j&ma]
			}
		default:
			for j := range out {
				out[j] = unary(op.op, a[j&ma])
			}
		}
	}
}

// laneArg returns lane operand o as a slice read at j&mask: lane
// register o's lanes (mask -1), or scalar fr[^o] for every lane (mask 0).
func (k *Kernel) laneArg(o int32) ([]float64, int) {
	if o >= 0 {
		return k.lane[o], -1
	}
	return k.fr[^o : ^o+1], 0
}

// laneSels runs a lane loop's ifs after its ops, trip by trip in trip
// order as the scalar loop does: each step reads its operands' lanes of
// the trip, and a local the ifs assign as it stands. Until a trip reads
// a lane or assigns, the next takes the same path: so a trip that does
// neither ends the walk, and one that reaches a comparison of lanes
// whose failure ends the trip goes on from the first trip for which it
// holds.
func (k *Kernel) laneSels(sels []laneSel, n int) {
	for j := 0; j < n; j++ {
		same := true
		for i := 0; i < len(sels); i++ {
			s := &sels[i]
			a, ma := k.laneArg(s.a)
			if s.cmp < 0 {
				k.fr[s.b], k.flDef[s.b], same = a[j&ma], true, false
				continue
			}
			b, mb := k.laneArg(s.b)
			switch {
			case same && ma|mb != 0 && i+int(s.skip)+1 == len(sels):
				for j < n && !compare(s.cmp, a[j&ma], b[j&mb]) {
					j++
				}
				if j == n {
					return
				}
				same = false
			case !compare(s.cmp, a[j&ma], b[j&mb]):
				i += int(s.skip)
				fallthrough
			default:
				same = same && ma|mb == 0
			}
		}
		if same {
			return
		}
	}
}

// compare is opJmpCmpNot's comparison sel of l and r, NaN included;
// exec keeps its own copy inline in the dispatch loop.
func compare(sel int32, l, r float64) bool {
	switch sel {
	case cmpEq:
		return l == r
	case cmpNe:
		return l != r
	case cmpLt:
		return l < r
	case cmpLe:
		return l <= r
	case cmpGt:
		return l > r
	}
	return l >= r
}

// unary is opNegF..opSigmoidF's arithmetic.
func unary(op opcode, v float64) float64 {
	switch op {
	case opNegF:
		return -v
	case opAbsF:
		return math.Abs(v)
	case opAbs2F:
		return v * v
	case opSqrtF:
		return math.Sqrt(v)
	case opExpF:
		return math.Exp(v)
	case opLogF:
		return math.Log(v)
	case opFloorF:
		return math.Floor(v)
	case opCeilF:
		return math.Ceil(v)
	}
	return 1 / (1 + math.Exp(-v))
}

// vecOpVV applies out[i] = l[i] op r[i]; the selector switch stays
// outside the loop. Slices may alias base-aligned (shared scratch), in
// which case forward elementwise application matches the closure
// backend exactly.
func vecOpVV(sel int32, out, l, r []float64) {
	switch sel {
	case selAdd:
		for i := range l {
			out[i] = l[i] + r[i]
		}
	case selSub:
		for i := range l {
			out[i] = l[i] - r[i]
		}
	case selMul:
		for i := range l {
			out[i] = l[i] * r[i]
		}
	case selDiv:
		for i := range l {
			out[i] = l[i] / r[i]
		}
	default:
		for i := range l {
			out[i] = math.Pow(l[i], r[i])
		}
	}
}

func vecOpVS(sel int32, out, l []float64, r float64) {
	switch sel {
	case selAdd:
		for i := range l {
			out[i] = l[i] + r
		}
	case selSub:
		for i := range l {
			out[i] = l[i] - r
		}
	case selMul:
		for i := range l {
			out[i] = l[i] * r
		}
	case selDiv:
		for i := range l {
			out[i] = l[i] / r
		}
	default:
		for i := range l {
			out[i] = math.Pow(l[i], r)
		}
	}
}

func vecOpSV(sel int32, out []float64, l float64, r []float64) {
	switch sel {
	case selAdd:
		for i := range r {
			out[i] = l + r[i]
		}
	case selSub:
		for i := range r {
			out[i] = l - r[i]
		}
	case selMul:
		for i := range r {
			out[i] = l * r[i]
		}
	case selDiv:
		for i := range r {
			out[i] = l / r[i]
		}
	default:
		for i := range r {
			out[i] = math.Pow(l, r[i])
		}
	}
}

// fillIx converts the point-subscript registers of acc into its index
// buffer (0-based), skipping the range dimension.
func (k *Kernel) fillIx(acc *access) []int64 {
	ix := k.idx[acc.ii]
	for d, sr := range acc.subs {
		if int32(d) == acc.rangeDim {
			continue
		}
		ix[d] = int64(k.fr[sr]) - 1
	}
	return ix
}

// rangeBounds returns the 0-based inclusive range bounds.
func (k *Kernel) rangeBounds(acc *access) (lo, hi int64) {
	if acc.full {
		return 0, acc.extent - 1
	}
	return int64(k.fr[acc.loReg]) - 1, int64(k.fr[acc.hiReg]) - 1
}

// The reference accessors below run whenever a site's runtime mirror
// misses (rtAcc): a coordinate outside the window or the array, a
// length mismatch, an unbound array, or a binding with no flat path —
// non-dense, rank ≥3, or a full range its window cuts. Each first runs
// the presence check of the site's array (array), so a site whose
// opArrChk optimize folded away faults here with its text; then it goes
// through the view's At/SetAt (or a served view's whole runs), whose
// panics and values are the reference behaviour.

// unknownArray raises a failed presence check's fault.
func unknownArray(name string, sel int32) {
	if sel == selWrite {
		fail("lang: write to unknown array %q", name)
	}
	fail("lang: read of unknown array %q", name)
}

// array returns the view bound to acc's array, or faults as its
// presence check (opArrChk) would.
func (k *Kernel) array(acc *access, sel int32) lang.ArrayAccess {
	a := k.arrays[acc.ai]
	if a == nil {
		unknownArray(k.p.names[acc.nameIdx], sel)
	}
	return a
}

// presence runs a presence check folded past an opKeyC, whose fault it
// precedes.
func (k *Kernel) presence(chk *instr) {
	if chk.op == opBufChk {
		if k.buffers[chk.a] == nil {
			unknownArray(k.p.names[chk.b], selWrite)
		}
	} else if k.arrays[chk.a] == nil {
		unknownArray(k.p.names[chk.b], chk.c)
	}
}

// ldPt is SubscriptLoadF's reference path.
func (k *Kernel) ldPt(acc *access) float64 {
	return k.array(acc, selRead).At(k.fillIx(acc)...)
}

// stPt is SubscriptStoreF's reference path: a point write, plain
// (sel < 0) or compound.
func (k *Kernel) stPt(acc *access, v float64, sel int32) {
	a := k.array(acc, selWrite)
	ix := k.fillIx(acc)
	if sel >= 0 {
		v = arith(sel, a.At(ix...), v)
	}
	a.SetAt(v, ix...)
}

// ldRun is the reference range read: the elements of acc's range from
// lo on, into out — in one call when the view takes whole runs and holds
// this one (lang.RunAccess), else through At, one element at a time.
// stRun is the range write, through SetAt.
func (k *Kernel) ldRun(acc *access, ix []int64, lo int64, out []float64) {
	ix[acc.rangeDim] = lo
	if ra := k.runs[acc.ai]; ra != nil && ra.ReadRun(out, int(acc.rangeDim), ix) {
		return
	}
	a := k.arrays[acc.ai]
	for i := range out {
		ix[acc.rangeDim] = lo + int64(i)
		out[i] = a.At(ix...)
	}
}

func (k *Kernel) stRun(acc *access, ix []int64, lo int64, in []float64) {
	a := k.arrays[acc.ai]
	for i, v := range in {
		ix[acc.rangeDim] = lo + int64(i)
		a.SetAt(v, ix...)
	}
}

// gather copies n elements of data, step apart from base, into out;
// scatter is its inverse.
func gather(out, data []float64, base, step int64) {
	if step == 1 {
		copy(out, data[base:base+int64(len(out))])
		return
	}
	for i := range out {
		out[i] = data[base]
		base += step
	}
}

func scatter(data, in []float64, base, step int64) {
	if step == 1 {
		copy(data[base:base+int64(len(in))], in)
		return
	}
	for i := range in {
		data[base] = in[i]
		base += step
	}
}

// rowMat is the reference range read (opRowViewV's and opRowMatV's),
// materialized into the site's scratch.
func (k *Kernel) rowMat(acc *access) []float64 {
	k.array(acc, selRead)
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	out := k.growScratch(int(acc.sid), int(hi-lo+1))
	k.ldRun(acc, ix, lo, out)
	return out
}

// rowSt is the reference plain range store.
func (k *Kernel) rowSt(acc *access, rv []float64) {
	k.array(acc, selWrite)
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	if int64(len(rv)) != hi-lo+1 {
		fail("lang: %s: vector length %d does not match range %d:%d",
			k.p.names[acc.nameIdx], len(rv), lo+1, hi+1)
	}
	k.stRun(acc, ix, lo, rv)
}

// rowUpd is the reference compound range update: read all current
// values into the site's scratch, apply, write all back — the same
// copy-then-write order as both reference backends.
func (k *Kernel) rowUpd(acc *access, sv float64, rv []float64, isVec bool) {
	k.array(acc, selWrite)
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	cur := k.growScratch(int(acc.sid), int(hi-lo+1))
	k.ldRun(acc, ix, lo, cur)
	if isVec {
		if len(cur) != len(rv) {
			fail("lang: vector length mismatch %d vs %d", len(cur), len(rv))
		}
		vecOpVV(acc.sel, cur, cur, rv)
	} else {
		vecOpVS(acc.sel, cur, cur, sv)
	}
	k.stRun(acc, ix, lo, cur)
}

// bufPut runs the presence check of the buffer (opBufChk) first, as
// the array accessors do.
func (k *Kernel) bufPut(ba *bufAccess, v float64) {
	b := k.buffers[ba.bi]
	if b == nil {
		unknownArray(k.p.names[ba.nameIdx], selWrite)
	}
	if ba.neg {
		v = -v
	}
	ix := k.idx[ba.ii]
	for d, sr := range ba.subs {
		ix[d] = int64(k.fr[sr]) - 1
	}
	b.Put(v, ix...)
}

// axpy sets out[i] = l[i] ± s*w[i], or with scaled l[i] ± s*(c*w[i]).
// The float64 conversions round each product exactly as the unfused ops
// do (c*w materialized by opVBinSV), keeping FMA-capable architectures
// from fusing the multiply-add.
func axpy(out, l, w []float64, s, c float64, scaled, sub bool) {
	out, w = out[:len(l)], w[:len(l)]
	switch {
	case scaled && sub:
		for i := range l {
			out[i] = l[i] - float64(s*float64(c*w[i]))
		}
	case scaled:
		for i := range l {
			out[i] = l[i] + float64(s*float64(c*w[i]))
		}
	case sub:
		for i := range l {
			out[i] = l[i] - float64(s*w[i])
		}
	default:
		for i := range l {
			out[i] = l[i] + float64(s*w[i])
		}
	}
}
