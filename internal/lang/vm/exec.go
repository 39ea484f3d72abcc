package vm

import "math"

// exec runs the instruction stream once (one loop-body iteration).
// Register files and side tables are hoisted into locals; every case
// either advances pc or installs a jump target. Runtime faults panic
// with vmFault and are recovered by RunIteration/RunBlock.
func (k *Kernel) exec() {
	code := k.p.code
	consts := k.p.consts
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
		switch in.op {
		case opHalt:
			return

		case opConstF:
			fr[in.a] = consts[in.b]
			pc++
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
		case opNegF:
			fr[in.a] = -fr[in.b]
			pc++
		case opAbsF:
			fr[in.a] = math.Abs(fr[in.b])
			pc++
		case opAbs2F:
			v := fr[in.b]
			fr[in.a] = v * v
			pc++
		case opSqrtF:
			fr[in.a] = math.Sqrt(fr[in.b])
			pc++
		case opExpF:
			fr[in.a] = math.Exp(fr[in.b])
			pc++
		case opLogF:
			fr[in.a] = math.Log(fr[in.b])
			pc++
		case opFloorF:
			fr[in.a] = math.Floor(fr[in.b])
			pc++
		case opCeilF:
			fr[in.a] = math.Ceil(fr[in.b])
			pc++
		case opSigmoidF:
			fr[in.a] = 1 / (1 + math.Exp(-fr[in.b]))
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
				fail("lang: key subscript %d out of range", int64(kk))
			}
			fr[in.a] = float64(key[kk-1] + 1)
			pc++
		case opLoadGU:
			fr[in.a] = gl[in.b]
			pc++
		case opArithFC:
			fr[in.a] = arith(in.d, fr[in.b], consts[in.c])
			pc++
		case opArithCF:
			fr[in.a] = arith(in.d, consts[in.c], fr[in.b])
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
		case opMinFC:
			av, bv := fr[in.b], consts[in.c]
			if av < bv {
				fr[in.a] = av
			} else {
				fr[in.a] = bv
			}
			pc++
		case opMaxFC:
			av, bv := fr[in.b], consts[in.c]
			if av < bv {
				fr[in.a] = bv
			} else {
				fr[in.a] = av
			}
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
				if in.c == selWrite {
					fail("lang: write to unknown array %q", names[in.b])
				}
				fail("lang: read of unknown array %q", names[in.b])
			}
			pc++
		case opDefV:
			k.vecDef[in.a] = true
			pc++
		case opMovV:
			vr[in.a] = vr[in.b]
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
			lv := vr[in.b]
			s := fr[in.c]
			wv := vr[ax.w]
			if len(lv) != len(wv) {
				fail("lang: vector length mismatch %d vs %d", len(lv), len(wv))
			}
			out := k.growScratch(int(ax.sid), len(lv))
			// The float64 conversions round the products exactly as the
			// unfused closure pipeline does, keeping FMA-capable
			// architectures from fusing the multiply-add.
			if ax.sub {
				for i := range lv {
					out[i] = lv[i] - float64(s*wv[i])
				}
			} else {
				for i := range lv {
					out[i] = lv[i] + float64(s*wv[i])
				}
			}
			vr[in.a] = out
			pc++

		case opArrChk:
			if k.arrays[in.a] == nil {
				if in.c == selWrite {
					fail("lang: write to unknown array %q", names[in.b])
				}
				fail("lang: read of unknown array %q", names[in.b])
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
		case opLdPtMinC:
			ra := &k.racc[in.b]
			var av float64
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[in.b])
			}
			if bv := consts[in.c]; av < bv {
				fr[in.a] = av
			} else {
				fr[in.a] = bv
			}
			pc++
		case opLdPtMaxC:
			ra := &k.racc[in.b]
			var av float64
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[in.b])
			}
			if bv := consts[in.c]; av < bv {
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
		case opStPtC:
			ra := &k.racc[in.a]
			if off, ok := ptOff(fr, ra); ok {
				data := ra.data
				switch in.c {
				case -1:
					data[off] = consts[in.b]
				case selAdd:
					data[off] += consts[in.b]
				case selSub:
					data[off] -= consts[in.b]
				case selMul:
					data[off] *= consts[in.b]
				case selDiv:
					data[off] /= consts[in.b]
				default:
					data[off] = arith(in.c, data[off], consts[in.b])
				}
			} else {
				k.stPt(&k.p.accs[in.a], consts[in.b], in.c)
			}
			pc++
		case opRowViewV:
			vr[in.a] = k.rowView(&k.p.accs[in.b])
			pc++
		case opRowMatV:
			vr[in.a] = k.rowMat(&k.p.accs[in.b])
			pc++
		case opRowStV:
			k.rowSt(&k.p.accs[in.a], vr[in.b])
			pc++
		case opRowUpdS:
			k.rowUpd(&k.p.accs[in.a], fr[in.b], nil, false)
			pc++
		case opRowUpdV:
			k.rowUpd(&k.p.accs[in.a], 0, vr[in.b], true)
			pc++
		case opBufChk:
			if k.buffers[in.a] == nil {
				fail("lang: write to unknown array %q", names[in.b])
			}
			pc++
		case opBufPut:
			k.bufPut(&k.p.baccs[in.a], fr[in.b])
			pc++
		case opBufPutC:
			k.bufPut(&k.p.baccs[in.a], consts[in.b])
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
			l := fr[in.b]
			var r float64
			if in.e != 0 {
				r = consts[in.c]
			} else {
				r = fr[in.c]
			}
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
			if in.d&1 != 0 {
				ir[2*in.a] = int64(consts[in.b])
			} else {
				ir[2*in.a] = int64(fr[in.b])
			}
			if in.d&2 != 0 {
				ir[2*in.a+1] = int64(consts[in.c])
			} else {
				ir[2*in.a+1] = int64(fr[in.c])
			}
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

		case opLdPt2C:
			// Both loads run in the unfused order, so a fault from the
			// first access fires before the second load executes.
			f := &k.p.fused[in.b]
			ra := &k.racc[f.b1]
			var av float64
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[f.b1])
			}
			if bv := consts[f.c1]; (av < bv) == (f.d1 != 0) {
				av = bv
			}
			fr[f.a1] = av
			ra = &k.racc[f.b2]
			if off, ok := ptOff(fr, ra); ok {
				av = ra.data[off]
			} else {
				av = k.ldPt(&k.p.accs[f.b2])
			}
			if bv := consts[f.c2]; (av < bv) == (f.d2 != 0) {
				av = bv
			}
			fr[f.a2] = av
			pc++
		case opAddG2Mul:
			f := &k.p.fused[in.b]
			if f.c1 >= 0 && !glDef[f.b1] {
				fail("lang: undefined variable %q", names[f.c1])
			}
			t1 := fr[f.a1] + gl[f.b1]
			if f.c2 >= 0 && !glDef[f.b2] {
				fail("lang: undefined variable %q", names[f.c2])
			}
			fr[in.a] = t1 * (fr[f.a2] + gl[f.b2])
			pc++
		case opAddGDivR:
			if in.e >= 0 && !glDef[in.c] {
				fail("lang: undefined variable %q", names[in.e])
			}
			fr[in.a] = fr[in.d] / (fr[in.b] + gl[in.c])
			pc++
		case opVStAdd:
			i := int64(fr[in.b])
			vec := vr[in.a]
			if i < 1 || int(i) > len(vec) {
				fail("lang: vector subscript %d out of range", i)
			}
			v := fr[in.c]
			vec[i-1] = v
			fr[in.d] = fr[in.e] + v
			pc++

		default:
			fail("lang: vm: invalid opcode %d at pc %d", in.op, pc)
		}
	}
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

// flatOff resolves full-rank 0-based coordinates to a flat offset into
// array ai's dense storage, for an access that spans n further elements
// along dimension rd (a point access passes rd -1). ok=false — a touched
// coordinate outside the bound window or the array, which is every
// coordinate when the binding has no dense storage, or an empty range
// (n < 0) — sends the caller to At/SetAt, whose panic is the reference
// out-of-bounds behavior.
func (k *Kernel) flatOff(ai int32, ix []int64, rd int32, n int64) (off int64, ok bool) {
	win := k.win[ai]
	for d, v := range ix {
		w := &win[d]
		last := v
		if int32(d) == rd {
			last += n
		}
		if v < w.lo || last >= w.hi || last < v {
			return 0, false
		}
		off += (v - w.lo) * w.stride
	}
	return off, true
}

// ldPt is SubscriptLoadF: a fused point read. In-bounds dense accesses
// go straight to flat storage; everything else goes through At, whose
// panic is the reference out-of-bounds behavior.
func (k *Kernel) ldPt(acc *access) float64 {
	ix := k.fillIx(acc)
	if off, ok := k.flatOff(acc.ai, ix, -1, 0); ok {
		return k.dense[acc.ai][off]
	}
	return k.arrays[acc.ai].At(ix...)
}

// stPt is SubscriptStoreF: a fused point write, plain (sel < 0) or
// compound.
func (k *Kernel) stPt(acc *access, v float64, sel int32) {
	ix := k.fillIx(acc)
	if off, ok := k.flatOff(acc.ai, ix, -1, 0); ok {
		data := k.dense[acc.ai]
		if sel >= 0 {
			v = arith(sel, data[off], v)
		}
		data[off] = v
		return
	}
	a := k.arrays[acc.ai]
	if sel >= 0 {
		v = arith(sel, a.At(ix...), v)
	}
	a.SetAt(v, ix...)
}

// rowView is the zero-copy consume borrow of a full first-dimension
// range: dense arrays return a live slice of their flat storage (the
// @view of the paper's Fig. 5); out-of-bounds trailing coordinates, a
// window that cuts the first dimension, and non-dense arrays fall back
// to element-wise At with the exact reference panics and copies.
func (k *Kernel) rowView(acc *access) []float64 {
	ai := acc.ai
	ix := k.idx[acc.ii]
	win := k.win[ai]
	inBounds := win[0].lo == 0 && win[0].hi == acc.extent
	var off int64
	for d := 1; d < len(ix); d++ {
		v, w := int64(k.fr[acc.subs[d]])-1, &win[d]
		ix[d] = v
		if v < w.lo || v >= w.hi {
			inBounds = false
		} else {
			off += (v - w.lo) * w.stride
		}
	}
	if inBounds {
		return k.dense[ai][off : off+acc.extent]
	}
	out := k.growScratch(int(acc.sid), int(acc.extent))
	k.ldRun(acc, ix, 0, out)
	return out
}

// ldRun is the range read of a binding with no flat path: the elements
// of acc's range from lo on, into out — in one call when the view takes
// whole runs and holds this one (lang.RunAccess), else through At, one
// element at a time. stRun is the range write, through SetAt.
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

// rowMat materializes a range read into the site's scratch. Fully
// in-bounds dense ranges are copied in bulk; everything else reads
// element-wise through At.
func (k *Kernel) rowMat(acc *access) []float64 {
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	out := k.growScratch(int(acc.sid), int(hi-lo+1))
	ix[acc.rangeDim] = lo
	if base, ok := k.flatOff(acc.ai, ix, acc.rangeDim, hi-lo); ok {
		gather(out, k.dense[acc.ai], base, k.win[acc.ai][acc.rangeDim].stride)
		return out
	}
	k.ldRun(acc, ix, lo, out)
	return out
}

// rowSt is a plain range store.
func (k *Kernel) rowSt(acc *access, rv []float64) {
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	if int64(len(rv)) != hi-lo+1 {
		fail("lang: %s: vector length %d does not match range %d:%d",
			k.p.names[acc.nameIdx], len(rv), lo+1, hi+1)
	}
	ix[acc.rangeDim] = lo
	if base, ok := k.flatOff(acc.ai, ix, acc.rangeDim, hi-lo); ok {
		scatter(k.dense[acc.ai], rv, base, k.win[acc.ai][acc.rangeDim].stride)
		return
	}
	k.stRun(acc, ix, lo, rv)
}

// rowUpd is a compound range update: read all current values into the
// site's scratch, apply, write all back — the same copy-then-write
// order as both reference backends.
func (k *Kernel) rowUpd(acc *access, sv float64, rv []float64, isVec bool) {
	ix := k.fillIx(acc)
	lo, hi := k.rangeBounds(acc)
	cur := k.growScratch(int(acc.sid), int(hi-lo+1))
	ix[acc.rangeDim] = lo
	base, bulk := k.flatOff(acc.ai, ix, acc.rangeDim, hi-lo)
	var step int64
	if bulk {
		step = k.win[acc.ai][acc.rangeDim].stride
		gather(cur, k.dense[acc.ai], base, step)
	} else {
		k.ldRun(acc, ix, lo, cur)
	}
	if isVec {
		if len(cur) != len(rv) {
			fail("lang: vector length mismatch %d vs %d", len(cur), len(rv))
		}
		vecOpVV(acc.sel, cur, cur, rv)
	} else {
		vecOpVS(acc.sel, cur, cur, sv)
	}
	if bulk {
		scatter(k.dense[acc.ai], cur, base, step)
		return
	}
	k.stRun(acc, ix, lo, cur)
}

func (k *Kernel) bufPut(ba *bufAccess, v float64) {
	if ba.neg {
		v = -v
	}
	ix := k.idx[ba.ii]
	for d, sr := range ba.subs {
		ix[d] = int64(k.fr[sr]) - 1
	}
	k.buffers[ba.bi].Put(v, ix...)
}
