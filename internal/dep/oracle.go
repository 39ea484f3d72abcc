//lint:ignore reach the brute-force oracles Analyze and the schedules are tested against

package dep

import (
	"orion/internal/ir"
)

// Oracle performs exact, exhaustive dependence checking on small
// iteration spaces by enumerating the concrete elements each reference
// touches. It exists to validate Algorithm 2 in tests: Analyze must
// never miss a dependence the oracle finds (it may be conservative the
// other way).
type Oracle struct {
	loop   *ir.LoopSpec
	bounds map[string][]int64 // array name -> per-dimension extent
	vars   map[string]int64   // symbolic stride bindings (CoeffVar)
}

// NewOracle builds an oracle. bounds gives the extents of every
// referenced DistArray (needed to expand Full ranges and Runtime
// subscripts).
func NewOracle(loop *ir.LoopSpec, bounds map[string][]int64) *Oracle {
	return &Oracle{loop: loop, bounds: bounds}
}

// SetVar binds a symbolic stride variable for oracle evaluation — the
// concrete value a run would supply for a SubAffine CoeffVar.
func (o *Oracle) SetVar(name string, v int64) {
	if o.vars == nil {
		o.vars = make(map[string]int64)
	}
	o.vars[name] = v
}

// cell is a concrete array element.
type cell struct {
	array string
	idx   [4]int64 // supports up to 4-dim arrays, enough for tests
	n     int
}

// touches expands one reference at iteration p into the set of concrete
// cells it may touch.
func (o *Oracle) touches(r ir.ArrayRef, p []int64) []cell {
	ext := o.bounds[r.Array]
	// Enumerate the cartesian product of per-position candidate values.
	cands := make([][]int64, len(r.Subs))
	for pos, s := range r.Subs {
		var vals []int64
		switch s.Kind {
		case ir.SubIndex:
			vals = []int64{p[s.Dim] + s.Const}
		case ir.SubConst:
			vals = []int64{s.Const}
		case ir.SubRange:
			lo, hi := s.Lo, s.Hi
			if s.Full {
				lo, hi = 0, ext[pos]-1
			}
			for v := lo; v <= hi; v++ {
				vals = append(vals, v)
			}
		case ir.SubRuntime:
			for v := int64(0); v < ext[pos]; v++ {
				vals = append(vals, v)
			}
		case ir.SubAffine:
			coeff, known := s.Coeff, true
			if s.CoeffVar != "" {
				coeff, known = o.vars[s.CoeffVar]
			}
			if !known {
				// Unbound symbolic stride: any in-bounds value.
				for v := int64(0); v < ext[pos]; v++ {
					vals = append(vals, v)
				}
				break
			}
			base := coeff*(p[s.Dim]+1) + s.Const
			for t := int64(0); t < s.Span; t++ {
				vals = append(vals, base+t)
			}
		}
		cands[pos] = vals
	}
	var out []cell
	var rec func(pos int, cur cell)
	rec = func(pos int, cur cell) {
		if pos == len(cands) {
			cur.array = r.Array
			cur.n = len(cands)
			out = append(out, cur)
			return
		}
		for _, v := range cands[pos] {
			c := cur
			c.idx[pos] = v
			rec(pos+1, c)
		}
	}
	rec(0, cell{})
	return out
}

// Dependent reports whether iterations p and q carry a dependence:
// some reference pair touches a common cell with at least one write
// (write-write pairs ignored for unordered loops, matching Analyze).
func (o *Oracle) Dependent(p, q []int64) bool {
	equal := true
	for i := range p {
		if p[i] != q[i] {
			equal = false
			break
		}
	}
	if equal {
		return false
	}
	refs := effectiveRefs(o.loop.Refs)
	for _, ra := range refs {
		for _, rb := range refs {
			if !ra.IsWrite && !rb.IsWrite {
				continue
			}
			if !o.loop.Ordered && ra.IsWrite && rb.IsWrite {
				continue
			}
			ta := o.touches(ra, p)
			tb := o.touches(rb, q)
			for _, ca := range ta {
				for _, cb := range tb {
					if ca == cb {
						return true
					}
				}
			}
		}
	}
	return false
}

// Iterations enumerates the full (small) iteration space.
func (o *Oracle) Iterations() [][]int64 {
	var out [][]int64
	n := o.loop.NumDims()
	cur := make([]int64, n)
	var rec func(d int)
	rec = func(d int) {
		if d == n {
			c := make([]int64, n)
			copy(c, cur)
			out = append(out, c)
			return
		}
		for v := int64(0); v < o.loop.Dims[d]; v++ {
			cur[d] = v
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// ConflictFree reports whether iterations p and q (concrete index
// vectors) are independent according to the dependence set: they are
// dependent iff some vector (or its negation) matches their distance.
func (s *Set) ConflictFree(p, q []int64) bool {
	if len(p) != len(q) {
		return false
	}
	diff := make([]int64, len(p))
	same := true
	for i := range p {
		diff[i] = p[i] - q[i]
		if diff[i] != 0 {
			same = false
		}
	}
	if same {
		return true // the same iteration: no loop-carried dependence
	}
	for _, v := range s.vecs {
		if matchesDiff(v, diff) || matchesDiff(v.Negate(), diff) {
			return false
		}
	}
	return true
}

func matchesDiff(v Vector, diff []int64) bool {
	if len(v) != len(diff) {
		return false
	}
	for i := range v {
		if !v[i].Matches(diff[i]) {
			return false
		}
	}
	return true
}

// Matches reports whether a concrete distance v is admitted by the
// component.
func (d Dist) Matches(v int64) bool {
	switch d.Kind {
	case Finite:
		return d.Val == v
	case Any:
		return true
	case PosInf:
		return v > 0
	case NegInf:
		return v < 0
	default:
		return false
	}
}
