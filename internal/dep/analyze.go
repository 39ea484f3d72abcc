package dep

import (
	"fmt"
	"strings"

	"orion/internal/ir"
)

// Analyze computes the set of dependence vectors for a loop, running
// Algorithm 2 for every referenced DistArray and unioning the results.
// Buffered writes (DistArray Buffers, Section 3.3) are exempt.
func Analyze(loop *ir.LoopSpec) (*Set, error) {
	d, err := AnalyzeDetail(loop)
	if err != nil {
		return nil, err
	}
	return d.Set, nil
}

// Cause records the pair of static references whose subscripts produced
// one or more dependence vectors — the provenance the diagnostics
// engine uses to explain *which* access pattern blocks parallelization.
type Cause struct {
	Array string
	// A and B are the conflicting references (A may equal B: the same
	// static reference executed by two different iterations).
	A, B ir.ArrayRef
	// Vecs are the lexicographically positive vectors the pair yields.
	Vecs []Vector
}

func (c Cause) String() string {
	parts := make([]string, len(c.Vecs))
	for i, v := range c.Vecs {
		parts[i] = v.String()
	}
	loc := func(r ir.ArrayRef) string {
		if p := r.Pos(); p != "" {
			return " at " + p
		}
		return ""
	}
	return fmt.Sprintf("%s%s conflicts with %s%s: distance %s",
		c.A, loc(c.A), c.B, loc(c.B), strings.Join(parts, ", "))
}

// Detail is the result of dependence analysis with provenance.
type Detail struct {
	Set *Set
	// Causes lists, per contributing reference pair, the vectors it
	// produced (in discovery order; vectors may repeat across causes).
	Causes []Cause
	// Commute lists write-write reference pairs that DO conflict across
	// iterations but were excluded from Set because the loop is
	// unordered — Algorithm 2's commutativity assumption. Correctness
	// relies on these updates commuting.
	Commute []Cause
	// Guard, when non-nil, is a synthesized runtime predicate: whenever
	// it holds, every reference pair it was derived from is
	// independent, and GuardedSet (a subset of Set's constraints)
	// soundly describes the loop's dependences. When the guard fails at
	// dispatch the driver must fall back to Set (in practice: run
	// serially).
	Guard *Guard
	// GuardedSet is the dependence set in effect when Guard holds.
	GuardedSet *Set

	guarded   *Set        // accumulates GuardedSet during analysis
	pairAtoms []GuardAtom // one sufficient atom per guardable pair
}

// AnalyzeDetail is Analyze, additionally reporting which reference
// pairs produced each vector and which write-write conflicts were
// assumed commutative.
func AnalyzeDetail(loop *ir.LoopSpec) (*Detail, error) {
	if err := loop.Validate(); err != nil {
		return nil, err
	}
	d := &Detail{Set: NewSet(), guarded: NewSet()}
	for _, array := range loop.Arrays() {
		refs := effectiveRefs(loop.RefsTo(array))
		if err := d.analyzeArray(loop, array, refs); err != nil {
			return nil, err
		}
	}
	if len(d.pairAtoms) > 0 {
		d.Guard = &Guard{Atoms: mergeAtoms(d.pairAtoms)}
		d.GuardedSet = d.guarded
	}
	return d, nil
}

// effectiveRefs drops buffered writes from dependence analysis.
func effectiveRefs(refs []ir.ArrayRef) []ir.ArrayRef {
	out := refs[:0:0]
	for _, r := range refs {
		if r.IsWrite && r.Buffered {
			continue
		}
		out = append(out, r)
	}
	return out
}

// analyzeArray is Algorithm 2: it produces at most one dependence vector
// (before lexicographic normalization) per unique pair of static
// references to the same DistArray, recording the pair as the vectors'
// cause.
func (d *Detail) analyzeArray(loop *ir.LoopSpec, array string, refs []ir.ArrayRef) error {
	for a := 0; a < len(refs); a++ {
		// The pair (a, a) matters too: the same static reference
		// executed by two different iterations can touch the same
		// element (e.g. W[:, key[1]] for two iterations with equal
		// key[1]).
		for b := a; b < len(refs); b++ {
			ra, rb := refs[a], refs[b]
			// Two reads never conflict.
			if !ra.IsWrite && !rb.IsWrite {
				continue
			}
			if len(ra.Subs) != len(rb.Subs) {
				return fmt.Errorf("dep: loop %q: references %s and %s to array %q have different arities",
					loop.Name, ra, rb, array)
			}
			pr := pairVector(loop, ra, rb)
			if pr.independent {
				continue
			}
			// Self-pair with all-equal single-index subscripts is the
			// same iteration touching its own element — not
			// loop-carried unless some dimension is unconstrained.
			lex := pr.vec.LexPositive()
			if len(lex) == 0 {
				continue
			}
			// Write-write dependences may be ignored for unordered
			// loops *only if* updates commute; Orion requires the
			// loop to be declared unordered for this (Algorithm 2's
			// unordered_loop test). Note a ref that is both read and
			// written appears as two entries in Refs, so this skip
			// is safe for pure write-write pairs. The skipped pair is
			// recorded so diagnostics can surface the commutativity
			// assumption.
			if !loop.Ordered && ra.IsWrite && rb.IsWrite {
				d.Commute = append(d.Commute, Cause{Array: array, A: ra, B: rb, Vecs: lex})
				continue
			}
			d.Set.AddAll(lex)
			d.Causes = append(d.Causes, Cause{Array: array, A: ra, B: rb, Vecs: lex})
			if len(pr.guards) > 0 {
				// The guarded vector assumes every atom of the pair
				// holds, so all of them join the conjunction.
				d.pairAtoms = append(d.pairAtoms, pr.guards...)
				if !pr.gindependent {
					if glex := pr.gvec.LexPositive(); len(glex) > 0 {
						d.guarded.AddAll(glex)
					}
				}
			} else {
				d.guarded.AddAll(lex)
			}
		}
	}
	return nil
}

// pairResult is pairVector's refinement of one reference pair: the
// unconditional vector (what the pair contributes to Set), a
// static-independence proof, and — when symbolic-stride positions
// contributed guard atoms — the tighter vector that holds whenever
// every atom does (what the pair contributes to GuardedSet).
type pairResult struct {
	vec         Vector
	independent bool
	guards      []GuardAtom
	// gvec/gindependent describe the pair assuming all guards hold.
	// Meaningful only when guards is non-empty.
	gvec         Vector
	gindependent bool
}

// pairVector refines the conservative all-∞ vector using each subscript
// position of the reference pair. Positions whose stride is a
// runtime-known driver variable cannot be solved statically; they emit a
// guard atom (stride >= window spread + 1) and refine only the guarded
// vector: under the atom, a conflict forces the strided dimension's
// distance to 0 — or is impossible outright when the offset windows are
// disjoint.
func pairVector(loop *ir.LoopSpec, ra, rb ir.ArrayRef) pairResult {
	dvec := NewAnyVector(loop.NumDims())
	gvec := NewAnyVector(loop.NumDims())
	var guards []GuardAtom
	gind := false
	for pos := range ra.Subs {
		sa, sb := ra.Subs[pos], rb.Subs[pos]
		// Value-range pre-filter: when both positions have statically
		// bounded element coordinates and the bounds are disjoint, the
		// references can never touch a common element.
		if aLo, aHi, aok := elemRange(loop.Dims, sa); aok {
			if bLo, bHi, bok := elemRange(loop.Dims, sb); bok {
				if aHi < bLo || bHi < aLo {
					return pairResult{independent: true}
				}
			}
		}
		la, laOK := linearForm(sa)
		lb, lbOK := linearForm(sb)
		switch {
		case laOK && lbOK:
			// Both positions are numeric linear forms: exact
			// equal-stride solving or GCD/Banerjee feasibility. The
			// guarded vector sees the same constraint; it may bottom
			// out earlier because symbolic positions tightened it.
			if refineLinear(loop.Dims, dvec, la, lb) {
				return pairResult{independent: true}
			}
			if !gind && refineLinear(loop.Dims, gvec, la, lb) {
				gind = true
			}
		case sa.Kind == ir.SubAffine && sb.Kind == ir.SubAffine:
			// Symbolic strides: provable only when both sides scale the
			// same loop dimension by the same runtime variable. Elements
			// match iff s*(q-p) equals the offset difference, which lies
			// within the window spread — so under s >= spread+1 any
			// conflict forces q-p = 0 in that dimension, and none is
			// possible at all when the windows never overlap.
			da, va, aLo, aHi, aok := symForm(sa)
			db, vb, bLo, bHi, bok := symForm(sb)
			if aok && bok && va == vb && da == db {
				spread := aHi - bLo
				if s2 := bHi - aLo; s2 > spread {
					spread = s2
				}
				t := spread + 1
				if t < 1 {
					t = 1
				}
				guards = append(guards, GuardAtom{Var: va, Min: t})
				switch {
				case gind:
					// Already independent under the guard.
				case aHi < bLo || bHi < aLo:
					// Disjoint windows: the q-p = 0 residue is empty too.
					gind = true
				default:
					if nd, bad := meetInterval(gvec[da], 0, 0); bad {
						gind = true
					} else {
						gvec[da] = nd
					}
				}
			}
		case sa.Kind == ir.SubRange && sb.Kind == ir.SubRange,
			sa.Kind == ir.SubRange && sb.Kind == ir.SubConst,
			sa.Kind == ir.SubConst && sb.Kind == ir.SubRange:
			// Disjoint static ranges were handled by the pre-filter;
			// overlapping ones constrain no iteration dimension.
		default:
			// SubRuntime vs anything, SubRange vs SubIndex, symbolic
			// vs numeric, ...: conservatively no constraint.
		}
	}
	return pairResult{vec: dvec, guards: guards, gvec: gvec, gindependent: gind}
}
