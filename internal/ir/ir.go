// Package ir defines Orion's loop intermediate representation.
//
// Orion's front-end (the @parallel_for macro in the paper, the DSL in
// internal/lang here) reduces a serial for-loop over a DistArray to a
// LoopSpec: the iteration space, the set of static DistArray references
// with their subscripts, the ordering requirement, and the inherited
// driver variables. All dependence analysis (internal/dep) and schedule
// selection (internal/sched) operate on this record alone.
package ir

import (
	"fmt"
	"strings"
)

// SubscriptKind classifies one position of a DistArray subscript, the
// "stype" of the 3-tuple (dim_idx, const, stype) in Section 4.2 of the
// paper.
type SubscriptKind int

const (
	// SubIndex is a loop index variable plus or minus a constant,
	// e.g. key[1]+2. This is the only kind that carries accurate
	// dependence information.
	SubIndex SubscriptKind = iota
	// SubConst is a compile-time integer constant, e.g. A[3, ...].
	SubConst
	// SubRange is a set query over a static range, e.g. A[1:3, ...].
	// Lo/Hi are inclusive bounds; a full-dimension query (":") is
	// represented with Full=true.
	SubRange
	// SubRuntime is a subscript whose value depends on runtime data
	// (the element value, another DistArray read, ...). It is
	// conservatively treated as possibly taking any value within the
	// array's bounds.
	SubRuntime
	// SubAffine is a general affine subscript c*key[d] + b, optionally
	// widened by an inner-loop offset into a contiguous window: the
	// reference touches the 0-based elements
	//
	//	coeff*(key[d]+1) + Const + t   for t in [0, Span-1]
	//
	// where key[d] is the 0-based loop index and coeff is either the
	// compile-time constant Coeff or, when CoeffVar is set, the runtime
	// value of the inherited driver variable named CoeffVar (a symbolic
	// stride — the dependence analyzer can only discharge it with a
	// synthesized runtime guard).
	SubAffine
)

func (k SubscriptKind) String() string {
	switch k {
	case SubIndex:
		return "index"
	case SubConst:
		return "const"
	case SubRange:
		return "range"
	case SubRuntime:
		return "runtime"
	case SubAffine:
		return "affine"
	default:
		return fmt.Sprintf("SubscriptKind(%d)", int(k))
	}
}

// Subscript is one position of a DistArray reference's subscript.
type Subscript struct {
	Kind SubscriptKind
	// Dim is the iteration-space dimension of the loop index variable
	// (dim_idx in the paper), valid when Kind == SubIndex.
	Dim int
	// Const is the additive constant for SubIndex, or the value for
	// SubConst.
	Const int64
	// Lo, Hi bound a SubRange (inclusive). Ignored when Full is set.
	Lo, Hi int64
	// Full marks a whole-dimension range query (":").
	Full bool
	// Coeff is the constant stride multiplying the 1-based loop index
	// for SubAffine. Ignored (and zero) when CoeffVar is set.
	Coeff int64
	// CoeffVar names the inherited driver variable supplying the stride
	// at dispatch time for a SubAffine subscript whose coefficient is
	// not a compile-time constant.
	CoeffVar string
	// Span is the width (>= 1) of the contiguous element window a
	// SubAffine subscript covers: an inner-range offset j in lo:hi turns
	// a point access into a window of hi-lo+1 elements.
	Span int64
}

// Index returns a SubIndex subscript key[dim] + c.
func Index(dim int, c int64) Subscript { return Subscript{Kind: SubIndex, Dim: dim, Const: c} }

// Const returns a SubConst subscript.
func Const(v int64) Subscript { return Subscript{Kind: SubConst, Const: v} }

// FullRange returns a ":" subscript.
func FullRange() Subscript { return Subscript{Kind: SubRange, Full: true} }

// Range returns an inclusive static range subscript lo:hi.
func Range(lo, hi int64) Subscript { return Subscript{Kind: SubRange, Lo: lo, Hi: hi} }

// Runtime returns a data-dependent subscript.
func Runtime() Subscript { return Subscript{Kind: SubRuntime} }

// Affine returns a SubAffine subscript coeff*(key[dim]+1) + c covering a
// window of span consecutive elements.
func Affine(dim int, coeff, c, span int64) Subscript {
	return Subscript{Kind: SubAffine, Dim: dim, Coeff: coeff, Const: c, Span: span}
}

// AffineVar returns a SubAffine subscript whose stride is the runtime
// value of the inherited driver variable coeffVar.
func AffineVar(dim int, coeffVar string, c, span int64) Subscript {
	return Subscript{Kind: SubAffine, Dim: dim, CoeffVar: coeffVar, Const: c, Span: span}
}

func (s Subscript) String() string {
	switch s.Kind {
	case SubIndex:
		if s.Const == 0 {
			return fmt.Sprintf("key[%d]", s.Dim+1)
		}
		return fmt.Sprintf("key[%d]%+d", s.Dim+1, s.Const)
	case SubConst:
		return fmt.Sprintf("%d", s.Const)
	case SubRange:
		if s.Full {
			return ":"
		}
		return fmt.Sprintf("%d:%d", s.Lo, s.Hi)
	case SubRuntime:
		return "?"
	case SubAffine:
		coeff := s.CoeffVar
		if coeff == "" {
			coeff = fmt.Sprintf("%d", s.Coeff)
		}
		out := fmt.Sprintf("%s*(key[%d]+1)", coeff, s.Dim+1)
		if s.Const != 0 {
			out += fmt.Sprintf("%+d", s.Const)
		}
		if s.Span > 1 {
			out += fmt.Sprintf("+[0:%d]", s.Span-1)
		}
		return out
	default:
		return "<invalid>"
	}
}

// ArrayRef is one static DistArray reference inside the loop body.
type ArrayRef struct {
	Array   string
	Subs    []Subscript
	IsWrite bool
	// Buffered marks a write that the program routed through a
	// DistArrayBuffer (Section 3.3): it is exempt from dependence
	// analysis.
	Buffered bool
	// Line and Col locate the reference in the DSL source (1-based;
	// zero when the spec was constructed programmatically). They are
	// carried so dependence analysis and the diagnostics engine can
	// cite the offending references; String() and reference identity
	// ignore them.
	Line, Col int
}

// Pos renders the reference's source position ("line 7:5"), or "" when
// unknown.
func (r ArrayRef) Pos() string {
	if r.Line <= 0 {
		return ""
	}
	return fmt.Sprintf("line %d:%d", r.Line, r.Col)
}

func (r ArrayRef) String() string {
	subs := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		subs[i] = s.String()
	}
	mode := "read"
	if r.IsWrite {
		mode = "write"
		if r.Buffered {
			mode = "buffered-write"
		}
	}
	return fmt.Sprintf("%s[%s] (%s)", r.Array, strings.Join(subs, ", "), mode)
}

// LoopSpec is the complete loop information record (Fig. 6).
type LoopSpec struct {
	// Name identifies the loop for logging.
	Name string
	// IterSpaceArray is the DistArray the loop ranges over.
	IterSpaceArray string
	// Dims holds the iteration space extents, one per dimension. The
	// iteration space must be constant and known when the loop is
	// compiled (Section 3.2, "Applicability").
	Dims []int64
	// Refs are all static DistArray references in the loop body.
	Refs []ArrayRef
	// Ordered requires the parallelization to preserve the
	// lexicographic iteration order. The default (false) only
	// requires serializability (Section 4.3, "Relaxing the ordering
	// constraints").
	Ordered bool
	// Inherited lists driver-program variables captured read-only by
	// the loop body.
	Inherited []string
}

// NumDims returns the number of iteration-space dimensions.
func (l *LoopSpec) NumDims() int { return len(l.Dims) }

// Validate reports structural problems with the spec.
func (l *LoopSpec) Validate() error {
	if l.IterSpaceArray == "" {
		return fmt.Errorf("ir: loop %q has no iteration space array", l.Name)
	}
	if len(l.Dims) == 0 {
		return fmt.Errorf("ir: loop %q has a zero-dimensional iteration space", l.Name)
	}
	for _, d := range l.Dims {
		if d <= 0 {
			return fmt.Errorf("ir: loop %q has non-positive iteration space extent %d", l.Name, d)
		}
	}
	for _, r := range l.Refs {
		if r.Array == "" {
			return fmt.Errorf("ir: loop %q references an unnamed array", l.Name)
		}
		if len(r.Subs) == 0 {
			return fmt.Errorf("ir: loop %q: reference to %q has no subscripts", l.Name, r.Array)
		}
		for _, s := range r.Subs {
			if (s.Kind == SubIndex || s.Kind == SubAffine) && (s.Dim < 0 || s.Dim >= len(l.Dims)) {
				return fmt.Errorf("ir: loop %q: reference %s uses loop index dimension %d outside iteration space of %d dims",
					l.Name, r, s.Dim, len(l.Dims))
			}
			if s.Kind == SubAffine {
				if s.Span < 1 {
					return fmt.Errorf("ir: loop %q: reference %s has affine subscript with span %d < 1",
						l.Name, r, s.Span)
				}
				if s.CoeffVar != "" && s.Coeff != 0 {
					return fmt.Errorf("ir: loop %q: reference %s has affine subscript with both constant and symbolic coefficients",
						l.Name, r)
				}
			}
		}
	}
	return nil
}

// RefsTo returns the references to a given array, preserving order.
func (l *LoopSpec) RefsTo(array string) []ArrayRef {
	var out []ArrayRef
	for _, r := range l.Refs {
		if r.Array == array {
			out = append(out, r)
		}
	}
	return out
}

// Arrays returns the distinct array names referenced by the loop, in
// first-reference order.
func (l *LoopSpec) Arrays() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range l.Refs {
		if !seen[r.Array] {
			seen[r.Array] = true
			out = append(out, r.Array)
		}
	}
	return out
}

// String renders the loop information block, mirroring the middle box
// of Fig. 6.
func (l *LoopSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Loop %s\n", l.Name)
	fmt.Fprintf(&b, "  Iteration space: %s %v\n", l.IterSpaceArray, l.Dims)
	if l.Ordered {
		fmt.Fprintf(&b, "  Iteration ordering: ordered\n")
	} else {
		fmt.Fprintf(&b, "  Iteration ordering: unordered\n")
	}
	var reads, writes []string
	for _, r := range l.Refs {
		if r.IsWrite {
			writes = append(writes, r.String())
		} else {
			reads = append(reads, r.String())
		}
	}
	fmt.Fprintf(&b, "  DistArray reads:  %s\n", strings.Join(reads, ", "))
	fmt.Fprintf(&b, "  DistArray writes: %s\n", strings.Join(writes, ", "))
	if len(l.Inherited) > 0 {
		fmt.Fprintf(&b, "  Inherited variables: %s\n", strings.Join(l.Inherited, ", "))
	}
	return b.String()
}
