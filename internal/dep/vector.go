// Package dep implements Orion's static dependence analysis: computing
// dependence vectors between loop iterations from pairs of static
// DistArray references (Algorithm 2 in the paper).
package dep

import (
	"fmt"
	"sort"
	"strings"
)

// Dist is one component of a dependence vector. A component is either a
// concrete integer distance or one of three infinities:
//
//	Any     — the dependence distance may be any integer (the paper's ∞)
//	PosInf  — any strictly positive integer (+∞)
//	NegInf  — any strictly negative integer (−∞)
type Dist struct {
	Kind DistKind
	Val  int64
}

// DistKind enumerates the forms a dependence-vector component can take.
type DistKind int

const (
	// Finite marks a concrete integer distance.
	Finite DistKind = iota
	// Any marks the paper's ∞: the distance may be any integer.
	Any
	// PosInf marks +∞: any strictly positive distance.
	PosInf
	// NegInf marks −∞: any strictly negative distance.
	NegInf
)

// D returns a finite distance component.
func D(v int64) Dist { return Dist{Kind: Finite, Val: v} }

// DAny returns the ∞ component.
func DAny() Dist { return Dist{Kind: Any} }

// DPos returns the +∞ component.
func DPos() Dist { return Dist{Kind: PosInf} }

// DNeg returns the −∞ component.
func DNeg() Dist { return Dist{Kind: NegInf} }

func (d Dist) String() string {
	switch d.Kind {
	case Finite:
		return fmt.Sprintf("%d", d.Val)
	case Any:
		return "inf"
	case PosInf:
		return "+inf"
	case NegInf:
		return "-inf"
	default:
		return "?"
	}
}

// IsZero reports whether the component is exactly 0. An infinite
// component is never zero-only: it admits non-zero distances.
func (d Dist) IsZero() bool { return d.Kind == Finite && d.Val == 0 }

// Negate returns the component describing the reversed dependence
// direction.
func (d Dist) Negate() Dist {
	switch d.Kind {
	case Finite:
		return D(-d.Val)
	case PosInf:
		return DNeg()
	case NegInf:
		return DPos()
	default:
		return DAny()
	}
}

// Vector is a dependence vector over the iteration space dimensions.
// A vector d relates two dependent iterations p1 = p2 + d (Section 4.2).
type Vector []Dist

// NewAnyVector returns an n-dimensional vector of ∞ components — the
// conservative starting point of Algorithm 2 ("any two iterations may be
// dependent").
func NewAnyVector(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = DAny()
	}
	return v
}

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, d := range v {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Negate returns the vector with every component negated.
func (v Vector) Negate() Vector {
	out := make(Vector, len(v))
	for i, d := range v {
		out[i] = d.Negate()
	}
	return out
}

// Equal reports component-wise equality.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Sign classifies the vector's lexicographic direction:
//
//	+1 — lexicographically positive (first non-zero-capable component
//	     admits only positive values)
//	-1 — lexicographically negative
//	 0 — the zero vector (same iteration; not a loop-carried dependence)
//	 2 — mixed: some admitted distances are positive and some negative
//	     (contains Any or both-sign components before a decisive one)
func (v Vector) Sign() int {
	for _, d := range v {
		switch d.Kind {
		case Finite:
			if d.Val > 0 {
				return 1
			}
			if d.Val < 0 {
				return -1
			}
			// zero: keep scanning
		case PosInf:
			return 1
		case NegInf:
			return -1
		case Any:
			return 2
		}
	}
	return 0
}

// LexPositive normalizes the vector to a set of lexicographically
// positive vectors covering the same dependences (the "correct dvec for
// lexicographical positiveness" step of Algorithm 2).
//
// A lexicographically negative vector describes the same dependence with
// source and sink swapped, so it is replaced by its negation. A mixed
// vector (leading Any) is split into a +∞-led and a 0-led remainder
// recursively; in the common fully-Any case this just yields the vector
// with the first component tightened to +∞ plus the recursive tail. The
// zero vector is dropped.
func (v Vector) LexPositive() []Vector {
	switch v.Sign() {
	case 1:
		return []Vector{v.Clone()}
	case -1:
		return []Vector{v.Negate()}
	case 0:
		return nil
	}
	// Mixed: find first non-(finite zero) component; it is Any.
	idx := -1
	for i, d := range v {
		if d.Kind == Any {
			idx = i
			break
		}
		if d.Kind == Finite && d.Val == 0 {
			continue
		}
		// A decisive component before any Any would have classified
		// the sign; unreachable.
		break
	}
	if idx < 0 {
		return nil
	}
	var out []Vector
	add := func(nv Vector) {
		for _, e := range out {
			if e.Equal(nv) {
				return
			}
		}
		out = append(out, nv)
	}
	// Case 1: the Any component is positive.
	pos := v.Clone()
	pos[idx] = DPos()
	add(pos)
	// Case 2: the Any component is negative — the negated vector has
	// +∞ there and the negated tail.
	neg := v.Negate()
	neg[idx] = DPos()
	add(neg)
	// Case 3: the Any component is zero — recurse on the remainder.
	zero := v.Clone()
	zero[idx] = D(0)
	for _, nv := range zero.LexPositive() {
		add(nv)
	}
	return out
}

// Set is a canonicalized set of dependence vectors.
type Set struct {
	vecs []Vector
}

// NewSet returns an empty dependence-vector set.
func NewSet() *Set { return &Set{} }

// Add inserts a vector if an equal one is not already present.
func (s *Set) Add(v Vector) {
	for _, e := range s.vecs {
		if e.Equal(v) {
			return
		}
	}
	s.vecs = append(s.vecs, v)
}

// AddAll inserts every vector in vs.
func (s *Set) AddAll(vs []Vector) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Vectors returns the vectors sorted by their string form (stable,
// deterministic ordering for logs and tests).
func (s *Set) Vectors() []Vector {
	out := make([]Vector, len(s.vecs))
	copy(out, s.vecs)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Len returns the number of distinct vectors.
func (s *Set) Len() int { return len(s.vecs) }

// Empty reports whether the loop has no loop-carried dependences.
func (s *Set) Empty() bool { return len(s.vecs) == 0 }

func (s *Set) String() string {
	vs := s.Vectors()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ZeroAt reports whether every vector in the set has an exactly-zero
// component at dimension i — the 1D parallelization condition.
func (s *Set) ZeroAt(i int) bool {
	for _, v := range s.vecs {
		if i >= len(v) || !v[i].IsZero() {
			return false
		}
	}
	return true
}

// ZeroAtEither reports whether every vector has a zero component at
// dimension i or at dimension j — the 2D parallelization condition:
// iterations differing in both dimensions are independent.
func (s *Set) ZeroAtEither(i, j int) bool {
	for _, v := range s.vecs {
		if i >= len(v) || j >= len(v) {
			return false
		}
		if !v[i].IsZero() && !v[j].IsZero() {
			return false
		}
	}
	return true
}
