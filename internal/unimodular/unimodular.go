// Package unimodular implements unimodular loop transformations
// (interchange, reversal, skewing — Wolf & Lam) used by Orion when
// neither 1D nor 2D parallelization applies directly (Section 4.3).
//
// A unimodular matrix T (integer, |det T| = 1) maps the iteration space
// p ↦ T·p. If every transformed dependence vector T·d has a strictly
// positive first component, all dependences are carried by the outermost
// transformed loop, so the inner loops are dependence-free and the loop
// nest is 2D parallelizable in the transformed space.
package unimodular

import (
	"fmt"
	"strings"

	"orion/internal/dep"
)

// Matrix is a square integer matrix, row-major.
type Matrix [][]int64

// Identity returns the n×n identity.
func Identity(n int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int64, n)
		m[i][i] = 1
	}
	return m
}

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix {
	out := make(Matrix, len(m))
	for i := range m {
		out[i] = append([]int64(nil), m[i]...)
	}
	return out
}

func (m Matrix) String() string {
	rows := make([]string, len(m))
	for i, r := range m {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = fmt.Sprintf("%d", v)
		}
		rows[i] = "[" + strings.Join(cells, " ") + "]"
	}
	return "[" + strings.Join(rows, " ") + "]"
}

// Mul returns m·o.
func (m Matrix) Mul(o Matrix) Matrix {
	n := len(m)
	out := make(Matrix, n)
	for i := 0; i < n; i++ {
		out[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				s += m[i][k] * o[k][j]
			}
			out[i][j] = s
		}
	}
	return out
}

// Apply maps a concrete iteration point p to T·p.
func (m Matrix) Apply(p []int64) []int64 {
	out := make([]int64, len(m))
	for i := range m {
		var s int64
		for k, c := range m[i] {
			s += c * p[k]
		}
		out[i] = s
	}
	return out
}

// Det computes the determinant by fraction-free (Bareiss) elimination.
//
//lint:ignore reach the determinant behind IsUnimodular, a test oracle
func (m Matrix) Det() int64 {
	n := len(m)
	a := m.Clone()
	sign := int64(1)
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if a[k][k] == 0 {
			swapped := false
			for i := k + 1; i < n; i++ {
				if a[i][k] != 0 {
					a[k], a[i] = a[i], a[k]
					sign = -sign
					swapped = true
					break
				}
			}
			if !swapped {
				return 0
			}
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				a[i][j] = (a[i][j]*a[k][k] - a[i][k]*a[k][j]) / prev
			}
			a[i][k] = 0
		}
		prev = a[k][k]
	}
	return sign * a[n-1][n-1]
}

// IsUnimodular reports |det| == 1.
//
//lint:ignore reach a test oracle: every transform Find returns must be unimodular
func (m Matrix) IsUnimodular() bool {
	d := m.Det()
	return d == 1 || d == -1
}

// Interchange returns the matrix swapping loops i and j.
func Interchange(n, i, j int) Matrix {
	m := Identity(n)
	m[i][i], m[j][j] = 0, 0
	m[i][j], m[j][i] = 1, 1
	return m
}

// Reversal returns the matrix reversing loop i.
func Reversal(n, i int) Matrix {
	m := Identity(n)
	m[i][i] = -1
	return m
}

// Skew returns the matrix skewing loop i by factor f with respect to
// loop j: new_i = i + f·j.
func Skew(n, i, j int, f int64) Matrix {
	m := Identity(n)
	m[i][j] = f
	return m
}

// TransformDist computes one component of T·d where d may contain
// infinities: sum over k of coeff[k]·d[k] with
//
//	0·∞ = 0,  c·(+∞) = +∞ for c>0 and −∞ for c<0,  c·Any = Any (c≠0),
//	x + Any = Any,  (+∞) + finite = +∞,  (+∞) + (−∞) = Any.
func TransformDist(coeffs []int64, d dep.Vector) dep.Dist {
	acc := dep.D(0)
	for k, c := range coeffs {
		if c == 0 {
			continue
		}
		var term dep.Dist
		switch d[k].Kind {
		case dep.Finite:
			term = dep.D(c * d[k].Val)
		case dep.Any:
			term = dep.DAny()
		case dep.PosInf:
			if c > 0 {
				term = dep.DPos()
			} else {
				term = dep.DNeg()
			}
		case dep.NegInf:
			if c > 0 {
				term = dep.DNeg()
			} else {
				term = dep.DPos()
			}
		}
		acc = addDist(acc, term)
	}
	return acc
}

func addDist(a, b dep.Dist) dep.Dist {
	if a.Kind == dep.Any || b.Kind == dep.Any {
		return dep.DAny()
	}
	if a.Kind == dep.Finite && b.Kind == dep.Finite {
		return dep.D(a.Val + b.Val)
	}
	// One or both infinite with fixed sign.
	sign := func(d dep.Dist) int {
		switch d.Kind {
		case dep.PosInf:
			return 1
		case dep.NegInf:
			return -1
		default:
			return 0
		}
	}
	sa, sb := sign(a), sign(b)
	switch {
	case sa != 0 && sb != 0:
		if sa == sb {
			if sa > 0 {
				return dep.DPos()
			}
			return dep.DNeg()
		}
		return dep.DAny()
	case sa != 0:
		if sa > 0 {
			return dep.DPos()
		}
		return dep.DNeg()
	default:
		if sb > 0 {
			return dep.DPos()
		}
		return dep.DNeg()
	}
}

// OuterCarried reports whether T makes every dependence vector's first
// component strictly positive — the goal condition of Section 4.3.
func OuterCarried(t Matrix, vecs []dep.Vector) bool {
	for _, d := range vecs {
		c := TransformDist(t[0], d)
		switch c.Kind {
		case dep.Finite:
			if c.Val <= 0 {
				return false
			}
		case dep.PosInf:
			// strictly positive, fine
		default:
			return false
		}
	}
	return true
}

// eligible reports whether the vectors qualify for a unimodular search:
// the paper applies transformations only "when the dependence vectors
// contain only numbers or positive infinity".
func eligible(vecs []dep.Vector) bool {
	for _, d := range vecs {
		for _, c := range d {
			if c.Kind == dep.Any || c.Kind == dep.NegInf {
				return false
			}
		}
	}
	return true
}

// Find searches for a unimodular transformation T making all
// dependences outer-carried. It composes at most depth generator
// matrices (interchanges, reversals, skews with |factor| ≤ maxSkew) by
// breadth-first search. Returns (T, true) on success.
func Find(n int, vecs []dep.Vector, depth int, maxSkew int64) (Matrix, bool) {
	if n == 0 || !eligible(vecs) {
		return nil, false
	}
	id := Identity(n)
	if OuterCarried(id, vecs) {
		return id, true
	}
	var gens []Matrix
	for i := 0; i < n; i++ {
		gens = append(gens, Reversal(n, i))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			gens = append(gens, Interchange(n, i, j))
			for f := int64(1); f <= maxSkew; f++ {
				gens = append(gens, Skew(n, i, j, f), Skew(n, i, j, -f))
			}
		}
	}
	frontier := []Matrix{id}
	seen := map[string]bool{id.String(): true}
	for d := 0; d < depth; d++ {
		var next []Matrix
		for _, t := range frontier {
			for _, g := range gens {
				nt := g.Mul(t)
				key := nt.String()
				if seen[key] {
					continue
				}
				seen[key] = true
				if OuterCarried(nt, vecs) {
					return nt, true
				}
				next = append(next, nt)
			}
		}
		frontier = next
	}
	return nil, false
}
