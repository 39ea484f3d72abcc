package dep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GuardAtom is one conjunct of a synthesized runtime guard: the
// inherited driver variable Var must hold an integral value >= Min.
// Each atom is derived from a symbolic-stride subscript pair: when the
// stride is at least the width of the element windows the two
// references touch, distinct iterations land in disjoint windows.
type GuardAtom struct {
	Var string `json:"var"`
	Min int64  `json:"min"`
}

func (g GuardAtom) String() string { return fmt.Sprintf("%s >= %d", g.Var, g.Min) }

// Guard is a conjunction of atoms: a sufficient runtime condition under
// which the statically-unprovable reference pairs it was synthesized
// from are independent, so the loop's effective dependence set shrinks
// to Detail.GuardedSet. The driver evaluates it once at dispatch.
type Guard struct {
	Atoms []GuardAtom `json:"atoms"`
}

func (g *Guard) String() string {
	parts := make([]string, len(g.Atoms))
	for i, a := range g.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " && ")
}

// Eval checks the guard against the driver's global bindings. The
// second return explains a failure ("" on success). A non-integral
// binding fails the guard: the disjointness argument is over integer
// strides.
func (g *Guard) Eval(globals map[string]float64) (bool, string) {
	for _, a := range g.Atoms {
		v, ok := globals[a.Var]
		if !ok {
			return false, fmt.Sprintf("guard variable %q is not set", a.Var)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v != math.Trunc(v) {
			return false, fmt.Sprintf("guard variable %s = %v is not an integer", a.Var, v)
		}
		if int64(v) < a.Min {
			return false, fmt.Sprintf("%s = %d violates %s", a.Var, int64(v), a)
		}
	}
	return true, ""
}

// mergeAtoms folds per-pair atoms into a canonical conjunction: one
// atom per variable carrying the largest threshold, sorted by name.
func mergeAtoms(atoms []GuardAtom) []GuardAtom {
	best := make(map[string]int64, len(atoms))
	for _, a := range atoms {
		if m, ok := best[a.Var]; !ok || a.Min > m {
			best[a.Var] = a.Min
		}
	}
	out := make([]GuardAtom, 0, len(best))
	for v, m := range best {
		out = append(out, GuardAtom{Var: v, Min: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}
