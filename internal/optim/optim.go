// Package optim implements the update rules parameter tables are
// maintained with: plain SGD and Adaptive Revision (AdaRev, McMahan &
// Streeter 2014) — the delay-compensated adaptive method the
// paper evaluates as "SGD MF AdaRev" and "SLR AdaRev".
//
// Kernels emit raw gradients; an Optimizer turns an (accumulated)
// gradient into a parameter step when it is applied to the master copy.
// Under dependence-aware execution gradients apply immediately (no
// delay); under data parallelism they apply at synchronization, where
// AdaRev's backlog correction uses the gradient mass other workers
// applied since this worker read the parameter.
package optim

import "math"

// Optimizer applies an accumulated gradient to one parameter row.
type Optimizer interface {
	// Apply updates row in place given gradient g. gBck is the
	// per-coordinate "backlog": gradient applied to the master copy by
	// other workers between this worker's read and this apply. It is
	// nil when there is no delay (serial or dependence-preserving
	// execution).
	Apply(table int, rowID int64, row, g, gBck []float64)
	// Clone returns an optimizer of the same kind and hyperparameters
	// with fresh state (used to reset between runs).
	Clone() Optimizer
	// Name identifies the rule.
	Name() string
}

// Identity adds the update verbatim: row += g. Used for count tables
// (e.g. LDA topic counts) whose "updates" are deltas, not gradients.
type Identity struct{}

// NewIdentity returns the identity update rule.
func NewIdentity() *Identity { return &Identity{} }

// Apply implements Optimizer.
func (*Identity) Apply(_ int, _ int64, row, g, _ []float64) {
	for i := range g {
		row[i] += g[i]
	}
}

// Clone implements Optimizer.
func (*Identity) Clone() Optimizer { return &Identity{} }

// Name implements Optimizer.
func (*Identity) Name() string { return "identity" }

// SGD is plain stochastic gradient descent: row -= lr * g.
type SGD struct{ LR float64 }

// NewSGD returns an SGD rule with the given step size.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Apply implements Optimizer.
func (s *SGD) Apply(_ int, _ int64, row, g, _ []float64) {
	for i := range g {
		row[i] -= s.LR * g[i]
	}
}

// Clone implements Optimizer.
func (s *SGD) Clone() Optimizer { return &SGD{LR: s.LR} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

type tableRow struct {
	table int
	row   int64
}

// AdaRev is Adaptive Revision: AdaGrad whose accumulator additionally
// absorbs the interaction between a delayed gradient g and the backlog
// ĝ_bck of gradients applied since the contributing worker read the
// parameter: z2 += g² + 2·g·ĝ_bck (clamped at ≥ g²), shrinking the
// effective step for stale gradients that point the same way as
// already-applied mass. With no delay (gBck nil or zero) it reduces to
// AdaGrad: z2 += g²; row -= lr * g / sqrt(z2 + eps).
type AdaRev struct {
	LR  float64
	Eps float64
	z2  map[tableRow][]float64
	// zSum tracks the summed applied gradient per coordinate so
	// engines can compute backlogs as differences of snapshots.
	zSum map[tableRow][]float64
}

// NewAdaRev returns an AdaRev rule.
func NewAdaRev(lr float64) *AdaRev {
	return &AdaRev{LR: lr, Eps: 1e-8, z2: make(map[tableRow][]float64), zSum: make(map[tableRow][]float64)}
}

func (a *AdaRev) st(m map[tableRow][]float64, t int, r int64, n int) []float64 {
	k := tableRow{t, r}
	s := m[k]
	if s == nil {
		s = make([]float64, n)
		m[k] = s
	}
	return s
}

// Apply implements Optimizer.
func (a *AdaRev) Apply(table int, rowID int64, row, g, gBck []float64) {
	z2 := a.st(a.z2, table, rowID, len(g))
	zs := a.st(a.zSum, table, rowID, len(g))
	for i := range g {
		inc := g[i] * g[i]
		if gBck != nil {
			corr := inc + 2*g[i]*gBck[i]
			if corr > inc {
				inc = corr
			}
		}
		z2[i] += inc
		row[i] -= a.LR * g[i] / math.Sqrt(z2[i]+a.Eps)
		zs[i] += g[i]
	}
}

// ZSum returns the summed applied gradient for a row (zero-valued slice
// if the row was never updated). Engines snapshot this at read time and
// pass the difference as gBck.
func (a *AdaRev) ZSum(table int, rowID int64, n int) []float64 {
	return a.st(a.zSum, table, rowID, n)
}

// Clone implements Optimizer.
func (a *AdaRev) Clone() Optimizer { return NewAdaRev(a.LR) }

// Name implements Optimizer.
func (a *AdaRev) Name() string { return "adarev" }

// BacklogTracker retrieves summed-gradient state from optimizers that
// maintain it (AdaRev). Engines use it to compute gBck.
type BacklogTracker interface {
	ZSum(table int, rowID int64, n int) []float64
}
