// Package apps implements the ML training applications of Table 2:
// SGD matrix factorization (plain and AdaRev), sparse logistic
// regression (plain and AdaRev), and LDA via collapsed Gibbs sampling.
// Each app provides the serial kernel, the loop IR for Orion's static
// analysis, parameter-table declarations, and a loss metric. Gradient
// boosted trees is only a loop record (GBTSplitSearch).
package apps

import (
	"math/rand"

	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/engine"
	"orion/internal/ir"
	"orion/internal/optim"
)

// MF is SGD matrix factorization (Algorithm 1): given observed entries
// of an m×n matrix, find W (m×r) and H (n×r) minimizing nonzero squared
// loss. Its loop is 2D-unordered parallelizable (Fig. 6).
type MF struct {
	ratings *data.Ratings
	rank    int
	opt     optim.Optimizer
	// scratch gradient buffers (engines call Process sequentially).
	gw, gh []float64
}

// NewMF builds the app with the given update rule prototype (e.g.
// optim.NewSGD(lr) or optim.NewAdaRev(lr)).
func NewMF(r *data.Ratings, opt optim.Optimizer) *MF {
	return &MF{
		ratings: r,
		rank:    r.Rank,
		opt:     opt,
		gw:      make([]float64, r.Rank),
		gh:      make([]float64, r.Rank),
	}
}

// Name implements engine.App.
func (m *MF) Name() string { return "sgd-mf" }

// IterDims implements engine.App.
func (m *MF) IterDims() (int64, int64) { return m.ratings.Rows, m.ratings.Cols }

// NumSamples implements engine.App.
func (m *MF) NumSamples() int { return len(m.ratings.I) }

// SampleAt implements engine.App.
func (m *MF) SampleAt(i int) engine.Sample {
	return engine.Sample{Row: m.ratings.I[i], Col: m.ratings.J[i], Idx: i}
}

// Tables implements engine.App: W indexed by the row coordinate, H by
// the column coordinate.
func (m *MF) Tables() []engine.TableSpec {
	return []engine.TableSpec{
		{Name: "W", Rows: m.ratings.Rows, Width: m.rank, IndexedBy: engine.ByRow, Optimizer: m.opt},
		{Name: "H", Rows: m.ratings.Cols, Width: m.rank, IndexedBy: engine.ByCol, Optimizer: m.opt},
	}
}

// Init implements engine.App.
func (m *MF) Init(seed int64) []*dsm.DistArray {
	rng := rand.New(rand.NewSource(seed))
	w := dsm.NewDense("W", int64(m.rank), m.ratings.Rows)
	h := dsm.NewDense("H", int64(m.rank), m.ratings.Cols)
	scale := 1.0 / float64(m.rank)
	w.FillRandn(rng, scale)
	h.FillRandn(rng, 1.0)
	return []*dsm.DistArray{w, h}
}

// Process implements engine.App: one SGD step on one observed entry.
// Both gradients are computed from the values read before either update
// (matching Algorithm 1's use of W_i*^old).
func (m *MF) Process(s engine.Sample, st engine.Store, _ *rand.Rand) {
	w := st.Read(0, s.Row)
	h := st.Read(1, s.Col)
	var pred float64
	for d := 0; d < m.rank; d++ {
		pred += w[d] * h[d]
	}
	diff := pred - m.ratings.V[s.Idx]
	for d := 0; d < m.rank; d++ {
		m.gw[d] = 2 * diff * h[d]
		m.gh[d] = 2 * diff * w[d]
	}
	st.Update(0, s.Row, m.gw)
	st.Update(1, s.Col, m.gh)
}

// Loss implements engine.App: training nonzero squared loss.
func (m *MF) Loss(tables []*dsm.DistArray) float64 {
	w, h := tables[0], tables[1]
	var loss float64
	for i := range m.ratings.I {
		wv := w.Vec(m.ratings.I[i])
		hv := h.Vec(m.ratings.J[i])
		var pred float64
		for d := 0; d < m.rank; d++ {
			pred += wv[d] * hv[d]
		}
		e := pred - m.ratings.V[i]
		loss += e * e
	}
	return loss
}

// FlopsPerSample implements engine.App: dot + two gradient/update
// passes over rank-length vectors.
func (m *MF) FlopsPerSample() float64 { return float64(8 * m.rank) }

// LoopSpec implements engine.App: the Fig. 6 loop information record.
func (m *MF) LoopSpec() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name:           "sgd_mf",
		IterSpaceArray: "ratings",
		Dims:           []int64{m.ratings.Rows, m.ratings.Cols},
		Ordered:        false,
		Inherited:      []string{"step_size"},
		Refs: []ir.ArrayRef{
			{Array: "W", Subs: []ir.Subscript{ir.FullRange(), ir.Index(0, 0)}},
			{Array: "H", Subs: []ir.Subscript{ir.FullRange(), ir.Index(1, 0)}},
			{Array: "W", Subs: []ir.Subscript{ir.FullRange(), ir.Index(0, 0)}, IsWrite: true},
			{Array: "H", Subs: []ir.Subscript{ir.FullRange(), ir.Index(1, 0)}, IsWrite: true},
		},
	}
}
