package apps

import (
	"math"
	"math/rand"

	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/engine"
	"orion/internal/ir"
	"orion/internal/optim"
)

// SLR is sparse logistic regression trained with SGD. Each sample reads
// and updates the weights of its nonzero features — subscripts that
// depend on runtime data, so static dependence analysis cannot prove
// independence. The program exempts the weight writes through a
// DistArray Buffer, so Orion parallelizes it as 1D data parallelism
// (Table 2) and serves the weights from parameter-server processes with
// bulk prefetching (Section 4.4).
type SLR struct {
	ds  *data.Logistic
	opt optim.Optimizer
	g   []float64 // scratch 1-wide gradient
}

// NewSLR builds the app with the given update rule prototype.
func NewSLR(ds *data.Logistic, opt optim.Optimizer) *SLR {
	return &SLR{ds: ds, opt: opt, g: make([]float64, 1)}
}

// Name implements engine.App.
func (s *SLR) Name() string { return "slr" }

// IterDims implements engine.App: a 1D iteration space over samples.
func (s *SLR) IterDims() (int64, int64) { return int64(len(s.ds.Features)), 1 }

// NumSamples implements engine.App.
func (s *SLR) NumSamples() int { return len(s.ds.Features) }

// SampleAt implements engine.App.
func (s *SLR) SampleAt(i int) engine.Sample { return engine.Sample{Row: int64(i), Col: 0, Idx: i} }

// Tables implements engine.App: one weight per feature, accessed by
// runtime feature ids.
func (s *SLR) Tables() []engine.TableSpec {
	return []engine.TableSpec{
		{Name: "weights", Rows: s.ds.Dim, Width: 1, IndexedBy: engine.ByRuntime, Optimizer: s.opt},
	}
}

// Init implements engine.App.
func (s *SLR) Init(int64) []*dsm.DistArray {
	return []*dsm.DistArray{dsm.NewDense("weights", 1, s.ds.Dim)}
}

// Process implements engine.App: one SGD step on one sample's logistic
// loss (binary features, so the per-feature gradient is p - y).
func (s *SLR) Process(sm engine.Sample, st engine.Store, _ *rand.Rand) {
	feats := s.ds.Features[sm.Idx]
	var z float64
	for _, f := range feats {
		z += st.Read(0, f)[0]
	}
	p := 1 / (1 + math.Exp(-z))
	g := p - s.ds.Labels[sm.Idx]
	s.g[0] = g
	for _, f := range feats {
		st.Update(0, f, s.g)
	}
}

// Loss implements engine.App: total log loss.
func (s *SLR) Loss(tables []*dsm.DistArray) float64 {
	w := tables[0]
	var loss float64
	for i, feats := range s.ds.Features {
		var z float64
		for _, f := range feats {
			z += w.Vec(f)[0]
		}
		y := s.ds.Labels[i]
		// Numerically stable logistic loss.
		// loss = log(1+exp(z)) - y*z
		var l float64
		if z > 0 {
			l = z + math.Log1p(math.Exp(-z)) - y*z
		} else {
			l = math.Log1p(math.Exp(z)) - y*z
		}
		loss += l
	}
	return loss
}

// FlopsPerSample implements engine.App.
func (s *SLR) FlopsPerSample() float64 {
	if len(s.ds.Features) == 0 {
		return 0
	}
	return float64(4 * len(s.ds.Features[0]))
}

// AvgNNZ returns the mean nonzero features per sample (for prefetch
// cost modeling).
func (s *SLR) AvgNNZ() float64 {
	if len(s.ds.Features) == 0 {
		return 0
	}
	var t int
	for _, f := range s.ds.Features {
		t += len(f)
	}
	return float64(t) / float64(len(s.ds.Features))
}

// LoopSpec implements engine.App: runtime subscripts on the weights;
// writes buffered.
func (s *SLR) LoopSpec() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name:           "slr_sgd",
		IterSpaceArray: "samples",
		Dims:           []int64{int64(len(s.ds.Features))},
		Ordered:        false,
		Inherited:      []string{"step_size"},
		Refs: []ir.ArrayRef{
			{Array: "weights", Subs: []ir.Subscript{ir.Runtime()}},
			{Array: "weights", Subs: []ir.Subscript{ir.Runtime()}, IsWrite: true, Buffered: true},
		},
	}
}
