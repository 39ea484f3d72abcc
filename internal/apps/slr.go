package apps

import (
	"orion/internal/data"
	"orion/internal/ir"
)

// SLR is sparse logistic regression trained with SGD. Each sample reads
// and updates the weights of its nonzero features — subscripts that
// depend on runtime data, so static dependence analysis cannot prove
// independence. The program exempts the weight writes through a
// DistArray Buffer, so Orion parallelizes it as 1D data parallelism
// (Table 2) and serves the weights from parameter-server processes with
// bulk prefetching (Section 4.4). The simulator does not train it: Table
// 2 plans its loop and the prefetch experiment costs its reads.
type SLR struct {
	ds *data.Logistic
}

// NewSLR builds the app over a dataset.
func NewSLR(ds *data.Logistic) *SLR { return &SLR{ds: ds} }

// NumSamples returns the number of training samples.
func (s *SLR) NumSamples() int { return len(s.ds.Features) }

// FlopsPerSample returns the kernel's flops per sample.
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

// LoopSpec describes the training loop: runtime subscripts on the
// weights; writes buffered.
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
