package apps

import "orion/internal/ir"

// GBTSplitSearch returns the split-search loop record of gradient
// boosted regression trees with histogram-based split finding: the loop
// iterates over features, each reading its own histogram column and
// writing its own best-split slot — 1D parallelizable (Table 2). Nothing
// trains trees; Table 2 reads only the analyzer's verdict on this loop.
func GBTSplitSearch(features int64) *ir.LoopSpec {
	return &ir.LoopSpec{
		Name:           "gbt_split_search",
		IterSpaceArray: "features",
		Dims:           []int64{features},
		Ordered:        false,
		Inherited:      []string{"grad", "samples"},
		Refs: []ir.ArrayRef{
			{Array: "histograms", Subs: []ir.Subscript{ir.FullRange(), ir.Index(0, 0)}},
			{Array: "best_splits", Subs: []ir.Subscript{ir.Index(0, 0)}, IsWrite: true},
		},
	}
}
