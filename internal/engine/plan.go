package engine

import (
	"orion/internal/plan"
	"orion/internal/sched"
)

// artifactFor plans the app's loop and materializes its artifact: the
// partition cuts balanced on the data's per-coordinate histograms.
func artifactFor(app App, cfg Config) (*plan.Artifact, *sched.Plan, error) {
	spec := app.LoopSpec()
	opts := sched.DefaultOptions()
	opts.ArrayBytes = map[string]int64{}
	for _, t := range app.Tables() {
		opts.ArrayBytes[t.Name] = t.Bytes()
	}

	n := app.NumSamples()
	rows, cols := app.IterDims()
	rowW := sched.Weights(rows, n, func(i int) int64 { return app.SampleAt(i).Row })
	colW := sched.Weights(cols, n, func(i int) int64 { return app.SampleAt(i).Col })

	nw := cfg.Workers
	timeParts := nw * cfg.PipelineDepth
	pl, err := sched.New(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	in := plan.Inputs{
		Spec:      spec,
		Deps:      pl.Deps,
		Plan:      pl,
		Opts:      opts,
		Workers:   nw,
		TimeParts: timeParts,
	}
	dimW := func(d int) []int64 {
		if d == 0 {
			return rowW
		}
		return colW
	}
	switch pl.Kind {
	case sched.Independent, sched.OneD:
		in.SpaceWeights = dimW(pl.SpaceDim)
	case sched.TwoD:
		in.SpaceWeights = dimW(pl.SpaceDim)
		in.TimeWeights = dimW(pl.TimeDim)
	}
	art, err := plan.Build(in)
	if err != nil {
		return nil, nil, err
	}
	return art, pl, nil
}
