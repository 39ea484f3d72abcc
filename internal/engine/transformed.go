package engine

import (
	"sort"

	"orion/internal/cluster"
	"orion/internal/plan"
	"orion/internal/sched"
)

// runTransformed executes a loop whose plan required a unimodular
// transformation (Section 4.3): in the transformed iteration space all
// dependences are carried by the outermost (time) dimension, so the
// loop runs as a classic wavefront — one transformed-time hyperplane at
// a global step, the hyperplane's iterations partitioned across workers
// by the space dimension, a synchronization barrier between
// hyperplanes.
//
// Unlike runTwoD, time granularity must be a single transformed-time
// value: dependences may have any positive time distance, so two blocks
// spanning a time range could contain dependent iterations.
func runTransformed(app App, cfg Config, pl *sched.Plan, prof costProfile) *Result {
	master := NewMasterStore(app, cfg.Seed)
	n := app.NumSamples()
	nw := cfg.Workers
	t := pl.Transform

	// Transform every sample's coordinates; rebase so they start at 0.
	type tcoord struct {
		time, space int64
		idx         int
	}
	coords := make([]tcoord, n)
	minT, minS := int64(1<<62), int64(1<<62)
	maxT := int64(-1 << 62)
	for i := 0; i < n; i++ {
		s := app.SampleAt(i)
		q := t.Apply([]int64{s.Row, s.Col})
		c := tcoord{time: q[0], space: q[1], idx: i}
		if c.time < minT {
			minT = c.time
		}
		if c.time > maxT {
			maxT = c.time
		}
		if c.space < minS {
			minS = c.space
		}
		coords[i] = c
	}
	for i := range coords {
		coords[i].time -= minT
		coords[i].space -= minS
	}
	timeExtent := maxT - minT + 1

	// Hyperplane buckets, each partitioned across workers by the space
	// coordinate. Iterations within a hyperplane are mutually
	// independent (all dependences are outer-carried), so any
	// assignment is serializable; partition for load balance.
	var maxSpace int64
	for _, c := range coords {
		if c.space > maxSpace {
			maxSpace = c.space
		}
	}
	// The transformed-space extents are data-dependent, so this
	// partition is never stored in the artifact; it is materialized
	// fresh per run through the plan layer's single balancing helper.
	spaceW := make([]int64, maxSpace+1)
	for _, c := range coords {
		spaceW[c.space]++
	}
	spacePart := plan.BalancedPartitioner(spaceW, nw)

	planes := make([][][]int, timeExtent) // [time][worker][]sampleIdx
	for t := range planes {
		planes[t] = make([][]int, nw)
	}
	// Deterministic fill: sort by (time, space, idx).
	sort.Slice(coords, func(a, b int) bool {
		if coords[a].time != coords[b].time {
			return coords[a].time < coords[b].time
		}
		if coords[a].space != coords[b].space {
			return coords[a].space < coords[b].space
		}
		return coords[a].idx < coords[b].idx
	})
	for _, c := range coords {
		w := spacePart.PartOf(c.space)
		planes[c.time][w] = append(planes[c.time][w], c.idx)
	}

	base := cfg.Cluster
	base.ComputeOverhead = cfg.Cluster.ComputeOverhead * prof.computeOverhead
	if prof.computeOverhead == 0 {
		base.ComputeOverhead = 1
	}

	var clock cluster.Clock
	res := &Result{Engine: prof.name + "-2d-transformed", App: app.Name()}
	rngs := workerRngs(cfg.Seed, nw)
	var cumBytes int64

	for pass := 0; pass < cfg.Passes; pass++ {
		for ti := int64(0); ti < timeExtent; ti++ {
			var stepTime float64
			for w := 0; w < nw; w++ {
				blk := planes[ti][w]
				for _, i := range blk {
					app.Process(app.SampleAt(i), master, rngs[w])
				}
				c := base.ComputeTime(float64(len(blk)) * app.FlopsPerSample())
				if c > stepTime {
					stepTime = c
				}
			}
			// Barrier + halo exchange between hyperplanes: each worker
			// ships the boundary rows its successors read. Modeled as
			// one row of each served table per worker.
			var halo int64
			for _, tb := range app.Tables() {
				halo += tb.RowBytes()
			}
			halo *= int64(nw)
			stepTime += base.TransferTime(halo/int64(max(1, base.Machines)), false)
			cumBytes += halo
			clock.Advance(stepTime)
		}
		recordPass(res, &clock, cumBytes, app, master, cfg)
	}
	return res
}
