package engine

import (
	"fmt"
	"math/rand"
	"sort"

	"orion/internal/cluster"
	"orion/internal/plan"
	"orion/internal/sched"
)

// RunOrion plans the app's loop with Orion's static analysis and runs
// it under the selected dependence-preserving strategy. The loop's
// Ordered flag selects wavefront vs. rotation execution for 2D plans.
// Returns the plan alongside the result so callers can report the
// chosen strategy (Table 2).
func RunOrion(app App, cfg Config) (*Result, *sched.Plan, error) {
	cfg = cfg.withDefaults()
	art, pl, err := artifactFor(app, cfg)
	if err != nil {
		return nil, nil, err
	}
	switch pl.Kind {
	case sched.TwoDTransformed:
		res := runTransformed(app, cfg, pl, orionProfile())
		return res, pl, nil
	case sched.TwoD:
		res := runTwoD(app, cfg, pl, art, app.LoopSpec().Ordered, orionProfile())
		return res, pl, nil
	case sched.OneD, sched.Independent:
		if servedTables(app) {
			// Parameter access is data-dependent (e.g. SLR): Orion
			// falls back to buffered data parallelism (Section 3.3).
			res := runPS(app, cfg, false, "orion-1d-buffered")
			return res, pl, nil
		}
		res := runOneD(app, cfg, pl, art)
		return res, pl, nil
	default:
		return nil, pl, fmt.Errorf("engine: loop %q is not parallelizable without buffers", app.LoopSpec().Name)
	}
}

// RunOrion2D runs the dependence-preserving 2D strategy with explicit
// ordering control (for the ordered-vs-unordered ablation, Table 3).
func RunOrion2D(app App, cfg Config, ordered bool) (*Result, error) {
	cfg = cfg.withDefaults()
	art, pl, err := artifactFor(app, cfg)
	if err != nil {
		return nil, err
	}
	switch pl.Kind {
	case sched.TwoD:
		return runTwoD(app, cfg, pl, art, ordered, orionProfile()), nil
	case sched.TwoDTransformed:
		// Transformed loops have exactly one valid schedule shape (the
		// wavefront); the ordered flag is moot.
		return runTransformed(app, cfg, pl, orionProfile()), nil
	default:
		return nil, fmt.Errorf("engine: %s plans as %v, not 2D", app.Name(), pl.Kind)
	}
}

// RunSTRADS runs the same dependence-preserving rotation schedule under
// STRADS's cost profile: hand-written C++ (no managed-runtime compute
// overhead) and pointer-swap communication between same-machine workers.
func RunSTRADS(app App, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	art, pl, err := artifactFor(app, cfg)
	if err != nil {
		return nil, err
	}
	if pl.Kind != sched.TwoD && pl.Kind != sched.TwoDTransformed {
		return nil, fmt.Errorf("engine: %s plans as %v, not 2D", app.Name(), pl.Kind)
	}
	res := runTwoD(app, cfg, pl, art, false, stradsProfile())
	res.Engine = "strads"
	return res, nil
}

// costProfile captures the per-system execution cost differences the
// paper measures (Section 6.4): managed-runtime compute overhead and
// whether same-machine rotation is free.
type costProfile struct {
	name            string
	computeOverhead float64 // multiplier on the cluster's base overhead
	freeLocalComm   bool
}

func orionProfile() costProfile {
	return costProfile{name: "orion", computeOverhead: 1.0, freeLocalComm: false}
}

func stradsProfile() costProfile {
	// STRADS's C++ workers have no managed-runtime overhead; model that
	// as a discount relative to the cluster's configured overhead.
	return costProfile{name: "strads", computeOverhead: 0, freeLocalComm: true}
}

func servedTables(app App) bool {
	for _, t := range app.Tables() {
		if t.IndexedBy == ByRuntime {
			return true
		}
	}
	return false
}

// coordOf selects the iteration coordinate for a scheduler dimension.
// The engine's Sample.Row/Col correspond to loop dims 0/1.
func coordOf(s Sample, dim int) int64 {
	if dim == 0 {
		return s.Row
	}
	return s.Col
}

// runOneD executes a 1D-parallelizable loop: the iteration space is
// partitioned by the plan's space dimension, every worker runs its
// partition against the master directly (disjoint access is guaranteed
// by the dependence analysis), and workers synchronize once per pass.
func runOneD(app App, cfg Config, pl *sched.Plan, art *plan.Artifact) *Result {
	master := NewMasterStore(app, cfg.Seed)
	n := app.NumSamples()
	rows, cols := app.IterDims()
	extent := rows
	if pl.SpaceDim == 1 {
		extent = cols
	}
	weights := sched.Weights(extent, n, func(i int) int64 { return coordOf(app.SampleAt(i), pl.SpaceDim) })
	part, _, _ := art.Partitioners(weights, nil, plan.WeightsDigest(weights, nil), cfg.Workers, 0)
	blocks := make([][]int, cfg.Workers)
	for i := 0; i < n; i++ {
		w := part.PartOf(coordOf(app.SampleAt(i), pl.SpaceDim))
		blocks[w] = append(blocks[w], i)
	}
	var clock cluster.Clock
	res := &Result{Engine: "orion-1d", App: app.Name()}
	rngs := workerRngs(cfg.Seed, cfg.Workers)
	for pass := 0; pass < cfg.Passes; pass++ {
		var maxFlops float64
		for w := 0; w < cfg.Workers; w++ {
			shuffleInts(rngs[w], blocks[w])
			for _, i := range blocks[w] {
				app.Process(app.SampleAt(i), master, rngs[w])
			}
			f := float64(len(blocks[w])) * app.FlopsPerSample()
			if f > maxFlops {
				maxFlops = f
			}
		}
		clock.Advance(cfg.Cluster.ComputeTime(maxFlops) + cfg.Cluster.LatencySec)
		recordPass(res, &clock, 0, app, master, cfg)
	}
	return res
}

// runTwoD executes the dependence-preserving 2D strategy: the iteration
// space is partitioned into space × time blocks; rotated parameter
// tables move between workers between time steps. Ordered execution
// uses the Fig. 7(e) wavefront; unordered uses the Fig. 7(f) rotation
// with the Fig. 8 pipelining when PipelineDepth >= 2.
func runTwoD(app App, cfg Config, pl *sched.Plan, art *plan.Artifact, ordered bool, prof costProfile) *Result {
	master := NewMasterStore(app, cfg.Seed)
	n := app.NumSamples()
	nw := cfg.Workers
	depth := cfg.PipelineDepth
	timeParts := nw * depth

	rows, cols := app.IterDims()
	spaceDim, timeDim := pl.SpaceDim, pl.TimeDim
	spaceExtent, timeExtent := rows, cols
	if spaceDim == 1 {
		spaceExtent = cols
	}
	if timeDim == 0 {
		timeExtent = rows
	}

	spaceW := sched.Weights(spaceExtent, n, func(i int) int64 { return coordOf(app.SampleAt(i), spaceDim) })
	timeW := sched.Weights(timeExtent, n, func(i int) int64 { return coordOf(app.SampleAt(i), timeDim) })
	spacePart, timePart, _ := art.Partitioners(spaceW, timeW, plan.WeightsDigest(spaceW, timeW), nw, timeParts)

	blocks := make([][][]int, nw)
	for w := range blocks {
		blocks[w] = make([][]int, timeParts)
	}
	for i := 0; i < n; i++ {
		s := app.SampleAt(i)
		sp := spacePart.PartOf(coordOf(s, spaceDim))
		tp := timePart.PartOf(coordOf(s, timeDim))
		blocks[sp][tp] = append(blocks[sp][tp], i)
	}

	// Rotated tables are the ones indexed by the time coordinate; their
	// per-time-partition row ranges come from the same partitioner that
	// cut the iteration space. Global tables are synchronized (small)
	// every step.
	specs := app.Tables()
	timeIndexed := ByRow
	if timeDim == 1 {
		timeIndexed = ByCol
	}
	rotBytesOfTimePart := func(tp int) int64 {
		var b int64
		lo, hi := timePart.Bounds(tp)
		for _, t := range specs {
			if t.IndexedBy == timeIndexed {
				b += (hi - lo) * t.RowBytes()
			}
		}
		return b
	}
	var globalBytes int64
	for _, t := range specs {
		if t.IndexedBy == Global {
			globalBytes += t.Bytes()
		}
	}

	var schedule sched.Schedule
	if ordered {
		schedule = sched.OrderedTwoDSchedule(nw, timeParts)
	} else {
		schedule = sched.UnorderedTwoDSchedule(nw, depth)
	}

	base := cfg.Cluster
	base.ComputeOverhead = cfg.Cluster.ComputeOverhead * prof.computeOverhead
	if prof.computeOverhead == 0 {
		base.ComputeOverhead = 1 // "no managed-runtime overhead"
	}

	var clock cluster.Clock
	name := prof.name + "-2d-unordered"
	if ordered {
		name = prof.name + "-2d-ordered"
	}
	res := &Result{Engine: name, App: app.Name()}
	if cfg.TraceWindowSec > 0 {
		res.Trace = cluster.NewBandwidthTrace(cfg.TraceWindowSec)
	}
	rngs := workerRngs(cfg.Seed, nw)
	var cumBytes int64

	for pass := 0; pass < cfg.Passes; pass++ {
		for _, step := range schedule {
			var stepTime float64
			var stepBytes int64
			for _, e := range step {
				blk := blocks[e.SpacePart][e.TimePart]
				if ordered {
					sortLexicographic(app, blk)
				} else {
					shuffleInts(rngs[e.Worker], blk)
				}
				for _, i := range blk {
					app.Process(app.SampleAt(i), master, rngs[e.Worker])
				}
				compute := base.ComputeTime(float64(len(blk)) * app.FlopsPerSample())
				// After the step the worker ships its current rotated
				// partition to its successor on the ring.
				rot := rotBytesOfTimePart(e.TimePart) + globalBytes
				succ := (e.Worker + 1) % nw
				sameMachine := base.SameMachine(e.Worker, succ)
				var xfer float64
				if !(prof.freeLocalComm && sameMachine) {
					xfer = base.TransferTime(rot, sameMachine)
					if !sameMachine {
						// Bytes/bandwidth accounting tracks *network*
						// traffic (Fig. 12); same-machine rotation
						// moves through memory.
						stepBytes += rot
					}
				}
				var wTime float64
				if !ordered && depth >= 2 {
					// Pipelined: communication overlaps compute
					// (Fig. 8) — the worker proceeds to a locally
					// available time partition.
					wTime = compute
					if xfer > compute {
						wTime = xfer
					}
				} else {
					wTime = compute + xfer
				}
				if wTime > stepTime {
					stepTime = wTime
				}
			}
			stepTime += base.LatencySec // successor signal
			if res.Trace != nil {
				res.Trace.Record(clock.Now(), stepTime, stepBytes)
			}
			clock.Advance(stepTime)
			cumBytes += stepBytes
		}
		recordPass(res, &clock, cumBytes, app, master, cfg)
	}
	return res
}

func recordPass(res *Result, clock *cluster.Clock, cumBytes int64, app App, master *MasterStore, cfg Config) {
	res.Time = append(res.Time, clock.Now())
	res.Bytes = append(res.Bytes, cumBytes)
	if cfg.SkipLoss {
		res.Loss = append(res.Loss, 0)
	} else {
		res.Loss = append(res.Loss, app.Loss(master.Tables()))
	}
}

func workerRngs(seed int64, nw int) []*rand.Rand {
	out := make([]*rand.Rand, nw)
	for w := range out {
		out[w] = rand.New(rand.NewSource(seed + int64(w)*7919))
	}
	return out
}

func shuffleInts(rng *rand.Rand, s []int) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// RunTwoDWithPlan runs the dependence-preserving 2D strategy with a
// caller-supplied plan — e.g. one built with sched.Options.ForceDims to
// override the partition-dimension heuristic (the ablation in
// DESIGN.md). The partitions are materialized fresh (no artifact is
// consulted, since the plan did not come from artifactFor).
func RunTwoDWithPlan(app App, cfg Config, pl *sched.Plan, ordered bool) *Result {
	return runTwoD(app, cfg.withDefaults(), pl, nil, ordered, orionProfile())
}

// sortLexicographic orders sample indices by (row, col) — the loop's
// lexicographic iteration order, required for ordered loops.
func sortLexicographic(app App, blk []int) {
	sort.Slice(blk, func(a, b int) bool {
		sa, sb := app.SampleAt(blk[a]), app.SampleAt(blk[b])
		if sa.Row != sb.Row {
			return sa.Row < sb.Row
		}
		return sa.Col < sb.Col
	})
}
