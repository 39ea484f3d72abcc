package driver

import (
	"fmt"
	"slices"

	"orion/internal/diag"
	"orion/internal/dsm"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// run distributes and executes a parallelizable loop: the iteration
// space and space-indexed arrays are partitioned by the space dimension
// and served arrays are sharded across the executors with synthesized
// bulk prefetching. 1D (and independent) loops stop there — one block
// per executor per pass. Unordered 2D loops rotate the time-indexed
// arrays around the executor ring between steps (Fig. 7f). Ordered 2D
// loops run as a wavefront (Fig. 7e) with the time-indexed arrays
// *served* instead of rotated: the wavefront guarantees concurrently
// running blocks touch disjoint ranges, so direct served writes stay
// serializable and execution preserves lexicographic order.
//
// The attempt function distributes state for a resume position and
// executes from it up to a stop boundary; runReconfigurable retries it
// through worker losses (when checkpointing is enabled) and quiesces at
// interior boundaries while an adaptive or grow trigger is armed.
func (s *Session) run(e *compiledLoop, passes int, ordered bool) error {
	kernel := s.nextLoopName(e)
	return s.runReconfigurable(e, kernel, passes, func(start resumePos, stopPass int) ([]string, error) {
		space := s.iterSpaceOf(e)
		spacePart, timePart := s.partitioners(e, space)
		def := runtime.LoopDef{
			Kernel:    kernel,
			TimeDim:   -1,
			Passes:    passes,
			StartPass: start.pass,
			StartStep: start.step,
			StopPass:  stopPass,
		}
		if e.plan.Kind == sched.TwoD {
			def.TimeDim, def.TimePart = e.plan.TimeDim, timePart
			def.Ordered, def.Rotate = ordered, !ordered
		}
		// Whatever the placement rotates starts at the resume step's ring
		// phase, so a mid-pass resume reproduces the faulted run's.
		gathered, err := s.placeArrays(e.spec, e.placed, spacePart, timePart, start.step)
		if err != nil {
			return nil, err
		}
		if err := s.shipIterSpace(e, space, spacePart); err != nil {
			return nil, err
		}
		if err := s.defineLoopAs(e, kernel); err != nil {
			return nil, err
		}
		def.Checkpoint = s.checkpointSpec(e, gathered)
		return gathered, s.master.ParallelFor(def)
	})
}

// partitioners returns the executable space/time partitioners for this
// run: the artifact's materialized cuts while they still fit the data
// and the fleet (plan.Artifact.Partitioners), a fresh balancing —
// counted as plan.repartition — otherwise.
func (s *Session) partitioners(e *compiledLoop, r *iterSpace) (spacePart, timePart *sched.Partitioner) {
	spacePart, timePart, reused := e.art.Partitioners(r.spaceW, r.timeW, r.digest, s.n, s.n)
	if !reused {
		obs.GetCounter("plan.repartition").Inc()
	}
	// The adaptive trigger maps each coordinate back to the worker that
	// owned it in the profiled segment through this (adapt.go).
	s.lastSpacePart = spacePart
	return spacePart, timePart
}

// iterSpace is the session's record of the one iteration space it
// keeps resident on the fleet (§4: partitioned once, it stays where it
// is; only rotated partitions and served parameters move between
// steps). The counts stand while stamp holds for the array; the
// flattened samples are never kept.
type iterSpace struct {
	stamp             dsm.Stamp
	spaceDim, timeDim int
	// spaceW/timeW are the raw per-coordinate iteration counts of the
	// loop's space/time dimensions — the weights the static pipeline
	// cut from, and the base the adaptive trigger re-weights — and digest
	// is their plan.WeightsDigest. Read-only.
	spaceW, timeW []int64
	digest        string

	// stale says why the executors do not hold this space. It is ""
	// from the session's own ship of it, cut at cuts, and that stands
	// while the master's residency epoch still reads epoch. generation
	// only tells a re-formed fleet from somebody else's ship, for the
	// flight log.
	stale             string
	cuts              []int64
	epoch, generation int64
}

// iterSpaceOf returns the record of the loop's iteration space,
// re-counting (dsm.DistArray.CoordCounts: nothing is flattened until it
// ships) when the array changed or the record is of another space.
func (s *Session) iterSpaceOf(e *compiledLoop) *iterSpace {
	arr := s.arrays[e.spec.IterSpaceArray]
	timeDim := -1
	if e.plan.Kind == sched.TwoD {
		timeDim = e.plan.TimeDim
	}
	old := s.resident
	unchanged := old != nil && old.stamp.Holds(arr)
	if unchanged && old.spaceDim == e.plan.SpaceDim && old.timeDim == timeDim {
		return old
	}
	r := &iterSpace{stamp: arr.Stamp(), spaceDim: e.plan.SpaceDim, timeDim: timeDim, stale: "first"}
	if timeDim >= 0 {
		counts := arr.CoordCounts(r.spaceDim, timeDim)
		r.spaceW, r.timeW = counts[0], counts[1]
	} else {
		r.spaceW = arr.CoordCounts(r.spaceDim)[0]
	}
	r.digest = plan.WeightsDigest(r.spaceW, r.timeW)
	switch {
	case old == nil:
	case old.stale != "":
		r.stale = old.stale
	case unchanged:
		r.stale = "recut" // the same samples, cut along other dimensions
	default:
		r.stale = "mutated"
	}
	s.resident = r
	return r
}

// shipIterSpace makes the executors hold the iteration space cut by
// part, which they already do when this session shipped exactly that
// and nobody has shipped or re-formed the fleet since.
func (s *Session) shipIterSpace(e *compiledLoop, r *iterSpace, part *sched.Partitioner) error {
	cuts, epoch := part.Boundaries(), s.master.IterSpaceEpoch()
	reason := r.stale
	switch {
	case reason != "":
	case r.epoch != epoch && r.generation != s.generation.Load():
		reason = "fleet"
	case r.epoch != epoch:
		reason = "foreign-ship"
	case !slices.Equal(r.cuts, cuts):
		reason = "recut"
	}
	kind := "iterspace.reuse"
	if reason != "" {
		kind = "iterspace.ship"
		if err := s.master.DistributeIterSpace(s.iterSamples(e.spec), r.spaceDim, part); err != nil {
			return err
		}
		r.stale, r.cuts, r.epoch, r.generation = "", cuts, s.master.IterSpaceEpoch(), s.generation.Load()
		obs.GetCounter("driver.iterspace_ship").Inc()
	} else {
		obs.GetCounter("driver.iterspace_reuse").Inc()
	}
	obs.Flight().Record(obs.FlightEvent{
		Kind: kind, Clock: s.master.Clock(),
		Loop: e.spec.Name, Pass: -1, Step: -1, Worker: -1,
		Detail: reason,
	})
	return nil
}

// iterSamples flattens the iteration-space array into runtime samples.
// ForEach cuts the walk's index tuples from one allocation and leaves
// them to the callback, so they are the keys.
func (s *Session) iterSamples(spec *ir.LoopSpec) []runtime.IterSample {
	iter := s.arrays[spec.IterSpaceArray]
	out := make([]runtime.IterSample, 0, iter.Len())
	iter.ForEach(func(idx []int64, v float64) {
		out = append(out, runtime.IterSample{Key: idx, Val: v})
	})
	return out
}

// placeArrays distributes every referenced array per the plan and
// returns the names to gather back afterwards. Served arrays get a
// synthesized bulk-prefetch function when the slicer can produce one.
// phase places rotated arrays as the ring stands after that many steps
// (zero for a fresh pass; the resume step when recovering mid-pass).
func (s *Session) placeArrays(spec *ir.LoopSpec, pl *sched.Plan,
	spacePart, timePart *sched.Partitioner, phase int) ([]string, error) {
	var gathered []string
	for _, ap := range pl.Arrays {
		if ap.Array == spec.IterSpaceArray {
			continue
		}
		arr, ok := s.arrays[ap.Array]
		if !ok {
			return nil, fmt.Errorf("driver: loop references unknown array %q", ap.Array)
		}
		var err error
		switch ap.Place {
		case sched.Local:
			err = s.master.DistributeLocal(arr, ap.PartDim, spacePart.Boundaries())
		case sched.Rotated:
			if timePart == nil {
				return nil, fmt.Errorf("driver: plan rotates %q but the loop is 1D", ap.Array)
			}
			err = s.master.DistributeRotatedAt(arr, ap.PartDim, timePart.Boundaries(), phase)
		case sched.Served:
			// Shard the array across the executors (peer-to-peer
			// parameter serving); gather merges the shards back.
			err = s.master.DistributeServed(arr)
		}
		if err != nil {
			return nil, err
		}
		gathered = append(gathered, ap.Array)
	}
	return gathered, nil
}

func (s *Session) gather(names []string) error {
	for _, name := range names {
		a, err := s.master.Gather(name)
		if err != nil {
			return err
		}
		s.arrays[name] = a
	}
	return nil
}

// nextLoopName mints the kernel name for one ParallelFor call. Recovery
// attempts of the same call reuse the name — checkpoints are keyed on
// it, and executor-side kernel state (e.g. the per-block RNG) is too.
func (s *Session) nextLoopName(e *compiledLoop) string {
	return fmt.Sprintf("dsl-%s-%d", e.spec.Name, s.loopSeq.Add(1))
}

// defineLoopAs ships the loop — its source plus the serialized plan
// artifact, which carries the strategy, the materialized partitions,
// and the synthesized prefetch slice — to every executor as a
// DefineLoop message; each executor compiles it into a kernel via
// internal/dslkernel. This is how loop bodies reach workers in separate
// processes (cmd/orion-worker): no per-loop registration, the code and
// the plan travel with the message.
func (s *Session) defineLoopAs(e *compiledLoop, name string) error {
	def := &runtime.Msg{
		LoopName:  name,
		LoopSrc:   e.loop.String(),
		ArrayDims: map[string][]int64{},
		Buffers:   map[string]string{},
	}
	for n2, d := range s.env.Arrays {
		def.ArrayDims[n2] = append([]int64(nil), d...)
	}
	for b, target := range s.env.Buffers {
		def.Buffers[b] = target
	}
	for k, v := range s.globals {
		def.GlobalNames = append(def.GlobalNames, k)
		def.GlobalVals = append(def.GlobalVals, v)
	}
	def.AccumNames = lang.Accumulators(e.loop)
	def.Backend = s.backend

	// Surface the backend decision — identical to the one every worker's
	// dslkernel.Compile will reach — as an Info diagnostic, record it in
	// the plan artifact, and reject a pinned backend that cannot be
	// honored before shipping.
	backend, err := s.kernelBackend(e.loop)
	if err != nil {
		return err
	}
	s.lastDiags.Add(diag.Infof(diag.CodeBackend, diag.Pos{}, "",
		"loop %s executes on the %s backend", name, backend))
	obs.Flight().Record(obs.FlightEvent{
		Kind: "backend.select", Clock: s.master.Clock(),
		Loop: name, Pass: -1, Step: -1, Worker: -1,
		Detail: backend,
	})
	e.art.Backend = backend
	def.PlanBlob = e.art.EncodeBinary()

	if err := s.master.DefineLoop(def); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastKernel = name
	s.mu.Unlock()
	return nil
}

func servedReadTargets(spec *ir.LoopSpec, pl *sched.Plan) []string {
	served := map[string]bool{}
	for _, ap := range pl.Arrays {
		if ap.Place == sched.Served {
			served[ap.Array] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range spec.Refs {
		if r.IsWrite || r.Array == spec.IterSpaceArray || seen[r.Array] || !served[r.Array] {
			continue
		}
		seen[r.Array] = true
		out = append(out, r.Array)
	}
	return out
}
