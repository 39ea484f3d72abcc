package driver

import (
	"fmt"

	"orion/internal/diag"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// run distributes and executes a parallelizable loop: the iteration
// space and space-indexed arrays are partitioned by the space dimension
// and served arrays are sharded across the executors with synthesized
// bulk prefetching. 1D (and independent) loops stop there — one block
// per executor per pass. Unordered 2D loops rotate the time-indexed
// arrays around the executor ring between steps (Fig. 7f). Ordered 2D
// loops run as a wavefront (Fig. 7e) over finer time cuts (Fig. 8): each
// executor hands every time partition it ran to the next, so execution
// preserves lexicographic order.
//
// The attempt function makes the executors hold state for a resume
// position — shipping only what they do not hold already (resident.go) —
// and executes from it up to a stop boundary; runReconfigurable retries
// it through worker losses (when checkpointing is enabled) and quiesces
// at interior boundaries while an adaptive or grow trigger is armed.
func (s *Session) run(e *compiledLoop, passes int) error {
	// A pinned backend that cannot be honored is rejected before shipping.
	backend, err := s.kernelBackend(e.loop)
	if err != nil {
		return err
	}
	// Recovery attempts of one call share its kernel name — checkpoints
	// are keyed on it, and so is executor-side kernel state (the RNG).
	kernel := fmt.Sprintf("dsl-%s-%d", e.spec.Name, s.loopSeq.Add(1))
	return s.runReconfigurable(e, kernel, passes, func(start resumePos, stopPass int) error {
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
			def.Ordered, def.Rotate = e.plan.Ordered, !e.plan.Ordered
		}
		// Whatever the placement moves starts where it stands at the resume
		// step, so a mid-pass resume reproduces the faulted run's.
		names, err := s.placeArrays(e, spacePart, timePart, start.step)
		if err != nil {
			return err
		}
		if err := s.hold(e, space, space.key, spacePart.Boundaries(), func() error {
			return s.master.DistributeIterSpace(s.iterSamples(e.spec), space.key.PartDim, spacePart)
		}); err != nil {
			return err
		}
		if err := s.defineLoopAs(e, kernel, backend); err != nil {
			return err
		}
		def.Checkpoint = s.checkpointSpec(e, names)
		if err := s.master.ParallelFor(def); err != nil {
			return err
		}
		return s.wrote(e)
	})
}

// partitioners returns the executable space/time partitioners for this
// run: the artifact's materialized cuts while they still fit the data
// and the fleet (plan.Artifact.Partitioners), a fresh balancing —
// counted as plan.repartition — otherwise.
func (s *Session) partitioners(e *compiledLoop, r *resident) (spacePart, timePart *sched.Partitioner) {
	spacePart, timePart, reused := e.art.Partitioners(r.spaceW, r.timeW, r.digest, s.n, e.plan.TimeParts(s.n))
	if !reused {
		obs.GetCounter("plan.repartition").Inc()
	}
	// The adaptive trigger maps each coordinate back to the worker that
	// owned it in the profiled segment through this (adapt.go).
	s.lastSpacePart = spacePart
	return spacePart, timePart
}

// iterSamples flattens the iteration-space array into runtime samples.
// ForEach cuts the walk's index tuples from one allocation and leaves
// them to the callback, so they are the keys.
func (s *Session) iterSamples(spec *ir.LoopSpec) []runtime.IterSample {
	iter := s.Array(spec.IterSpaceArray)
	out := make([]runtime.IterSample, 0, iter.Len())
	iter.ForEach(func(idx []int64, v float64) {
		out = append(out, runtime.IterSample{Key: idx, Val: v})
	})
	return out
}

// defineLoopAs ships the loop — its source plus the serialized plan
// artifact, which carries the strategy, the materialized partitions,
// and the synthesized prefetch slice — to every executor as a
// DefineLoop message; each executor compiles it into a kernel via
// internal/dslkernel. This is how loop bodies reach workers in separate
// processes (cmd/orion-worker): no per-loop registration, the code and
// the plan travel with the message.
func (s *Session) defineLoopAs(e *compiledLoop, name, backend string) error {
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
	// dslkernel.Compile will reach — as an Info diagnostic and record it
	// in the plan artifact.
	s.lastDiags.Add(diag.Infof(diag.CodeBackend, diag.Pos{}, "",
		"loop %s executes on the %s backend", name, backend))
	s.event("backend.select", name, backend)
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
