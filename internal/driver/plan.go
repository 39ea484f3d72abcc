package driver

import (
	"fmt"
	"sort"
	"strings"

	"orion/internal/check"
	"orion/internal/dep"
	"orion/internal/diag"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/sched"
)

// compiledLoop is one fully planned loop: the parsed source, the static
// pipeline's outputs, and the materialized plan artifact. ParallelFor
// and PlanOf resolve source through planFor, so an unchanged program
// compiles exactly once per session (and, with SetPlanCacheDir, once
// per machine).
type compiledLoop struct {
	loop *lang.Loop
	spec *ir.LoopSpec
	deps *dep.Set
	// plan is the plan the loop executes under: an ordered loop's places
	// what the static plan rotates down the wavefront (placementFor).
	plan *sched.Plan
	art  *plan.Artifact
	// guard, when non-nil, makes plan conditional: the synthesized
	// runtime predicate (ORN203) is evaluated against the session's
	// globals at dispatch, and a failure demotes the loop to a serial
	// driver-side pass (ORN204) instead of refusing it.
	guard *dep.Guard
	// diags is the diagnostic list the compile produced; replayed into
	// Session.Diagnostics on cache hits.
	diags diag.List
	// evidence names the dependence vectors / references blocking
	// parallelization, for the refusal message of serial and
	// transformed strategies.
	evidence string
}

// SetPlanCacheDir enables the on-disk plan artifact cache: compiled
// plans are stored content-addressed under dir, and a later session
// running an unchanged program (same source, arrays, globals, backend,
// and worker count) skips parse/analyze/plan entirely. Artifacts with
// error diagnostics are never persisted.
func (s *Session) SetPlanCacheDir(dir string) {
	s.planDisk = plan.NewCache(dir)
}

// planKey fingerprints everything the static pipeline's output depends
// on in this session: the loop source and ordering, the execution
// backend and worker count, and the declared environment (arrays with
// extents and driver-side sizes, buffers, global names). Planning never
// fetches: the sizes are the last known, and a sparse array whose
// population a loop changed re-plans at its next fetch.
func (s *Session) planKey(src string, ordered bool) string {
	parts := []string{"driver", src, fmt.Sprintf("ordered=%v backend=%s n=%d", ordered, s.backend, s.n)}
	for name, a := range s.arrays {
		parts = append(parts, fmt.Sprintf("array %s %v bytes=%d", name, a.Dims(), int64(a.Len())*8))
	}
	sort.Strings(parts[3:])
	bufs := make([]string, 0, len(s.env.Buffers))
	for b, target := range s.env.Buffers {
		bufs = append(bufs, b+"->"+target)
	}
	sort.Strings(bufs)
	globals := make([]string, 0, len(s.globals))
	for g := range s.globals {
		globals = append(globals, g)
	}
	sort.Strings(globals)
	parts = append(parts, "buffers "+strings.Join(bufs, ","), "globals "+strings.Join(globals, ","))
	return plan.Key(parts...)
}

// planFor resolves loop source to its compiled plan: the session memo
// first, then the on-disk artifact cache, then a fresh run of the
// static pipeline. Like the old vet path, it returns a non-nil error
// for error diagnostics while still returning the entry when a plan
// exists (so callers can report the strategy verdict).
func (s *Session) planFor(src string, ordered bool) (*compiledLoop, error) {
	key := s.planKey(src, ordered)
	if e, ok := s.planMem[key]; ok {
		obs.GetCounter("driver.plan_reuse").Inc()
		s.event("plan.cache.hit", e.spec.Name, "session memo")
		s.lastDiags = append(diag.List(nil), e.diags...)
		return e, e.diags.Err()
	}
	if s.planDisk != nil {
		if art := s.planDisk.Get(key); art != nil {
			if e, err := s.entryFromArtifact(art, ordered); err == nil {
				obs.GetCounter("driver.plan_reuse").Inc()
				s.event("plan.cache.hit", e.spec.Name, "disk artifact")
				s.planMem[key] = e
				s.lastDiags = nil
				return e, nil
			}
			// Unusable artifact (hand-edited, or written by a build
			// whose reconstruction rules changed): recompile below and
			// overwrite it.
		}
	}
	e, err := s.compile(src, ordered)
	if e == nil {
		return nil, err
	}
	s.event("plan.cache.miss", e.spec.Name, "compiled")
	s.planMem[key] = e
	if s.planDisk != nil && !e.diags.HasErrors() {
		s.planDisk.Put(key, e.art)
	}
	return e, err
}

// event logs one driver-side decision about a loop (a plan-cache
// outcome, a backend, a ship, a fetch) at the current clock.
func (s *Session) event(kind, loop, detail string) {
	obs.Flight().Record(obs.FlightEvent{
		Kind: kind, Clock: s.master.Clock(),
		Loop: loop, Pass: -1, Step: -1, Worker: -1,
		Detail: detail,
	})
}

// compile runs the full static pipeline over loop source and
// materializes the plan artifact: strategy, histogram-balanced
// partitions cut from the session's current data, and the synthesized
// prefetch spec.
func (s *Session) compile(src string, ordered bool) (*compiledLoop, error) {
	prevOrdered := s.env.Ordered
	s.env.Ordered = ordered
	defer func() { s.env.Ordered = prevOrdered }()

	res, err := s.vet(src)
	if err != nil && (res == nil || res.Plan == nil) {
		return nil, err
	}
	e := &compiledLoop{
		loop:     res.Loop,
		spec:     res.Spec,
		deps:     res.Deps(),
		plan:     placementFor(res.Plan, ordered),
		diags:    append(diag.List(nil), res.Diags...),
		evidence: blockingEvidence(res),
		guard:    res.Guard,
	}

	in := plan.Inputs{
		Spec:      e.spec,
		Deps:      e.deps,
		Plan:      e.plan,
		Opts:      s.schedOptions(),
		Workers:   s.n,
		TimeParts: e.plan.TimeParts(s.n),
		LoopSrc:   e.loop.String(),
		Prefetch:  s.prefetchSpec(e),
		Guard:     res.Guard,
	}
	// Partition weights come from the session's current data; the
	// artifact records their digest so execution can detect drift and
	// re-balance (plan.repartition).
	switch e.plan.Kind {
	case sched.Independent, sched.OneD, sched.TwoD:
		space := s.iterSpaceOf(e)
		in.SpaceWeights, in.TimeWeights, in.WeightsDigest = space.spaceW, space.timeW, space.digest
	}
	art, aerr := plan.Build(in)
	if aerr != nil {
		return nil, fmt.Errorf("driver: materializing plan artifact: %w", aerr)
	}
	e.art = art
	return e, err
}

// placementFor is the plan a loop planned as pl executes under, ordered
// or not (sched.Plan.ForOrdered).
func placementFor(pl *sched.Plan, ordered bool) *sched.Plan {
	if ordered {
		return pl.ForOrdered()
	}
	return pl
}

// prefetchSpec synthesizes the bulk-prefetch slice (Section 4.4) for
// the arrays the loop will actually read through the parameter-server
// path: the served arrays of the plan it executes under.
func (s *Session) prefetchSpec(e *compiledLoop) *plan.Prefetch {
	targets := servedReadTargets(e.spec, e.plan)
	if len(targets) == 0 {
		return nil
	}
	sliced, _, err := lang.PrefetchSlice(e.loop, s.env, targets...)
	if err != nil || len(sliced.Body) == 0 {
		return nil
	}
	return &plan.Prefetch{Src: sliced.String(), Arrays: targets}
}

// entryFromArtifact reconstructs a compiled loop from a cached
// artifact: the loop is re-parsed from the artifact's canonical source
// and the sched.Plan is rebuilt from the serialized decision — no
// dependence analysis, no planning, no partitioning.
func (s *Session) entryFromArtifact(art *plan.Artifact, ordered bool) (*compiledLoop, error) {
	if art.LoopSrc == "" {
		return nil, fmt.Errorf("driver: cached artifact carries no loop source")
	}
	loop, err := lang.Parse(art.LoopSrc)
	if err != nil {
		return nil, fmt.Errorf("driver: reparsing cached loop: %w", err)
	}
	pl, err := art.SchedPlan()
	if err != nil {
		return nil, err
	}
	deps := art.DepSet()
	evidence := "no single dependence witness available"
	if !deps.Empty() {
		var vecs []string
		for _, v := range deps.Vectors() {
			vecs = append(vecs, v.String())
		}
		evidence = "blocking dependence vectors " + strings.Join(vecs, ", ")
	}
	return &compiledLoop{
		loop:     loop,
		spec:     &art.Loop,
		deps:     deps,
		plan:     placementFor(pl, ordered),
		art:      art,
		evidence: evidence,
		guard:    art.Guard,
	}, nil
}

// schedOptions builds the planning options this session vets and
// fingerprints with: defaults plus the driver-side array sizes, as last
// known (see planKey).
func (s *Session) schedOptions() sched.Options {
	sopts := sched.DefaultOptions()
	sopts.ArrayBytes = map[string]int64{}
	for name, a := range s.arrays {
		sopts.ArrayBytes[name] = int64(a.Len()) * 8
	}
	return sopts
}

// PlanArtifact runs the static pipeline (or hits the cache) and returns
// the loop's serializable plan artifact without executing anything.
func (s *Session) PlanArtifact(src string) (*plan.Artifact, error) {
	e, err := s.planFor(src, s.env.Ordered)
	if e == nil {
		return nil, err
	}
	return e.art, nil
}

// blockingEvidence names the dependence vectors and array references
// that forced the strategy — the "why" for a refused ParallelFor.
func blockingEvidence(res *check.Result) string {
	if res.Detail == nil || len(res.Detail.Causes) == 0 {
		var vecs []string
		if d := res.Deps(); d != nil {
			for _, v := range d.Vectors() {
				vecs = append(vecs, v.String())
			}
		}
		if len(vecs) == 0 {
			return "no single dependence witness available"
		}
		return "blocking dependence vectors " + strings.Join(vecs, ", ")
	}
	parts := make([]string, 0, len(res.Detail.Causes))
	for _, c := range res.Detail.Causes {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, "; ")
}
