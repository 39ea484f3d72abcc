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
// compiles exactly once per session.
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

// planKey fingerprints everything the static pipeline's output depends
// on in this session: the loop source and ordering, the worker count,
// and the declared environment (arrays with extents and driver-side
// sizes, buffers, global names). Planning never fetches: the sizes are
// the last known, and a sparse array whose population a loop changed
// re-plans at its next fetch.
func (s *Session) planKey(src string, ordered bool) string {
	parts := []string{"driver", src, fmt.Sprintf("ordered=%v n=%d", ordered, s.n)}
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

// planFor resolves loop source to its compiled plan: the session memo,
// or a fresh run of the static pipeline. Like the old vet path, it
// returns a non-nil error for error diagnostics while still returning
// the entry when a plan exists (so callers can report the strategy
// verdict).
func (s *Session) planFor(src string, ordered bool) (*compiledLoop, error) {
	key := s.planKey(src, ordered)
	if e, ok := s.planMem[key]; ok {
		obs.GetCounter("driver.plan_reuse").Inc()
		s.event(obs.FlightPlanCacheHit, e.spec.Name, "session memo")
		s.lastDiags = append(diag.List(nil), e.diags...)
		return e, e.diags.Err()
	}
	e, err := s.compile(src, ordered)
	if e == nil {
		return nil, err
	}
	s.event(obs.FlightPlanCacheMiss, e.spec.Name, "compiled")
	s.planMem[key] = e
	return e, err
}

// event logs one driver-side decision about a loop (a plan-cache
// outcome, a backend, a ship, a fetch) at the current clock.
func (s *Session) event(kind obs.FlightKind, loop, detail string) {
	obs.Flight().Record(obs.FlightEvent{
		Kind: kind, Clock: s.master.Clock(),
		Loop: loop, Pass: -1, Step: -1, Worker: -1,
		Detail: detail,
	})
}

// compile runs the full static pipeline over loop source and
// materializes the plan artifact: strategy, histogram-balanced
// partitions cut from the session's current data, the synthesized
// prefetch spec, and the loop backend.
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

	// The artifact is the one orion-plan builds for the program, its
	// partitions cut from the session's current data; it records their
	// digest so execution can detect drift and re-balance
	// (plan.repartition).
	art, aerr := res.BuildArtifact(s.n)
	switch e.plan.Kind {
	case sched.Independent, sched.OneD, sched.TwoD:
		if aerr == nil {
			space := s.iterSpaceOf(e)
			art, aerr = art.Recut(space.spaceW, space.timeW, s.n, e.plan.TimeParts(s.n), space.digest)
		}
	}
	if aerr != nil {
		return nil, fmt.Errorf("driver: materializing plan artifact: %w", aerr)
	}
	art.Backend = s.kernelBackend(e.loop)
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
