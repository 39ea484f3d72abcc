package check

import (
	"errors"
	"fmt"

	"orion/internal/diag"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/plan"
	"orion/internal/sched"
)

// BuildArtifact materializes, for the given worker count, the plan the
// loop executes under — an ordered program's places down the wavefront
// what the static plan rotates, over finer time cuts
// (sched.Plan.ForOrdered, TimeParts) — as a serializable artifact.
// Static vetting has no data to balance on, so the iteration partitions
// are equal-width; the driver re-cuts them from real histograms
// (plan.Artifact.Recut). The artifact carries the canonical loop source
// and a synthesized prefetch spec when the loop reads served arrays.
func (r *Result) BuildArtifact(workers int) (*plan.Artifact, error) {
	if r.Spec == nil || r.Plan == nil {
		return nil, fmt.Errorf("check: the run produced no plan (fix the reported errors first)")
	}
	pl := r.execPlan()
	in := plan.Inputs{
		Spec:      r.Spec,
		Deps:      r.Deps(),
		Plan:      pl,
		Opts:      r.schedOpts,
		Workers:   workers,
		TimeParts: pl.TimeParts(workers),
		Guard:     r.Guard,
	}
	if r.Loop != nil {
		in.LoopSrc = r.Loop.String()
		if sliced, targets, _ := r.Prefetch(); sliced != nil {
			in.Prefetch = &plan.Prefetch{Src: sliced.String(), Arrays: targets}
		}
	}
	return plan.Build(in)
}

// execPlan is the plan the loop executes under: an ordered program runs
// the static plan down the wavefront.
func (r *Result) execPlan() *sched.Plan {
	if r.env != nil && r.env.Ordered {
		return r.Plan.ForOrdered()
	}
	return r.Plan
}

// Prefetch is the bulk-prefetch function (§4.4) the loop ships with:
// the slice of its body that computes the subscripts of the served
// arrays it reads (targets), and the reads the slice left on demand
// because their subscripts depend on data. sliced is nil when the run
// produced no plan, the loop reads no served array, or nothing can be
// fetched ahead.
func (r *Result) Prefetch() (sliced *lang.Loop, targets, onDemand []string) {
	if r.Spec == nil || r.Plan == nil || r.Loop == nil || r.env == nil {
		return nil, nil, nil
	}
	targets = servedReads(r.Spec, r.execPlan())
	if len(targets) == 0 {
		return nil, nil, nil
	}
	sliced, onDemand, err := lang.PrefetchSlice(r.Loop, r.env, targets...)
	if err != nil || len(sliced.Body) == 0 {
		return nil, nil, onDemand
	}
	return sliced, targets, onDemand
}

// servedReads lists the served arrays the loop reads: the prefetch
// targets.
func servedReads(spec *ir.LoopSpec, pl *sched.Plan) []string {
	served := map[string]bool{}
	for _, ap := range pl.Arrays {
		if ap.Place == sched.Served {
			served[ap.Array] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, ref := range spec.Refs {
		if ref.IsWrite || ref.Array == spec.IterSpaceArray || seen[ref.Array] || !served[ref.Array] {
			continue
		}
		seen[ref.Array] = true
		out = append(out, ref.Array)
	}
	return out
}

// CheckArtifact vets a serialized plan artifact against the current
// program: it runs the full diagnostics engine over src, then verifies
// the artifact still describes that program — decodable, current schema
// version, and a content hash matching the program's recomputed
// planning fingerprint. Any mismatch is reported as an ORN108 error
// (stale cache detection), positioned at the artifact (decode/version
// problems) or at the loop (hash drift).
func CheckArtifact(blob []byte, artifactName, src string, opts Options) *Result {
	r := Source(src, opts)

	artPos := diag.Pos{File: artifactName}
	const note = "the artifact no longer matches this program; regenerate it (orion-plan compile) or drop the cache entry"
	art, err := plan.Decode(blob)
	if err != nil {
		code := "decode"
		if errors.Is(err, plan.ErrVersionSkew) {
			code = "schema version"
		}
		r.Diags.Add(diag.Errorf(diag.CodeStalePlan, artPos, note,
			"plan artifact %s failed on %s: %v", artifactName, code, err))
		r.Diags.Sort()
		return r
	}
	if r.Spec == nil || r.Plan == nil {
		// The program itself does not vet; its own errors explain why
		// no fingerprint can be compared.
		return r
	}
	fp := plan.Fingerprint(r.Spec, r.Deps(), r.schedOpts)
	if fp != art.ContentHash {
		pos := artPos
		if r.Loop != nil {
			pos = r.pos(r.Loop.At, opts)
		}
		r.Diags.Add(diag.Errorf(diag.CodeStalePlan, pos, note,
			"plan artifact %s is stale: its content hash %.12s does not match this program's planning fingerprint %.12s (the loop, its dependence vectors, or the planning options changed since the artifact was compiled)",
			artifactName, art.ContentHash, fp))
		r.Diags.Sort()
	}
	return r
}
