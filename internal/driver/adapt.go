// Adaptive re-planning: the feedback half of measurement-driven
// parallelization (ROADMAP item 3). While armed (SetAdapt), every
// ParallelFor runs one pass per segment; at each quiesced boundary the
// segment's LoopReport delta is analyzed (the ORN401 skew logic), and
// when max/median compute exceeds the threshold the measured
// WeightProfile re-weights the original per-coordinate iteration
// counts and re-cuts the plan artifact's partitions — guard and
// content hash intact — so the next segment hands measured stragglers
// proportionally smaller ranges. Elastic grow (Grow) arms the same
// boundary machinery to re-form the fleet at a larger size.
package driver

import (
	"fmt"
	"time"

	"orion/internal/obs"
	"orion/internal/obs/analyze"
)

// AdaptDecision records one adaptive re-planning evaluation at a loop
// boundary: the segment's measured skew and whether it forced a recut.
type AdaptDecision struct {
	Loop      string  `json:"loop"`
	Pass      int     `json:"pass"`       // first pass of the next segment
	SkewIndex float64 `json:"skew_index"` // max/median compute of the finished segment
	Recut     bool    `json:"recut"`
}

// SetAdapt arms adaptive re-planning: loops run one pass per segment
// and re-cut their partitions from measured per-worker cost whenever a
// segment's compute skew (max/median, the ORN401 index) reaches
// threshold. threshold <= 0 restores the analyzer default (1.5).
// Re-cutting preserves results bitwise only when every iteration's
// cost model is exact; like any re-partitioning it changes which
// worker executes which block, so floating-point reduction order can
// change across a recut exactly as it does across a plan change.
func (s *Session) SetAdapt(threshold float64) {
	s.adaptEnabled = true
	s.adaptSkew = threshold
}

// SetAdaptProfile overrides the measured WeightProfile the adaptive
// trigger re-cuts from: fn receives the kernel name and the segment's
// report delta and returns the profile to apply (nil skips the recut).
// Tests inject deterministic profiles through this; nil restores the
// default (analyze.Weights on the segment delta).
func (s *Session) SetAdaptProfile(fn func(kernel string, delta *obs.LoopReport) *analyze.WeightProfile) {
	s.adaptProfile = fn
}

// AdaptTrail returns the adaptive decisions taken so far, one per
// evaluated loop boundary, in execution order.
func (s *Session) AdaptTrail() []AdaptDecision {
	return append([]AdaptDecision(nil), s.adaptTrail...)
}

// Grow arms an elastic fleet grow: at the next interior loop boundary
// the session quiesces, folds accumulator state down to the driver,
// re-forms the fleet at m workers — local sessions spawn the larger
// complement; TCP sessions re-listen and admit both rejoining
// survivors and brand-new workers (orion-worker -rejoin dials the same
// master address) — and resumes with partitions re-cut onto the
// enlarged fleet. m below the current size is rejected (that's a
// planned shrink — see Shrink); m equal to the current size is a
// rolling re-form, exercising the full admission path.
func (s *Session) Grow(m int) error {
	if m < s.n {
		return fmt.Errorf("driver: Grow(%d) below the current fleet size %d (use Shrink for a planned shrink)", m, s.n)
	}
	if s.shrinkTarget > 0 {
		return fmt.Errorf("driver: Grow(%d): a shrink to %d workers is already armed", m, s.shrinkTarget)
	}
	s.growTarget = m
	return nil
}

// Shrink arms a planned fleet shrink, the fourth reconfiguration
// trigger beside recovery, adaptation, and grow: at the next
// ParallelFor's entry the session folds accumulator contributions down
// to the driver, re-forms the fleet at m workers (local sessions spawn
// the smaller complement; TCP fleets re-listen and admit m rejoining
// survivors), and re-cuts the plan artifact onto the survivors from
// the raw iteration weights — exactly the cuts a fresh m-worker
// compile materializes, so the shrunken run's placement (and result,
// bitwise) matches a static m-worker run. Unlike the recovery path's
// shrink-to-survivors, nothing is lost and no checkpoint is needed.
func (s *Session) Shrink(m int) error {
	if m <= 0 {
		return fmt.Errorf("driver: Shrink(%d): fleet size must be positive", m)
	}
	if m >= s.n {
		return fmt.Errorf("driver: Shrink(%d) is not below the current fleet size %d (use Grow to enlarge or re-form)", m, s.n)
	}
	if s.growTarget > 0 {
		return fmt.Errorf("driver: Shrink(%d): a grow to %d workers is already armed", m, s.growTarget)
	}
	s.shrinkTarget = m
	return nil
}

// recut is the adaptive trigger at one quiesced boundary: analyze
// the finished segment's report delta, and re-cut the artifact's
// partitions from the measured weight profile when skew reaches the
// threshold. The artifact keeps its content hash and guard — only the
// materialized cuts and the weights digest move — and the digest is
// set to the *raw* iteration-count digest so the next attempt's
// partitioner reuse check adopts the new cuts.
func (s *Session) recut(e *compiledLoop, kernel string, delta *obs.LoopReport, at resumePos) error {
	res := analyze.Loop(delta, nil, analyze.Options{SkewThreshold: s.adaptSkew})
	dec := AdaptDecision{Loop: kernel, Pass: at.pass, SkewIndex: res.SkewIndex}
	defer func() { s.adaptTrail = append(s.adaptTrail, dec) }()

	threshold := s.adaptSkew
	if threshold <= 0 {
		threshold = 1.5
	}
	if res.SkewIndex < threshold || len(delta.Workers) < 2 ||
		e.art.Space.IsZero() || s.lastSpacePart == nil {
		return nil
	}
	profile := analyze.Weights(delta)
	if s.adaptProfile != nil {
		profile = s.adaptProfile(kernel, delta)
	}
	if profile == nil {
		return nil
	}

	// Re-weight the raw per-coordinate iteration counts by the cost of
	// the worker that owned each coordinate in the profiled segment,
	// then re-materialize the artifact's cuts from the result. Time
	// weights stay raw: the ring and the wavefront hand every time
	// partition to every worker over a pass, so per-worker cost has no
	// time coordinate.
	recutStart := time.Now()
	space := s.iterSpaceOf(e)
	owner := s.lastSpacePart
	reweighted := profile.Reweight(space.spaceW, func(coord int) int { return owner.PartOf(int64(coord)) })
	art, err := e.art.Recut(reweighted, space.timeW, s.n, e.plan.TimeParts(s.n), space.digest)
	if err != nil {
		return fmt.Errorf("driver: adaptive recut of %q: %w", kernel, err)
	}
	e.art = art
	dec.Recut = true
	obs.GetCounter("plan.repartition").Inc()
	obs.GetHistogram("plan.recut_ns").Observe(time.Since(recutStart).Nanoseconds())
	obs.Flight().Record(obs.FlightEvent{
		Kind: "plan.recut", Clock: s.master.Clock(),
		Loop: kernel, Pass: at.pass, Step: at.step, Worker: res.Straggler,
		Detail: fmt.Sprintf("skew %.2fx at boundary; recut %d space cuts", res.SkewIndex, len(art.Space.Cuts)),
	})
	return nil
}
