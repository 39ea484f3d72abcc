// Package plan makes Orion's compiled parallelization decision a
// first-class, serializable artifact. The static pipeline (Fig. 6:
// loop information record → dependence vectors → §3.2 strategy
// selection → §4.3/§4.4 partitioning) runs once and its complete
// output — the chosen strategy, the space/time dimensions, the
// unimodular transform, the *materialized* histogram-balanced
// iteration/array partitions, and the synthesized prefetch spec — is
// captured in an Artifact with a canonical content hash.
//
// Every downstream layer consumes the artifact instead of re-deriving
// state: the driver caches artifacts per session (and, content
// addressed, on disk), the engine executes from materialized
// partitions, runtime.DefineLoop ships the artifact to executors in
// the wire message, orion-vet vets serialized artifacts for staleness
// (ORN108), and cmd/orion-plan compiles, inspects, and diffs them.
//
// Artifacts encode to canonical JSON (EncodeJSON) and to a compact
// varint binary format (EncodeBinary); both round-trip byte-identical
// through decode → re-encode. Decoders validate structure and reject
// schema-version skew with ErrVersionSkew.
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"orion/internal/dep"
	"orion/internal/ir"
	"orion/internal/obs"
	"orion/internal/sched"
	"orion/internal/unimodular"
)

// Version is the artifact schema version. Decoders reject any other
// value with ErrVersionSkew; bump it whenever the serialized shape
// changes incompatibly.
const Version = 3

// ErrVersionSkew marks an artifact whose schema version does not match
// this build's Version.
var ErrVersionSkew = errors.New("plan: artifact schema version skew")

// Strategy slugs: the stable serialized names of sched.Kind values.
const (
	StrategyIndependent = "independent"
	Strategy1D          = "1d"
	Strategy2D          = "2d"
	Strategy2DTransform = "2d-transformed"
	StrategySerial      = "serial"
)

// strategyOf maps a sched.Kind to its stable slug.
func strategyOf(k sched.Kind) string {
	switch k {
	case sched.Independent:
		return StrategyIndependent
	case sched.OneD:
		return Strategy1D
	case sched.TwoD:
		return Strategy2D
	case sched.TwoDTransformed:
		return Strategy2DTransform
	default:
		return StrategySerial
	}
}

// kindOf maps a strategy slug back to the sched.Kind.
func kindOf(s string) (sched.Kind, error) {
	switch s {
	case StrategyIndependent:
		return sched.Independent, nil
	case Strategy1D:
		return sched.OneD, nil
	case Strategy2D:
		return sched.TwoD, nil
	case Strategy2DTransform:
		return sched.TwoDTransformed, nil
	case StrategySerial:
		return sched.NotParallelizable, nil
	default:
		return 0, fmt.Errorf("plan: unknown strategy %q", s)
	}
}

// Placement slugs for ArrayPlan.Place.
const (
	PlaceLocal     = "local"
	PlaceRotated   = "rotated"
	PlaceServed    = "served"
	PlaceWavefront = "wavefront"
)

func placeOf(p sched.Placement) string {
	switch p {
	case sched.Local:
		return PlaceLocal
	case sched.Rotated:
		return PlaceRotated
	case sched.Wavefront:
		return PlaceWavefront
	default:
		return PlaceServed
	}
}

func placementOf(s string) (sched.Placement, error) {
	switch s {
	case PlaceLocal:
		return sched.Local, nil
	case PlaceRotated:
		return sched.Rotated, nil
	case PlaceServed:
		return sched.Served, nil
	case PlaceWavefront:
		return sched.Wavefront, nil
	default:
		return 0, fmt.Errorf("plan: unknown placement %q", s)
	}
}

// Partition is a materialized range partitioning of [0, Extent) into
// Parts contiguous ranges: Cuts[k] is the first coordinate of range
// k+1 (len(Cuts) == Parts-1, non-decreasing). A zero Partition
// (Parts == 0) means "absent" — e.g. the time partition of a 1D plan.
type Partition struct {
	Extent int64   `json:"extent"`
	Parts  int     `json:"parts"`
	Cuts   []int64 `json:"cuts,omitempty"`
}

// IsZero reports whether the partition is absent.
func (p Partition) IsZero() bool { return p.Parts == 0 }

// Partitioner converts the materialized ranges back into an executable
// sched.Partitioner.
func (p Partition) Partitioner() (*sched.Partitioner, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("plan: partition is absent")
	}
	return sched.FromBoundaries(p.Extent, p.Cuts)
}

// Bounds returns the half-open coordinate range [lo, hi) of part k.
func (p Partition) Bounds(k int) (lo, hi int64) {
	lo = 0
	if k > 0 {
		lo = p.Cuts[k-1]
	}
	hi = p.Extent
	if k < p.Parts-1 {
		hi = p.Cuts[k]
	}
	return lo, hi
}

// MergeTo coalesces the materialized partition down to m parts by
// grouping adjacent parts — group k absorbs parts [k*n/m, (k+1)*n/m).
// Recovery uses this to re-partition a lost worker's blocks onto the
// survivors while preserving the histogram-balanced cut positions the
// artifact materialized. m >= Parts (or a zero partition) returns p
// unchanged.
func (p Partition) MergeTo(m int) Partition {
	n := p.Parts
	if p.IsZero() || m <= 0 || m >= n {
		return p
	}
	cuts := make([]int64, 0, m-1)
	for k := 1; k < m; k++ {
		// First part of group k; its lower bound is the group boundary.
		lo, _ := p.Bounds(k * n / m)
		cuts = append(cuts, lo)
	}
	return Partition{Extent: p.Extent, Parts: m, Cuts: cuts}
}

func (p Partition) validate(what string) error {
	if p.IsZero() {
		if p.Extent != 0 || len(p.Cuts) != 0 {
			return fmt.Errorf("plan: %s partition has data but zero parts", what)
		}
		return nil
	}
	if p.Parts < 0 || len(p.Cuts) != p.Parts-1 {
		return fmt.Errorf("plan: %s partition has %d cuts for %d parts", what, len(p.Cuts), p.Parts)
	}
	prev := int64(0)
	for _, c := range p.Cuts {
		if c < prev || c > p.Extent {
			return fmt.Errorf("plan: %s partition cut %d outside [%d, %d]", what, c, prev, p.Extent)
		}
		prev = c
	}
	return nil
}

// fromPartitioner snapshots a sched.Partitioner into its serialized form.
func fromPartitioner(p *sched.Partitioner) Partition {
	return Partition{Extent: p.Extent(), Parts: p.Parts(), Cuts: p.Boundaries()}
}

// ArrayPlan is one referenced DistArray's distribution decision
// (§4.4). Local arrays share the space partition's cuts along PartDim;
// rotated and wavefront arrays share the time partition's.
type ArrayPlan struct {
	Array   string `json:"array"`
	Place   string `json:"place"`
	PartDim int    `json:"part_dim,omitempty"`
}

// Prefetch is the synthesized bulk-prefetch spec for served reads
// (§4.4): the sliced loop source that records accessed indices, and
// the served arrays it covers.
type Prefetch struct {
	Src    string   `json:"src"`
	Arrays []string `json:"arrays"`
}

// Artifact is the complete, self-contained output of the static
// pipeline for one loop — the durable interchange format every layer
// consumes.
type Artifact struct {
	// Version is the schema version (== plan.Version when produced by
	// this build).
	Version int `json:"version"`
	// ContentHash is the canonical fingerprint of the planning inputs:
	// (LoopSpec, dependence set, sched options). See Fingerprint.
	ContentHash string `json:"content_hash"`
	// Loop is the loop information record (Fig. 6) the plan was
	// computed from.
	Loop ir.LoopSpec `json:"loop"`
	// Deps are the loop's dependence vectors (Algorithm 2 output).
	Deps []dep.Vector `json:"deps,omitempty"`
	// Strategy is the chosen parallelization strategy slug (§3.2).
	Strategy string `json:"strategy"`
	// SpaceDim / TimeDim are the partitioned iteration-space
	// dimensions (TimeDim == -1 for 1D strategies).
	SpaceDim int `json:"space_dim"`
	TimeDim  int `json:"time_dim"`
	// Transform is the unimodular transformation for 2d-transformed
	// plans (row-major), nil otherwise.
	Transform [][]int64 `json:"transform,omitempty"`
	// Workers and TimeParts record the partition counts the artifact
	// was materialized for.
	Workers   int `json:"workers"`
	TimeParts int `json:"time_parts,omitempty"`
	// Space / Time are the materialized histogram-balanced iteration
	// partitions (§4.3); Time is absent for 1D plans. Local and
	// rotated arrays reuse these cuts along their PartDim.
	Space Partition `json:"space"`
	Time  Partition `json:"time"`
	// Arrays classifies every referenced DistArray (§4.4).
	Arrays []ArrayPlan `json:"arrays,omitempty"`
	// Prefetch is the synthesized bulk-prefetch spec, if any.
	Prefetch *Prefetch `json:"prefetch,omitempty"`
	// Guard, when non-nil, is the synthesized runtime predicate the
	// strategy is conditional on: the driver evaluates it once at
	// dispatch against the inherited globals and demotes the loop to a
	// serial pass when it fails (ORN204). Deps always records the
	// unguarded (conservative) vector set.
	Guard *dep.Guard `json:"guard,omitempty"`
	// LoopSrc is the canonical DSL source of the loop body, carried so
	// executors (and cache hits) need no side channel for the code.
	LoopSrc string `json:"loop_src,omitempty"`
	// WeightsDigest fingerprints the per-coordinate iteration weights
	// the partitions were balanced on; consumers revalidate against
	// current data and re-balance on drift.
	WeightsDigest string `json:"weights_digest,omitempty"`
	// Backend records which loop-execution backend the driver predicted
	// for this loop ("vm" or "interp") — the same verdict
	// every worker's dslkernel.Compile reaches deterministically.
	Backend string `json:"backend,omitempty"`
}

// Kind returns the artifact's strategy as a sched.Kind.
func (a *Artifact) Kind() (sched.Kind, error) { return kindOf(a.Strategy) }

// DepSet rebuilds the dependence-vector set.
func (a *Artifact) DepSet() *dep.Set {
	s := dep.NewSet()
	s.AddAll(a.Deps)
	return s
}

// SchedPlan reconstructs the in-memory *sched.Plan the artifact was
// built from, for consumers that still speak the pointer-rich form.
func (a *Artifact) SchedPlan() (*sched.Plan, error) {
	k, err := a.Kind()
	if err != nil {
		return nil, err
	}
	p := &sched.Plan{
		Loop:     &a.Loop,
		Deps:     a.DepSet(),
		Kind:     k,
		SpaceDim: a.SpaceDim,
		TimeDim:  a.TimeDim,
	}
	if len(a.Transform) > 0 {
		p.Transform = unimodular.Matrix(a.Transform)
	}
	for _, ap := range a.Arrays {
		place, err := placementOf(ap.Place)
		if err != nil {
			return nil, err
		}
		p.Arrays = append(p.Arrays, sched.ArrayPlan{Array: ap.Array, Place: place, PartDim: ap.PartDim})
	}
	return p, nil
}

// Validate checks the artifact's structural invariants; every decoder
// runs it so malformed input is rejected before any consumer trusts
// the contents.
func (a *Artifact) Validate() error {
	if a.Version != Version {
		return fmt.Errorf("%w: artifact has version %d, this build expects %d", ErrVersionSkew, a.Version, Version)
	}
	if a.ContentHash == "" {
		return fmt.Errorf("plan: artifact has no content hash")
	}
	if err := a.Loop.Validate(); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	k, err := a.Kind()
	if err != nil {
		return err
	}
	n := a.Loop.NumDims()
	nt := n
	if len(a.Transform) > 0 {
		nt = len(a.Transform) // transformed dims index the transformed space
	}
	switch k {
	case sched.NotParallelizable:
	case sched.Independent, sched.OneD:
		if a.SpaceDim < 0 || a.SpaceDim >= n {
			return fmt.Errorf("plan: space dim %d outside the %d-dim iteration space", a.SpaceDim, n)
		}
	default:
		if a.SpaceDim < 0 || a.SpaceDim >= nt || a.TimeDim < 0 || a.TimeDim >= nt {
			return fmt.Errorf("plan: dims (%d, %d) outside the %d-dim iteration space", a.SpaceDim, a.TimeDim, nt)
		}
	}
	for _, row := range a.Transform {
		if len(row) != len(a.Transform) {
			return fmt.Errorf("plan: transform is not square")
		}
	}
	if a.Workers < 0 || a.TimeParts < 0 {
		return fmt.Errorf("plan: negative worker/time-part counts")
	}
	if err := a.Space.validate("space"); err != nil {
		return err
	}
	if err := a.Time.validate("time"); err != nil {
		return err
	}
	for _, v := range a.Deps {
		if len(v) != n {
			return fmt.Errorf("plan: dependence vector %s has %d components for a %d-dim loop", v, len(v), n)
		}
	}
	names := map[string]bool{}
	for _, ap := range a.Arrays {
		if ap.Array == "" {
			return fmt.Errorf("plan: array plan with empty name")
		}
		if names[ap.Array] {
			return fmt.Errorf("plan: duplicate array plan for %q", ap.Array)
		}
		names[ap.Array] = true
		if _, err := placementOf(ap.Place); err != nil {
			return err
		}
	}
	if a.Prefetch != nil && (a.Prefetch.Src == "" || len(a.Prefetch.Arrays) == 0) {
		return fmt.Errorf("plan: prefetch spec missing source or arrays")
	}
	if a.Guard != nil {
		if len(a.Guard.Atoms) == 0 {
			return fmt.Errorf("plan: guard with no atoms")
		}
		for _, g := range a.Guard.Atoms {
			if g.Var == "" {
				return fmt.Errorf("plan: guard atom with empty variable")
			}
		}
	}
	return nil
}

// Fingerprint computes the canonical content hash of the planning
// inputs: the loop information record, the dependence-vector set, and
// the planning options. Everything downstream is a deterministic
// function of these, so two programs with equal fingerprints compile
// to interchangeable artifacts — and a fingerprint mismatch between a
// cached artifact and the current program is the ORN108 staleness
// signal. Zero search bounds are normalized exactly as
// sched.NewFromDeps normalizes them.
func Fingerprint(spec *ir.LoopSpec, deps *dep.Set, opts sched.Options) string {
	h := sha256.New()
	io.WriteString(h, "orion/plan/v1\n")
	io.WriteString(h, spec.String())
	if deps != nil {
		io.WriteString(h, deps.String())
	}
	maxSkew, depth := opts.MaxSkew, opts.SearchDepth
	if maxSkew == 0 {
		maxSkew = 3
	}
	if depth == 0 {
		depth = 3
	}
	fmt.Fprintf(h, "\nmaxskew=%d searchdepth=%d", maxSkew, depth)
	if opts.ForceDims != nil {
		fmt.Fprintf(h, " force=%d,%d", opts.ForceDims.Space, opts.ForceDims.Time)
	}
	names := make([]string, 0, len(opts.ArrayBytes))
	for n := range opts.ArrayBytes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "\nbytes %s=%d", n, opts.ArrayBytes[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Key hashes canonical string parts into a cache key; callers compose
// it from whatever identifies their planning inputs (program source,
// environment, worker count, ...).
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WeightsDigest fingerprints per-coordinate iteration-weight
// histograms, for cheap artifact revalidation against current data. The
// varints reach the hash through one buffer, not one Write each.
func WeightsDigest(weights ...[]int64) string {
	var buf []byte
	for _, ws := range weights {
		buf = fmt.Appendf(buf, "[%d]", len(ws))
		for _, w := range ws {
			buf = binary.AppendUvarint(buf, uint64(w))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])[:16]
}

// BalancedPartitioner materializes a histogram-balanced partitioning
// (§4.3, "Dealing with Skewed Data Distribution"). It is the single
// call site of sched.NewHistogramPartitioner outside tests: the
// driver, the engine, and the benchmarks all route partition
// materialization through here so the balancing decision lives in the
// plan layer.
func BalancedPartitioner(weights []int64, parts int) *sched.Partitioner {
	return sched.NewHistogramPartitioner(weights, parts)
}

// Partitioners returns the executable partitioners for a run over
// workers space parts and timeParts time parts (timeW nil: a 1D run, no
// time partitioner); digest is WeightsDigest(spaceW, timeW), which a
// caller running many times over unchanged weights computes once. The
// cuts materialized at plan time are reused — coalesced with MergeTo
// onto a fleet smaller than the one they were cut for — while the data
// still digests to the weights they were balanced on. On drift (arrays
// mutate between runs), for a fleet the cuts cannot cover, or with no
// artifact at all (a nil receiver) the weights are balanced afresh,
// without re-running analysis or planning, and reused is false.
func (a *Artifact) Partitioners(spaceW, timeW []int64, digest string, workers, timeParts int) (space, tm *sched.Partitioner, reused bool) {
	if a != nil && a.Space.Parts >= workers && (timeW == nil || a.Time.Parts >= timeParts) &&
		a.WeightsDigest == digest {
		var err error
		if space, err = a.Space.MergeTo(workers).Partitioner(); err == nil && timeW != nil {
			tm, err = a.Time.MergeTo(timeParts).Partitioner()
		}
		if err == nil {
			return space, tm, true
		}
	}
	space, tm = BalancedPartitioner(spaceW, workers), nil
	if timeW != nil {
		tm = BalancedPartitioner(timeW, timeParts)
	}
	return space, tm, false
}

// Balanced materializes a histogram-balanced Partition.
func Balanced(weights []int64, parts int) Partition {
	return fromPartitioner(BalancedPartitioner(weights, parts))
}

// Uniform materializes an equal-width Partition (no weights known).
func Uniform(extent int64, parts int) Partition {
	return fromPartitioner(sched.NewRangePartitioner(extent, parts))
}

// Inputs bundles what Build materializes an artifact from. Spec and
// Plan are required; Deps may be nil (empty set). SpaceWeights /
// TimeWeights are the per-coordinate iteration counts along the plan's
// space/time dimensions — nil falls back to equal-width ranges (no
// data available, e.g. static vetting). TimeParts defaults to Workers.
// WeightsDigest, when set, is WeightsDigest(SpaceWeights, TimeWeights)
// as the caller already computed it.
type Inputs struct {
	Spec          *ir.LoopSpec
	Deps          *dep.Set
	Plan          *sched.Plan
	Opts          sched.Options
	Workers       int
	TimeParts     int
	SpaceWeights  []int64
	TimeWeights   []int64
	WeightsDigest string
	LoopSrc       string
	Prefetch      *Prefetch
	// Guard is the synthesized runtime predicate the plan's strategy is
	// conditional on (nil for unconditional plans).
	Guard *dep.Guard
}

// Build materializes the artifact: it snapshots the plan, computes the
// content hash, and — for executable strategies — cuts the space/time
// partitions once, here, instead of at every consumer.
func Build(in Inputs) (*Artifact, error) {
	if in.Spec == nil || in.Plan == nil {
		return nil, fmt.Errorf("plan: Build needs a spec and a plan")
	}
	if in.Workers <= 0 {
		return nil, fmt.Errorf("plan: Build needs a positive worker count")
	}
	obs.GetCounter("plan.builds").Inc()
	p := in.Plan
	a := &Artifact{
		Version:     Version,
		ContentHash: Fingerprint(in.Spec, in.Deps, in.Opts),
		Loop:        *in.Spec,
		Strategy:    strategyOf(p.Kind),
		SpaceDim:    p.SpaceDim,
		TimeDim:     p.TimeDim,
		Workers:     in.Workers,
		LoopSrc:     in.LoopSrc,
		Prefetch:    in.Prefetch,
		Guard:       in.Guard,
	}
	if in.Deps != nil {
		a.Deps = in.Deps.Vectors()
	}
	if p.Transform != nil {
		a.Transform = [][]int64(p.Transform.Clone())
	}
	for _, ap := range p.Arrays {
		a.Arrays = append(a.Arrays, ArrayPlan{Array: ap.Array, Place: placeOf(ap.Place), PartDim: ap.PartDim})
	}

	// Materialize the iteration partitions. Transformed plans partition
	// the *transformed* space, whose extents are data-dependent; they
	// are materialized only when the caller supplies transformed-space
	// weights. Serial plans have nothing to partition.
	switch p.Kind {
	case sched.Independent, sched.OneD:
		a.Space = materialize(in.SpaceWeights, in.Spec.Dims[p.SpaceDim], in.Workers)
	case sched.TwoD:
		a.TimeParts = in.TimeParts
		if a.TimeParts <= 0 {
			a.TimeParts = in.Workers
		}
		a.Space = materialize(in.SpaceWeights, in.Spec.Dims[p.SpaceDim], in.Workers)
		a.Time = materialize(in.TimeWeights, in.Spec.Dims[p.TimeDim], a.TimeParts)
	case sched.TwoDTransformed:
		if in.SpaceWeights != nil {
			a.Space = Balanced(in.SpaceWeights, in.Workers)
		}
	}
	if a.WeightsDigest = in.WeightsDigest; a.WeightsDigest == "" && (in.SpaceWeights != nil || in.TimeWeights != nil) {
		a.WeightsDigest = WeightsDigest(in.SpaceWeights, in.TimeWeights)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func materialize(weights []int64, extent int64, parts int) Partition {
	if weights == nil {
		return Uniform(extent, parts)
	}
	return Balanced(weights, parts)
}

// Recut re-materializes the artifact's space/time partitions from new
// per-coordinate weights onto a (possibly different) fleet size,
// leaving every planning decision — strategy, dimensions, placements,
// guard, content hash — untouched. This is the feedback half of
// measurement-driven re-planning: the driver re-weights the original
// iteration counts by a measured WeightProfile and recuts mid-run, so
// the artifact's cuts track observed load without re-running analysis.
// digest becomes the artifact's WeightsDigest; pass the digest of the
// *raw* iteration counts so consumers that revalidate cuts against
// current data (the driver's partitioner reuse check) adopt the new
// cuts.
func (a *Artifact) Recut(spaceW, timeW []int64, workers, timeParts int, digest string) (*Artifact, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("plan: recut needs a positive worker count")
	}
	k, err := a.Kind()
	if err != nil {
		return nil, err
	}
	out := *a
	out.Workers = workers
	switch k {
	case sched.Independent, sched.OneD:
		out.Space = materialize(spaceW, a.Space.Extent, workers)
	case sched.TwoD:
		out.TimeParts = timeParts
		if out.TimeParts <= 0 {
			out.TimeParts = workers
		}
		out.Space = materialize(spaceW, a.Space.Extent, workers)
		out.Time = materialize(timeW, a.Time.Extent, out.TimeParts)
	default:
		return nil, fmt.Errorf("plan: cannot recut a %s artifact", a.Strategy)
	}
	out.WeightsDigest = digest
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// Describe renders the artifact for human inspection (orion-plan show):
// the Fig. 6 trail plus the materialized partition cuts.
func (a *Artifact) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan artifact v%d  %s\n", a.Version, shortHash(a.ContentHash))
	b.WriteString(a.Loop.String())
	if len(a.Deps) > 0 {
		fmt.Fprintf(&b, "Dependence vectors: %s\n", a.DepSet())
	}
	fmt.Fprintf(&b, "Strategy: %s\n", a.Strategy)
	switch a.Strategy {
	case StrategySerial:
	case Strategy2DTransform:
		fmt.Fprintf(&b, "Unimodular transform: %v\n", unimodular.Matrix(a.Transform))
		fmt.Fprintf(&b, "Partition transformed dims %d (time), %d (space)\n", a.TimeDim, a.SpaceDim)
	case Strategy2D:
		fmt.Fprintf(&b, "Partition iteration space by dims %d (space) and %d (time)\n", a.SpaceDim, a.TimeDim)
	default:
		fmt.Fprintf(&b, "Partition iteration space by dim %d\n", a.SpaceDim)
	}
	if !a.Space.IsZero() {
		fmt.Fprintf(&b, "Space partition: %s\n", partitionString(a.Space))
	}
	if !a.Time.IsZero() {
		fmt.Fprintf(&b, "Time partition:  %s\n", partitionString(a.Time))
	}
	for _, ap := range a.Arrays {
		fmt.Fprintf(&b, "  array %s: %s", ap.Array, ap.Place)
		if ap.Place != PlaceServed {
			fmt.Fprintf(&b, " (partitioned by array dim %d)", ap.PartDim)
		}
		fmt.Fprintln(&b)
	}
	if a.Prefetch != nil {
		fmt.Fprintf(&b, "Synthesized prefetch for: %s\n", strings.Join(a.Prefetch.Arrays, ", "))
	}
	if a.Guard != nil {
		fmt.Fprintf(&b, "Runtime guard: %s (on failure: serial fallback)\n", a.Guard)
	}
	return b.String()
}

func partitionString(p Partition) string {
	parts := make([]string, 0, p.Parts)
	for k := 0; k < p.Parts; k++ {
		lo, hi := p.Bounds(k)
		parts = append(parts, fmt.Sprintf("[%d,%d)", lo, hi))
	}
	return fmt.Sprintf("%d parts over [0,%d): %s", p.Parts, p.Extent, strings.Join(parts, " "))
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Diff reports the meaningful deltas between two artifacts — strategy,
// dimensions, partition cuts, array placements, transform, prefetch —
// one human-readable line each ("-" = only in a, "+" = only in b,
// "~" = changed). An empty result means the plans are interchangeable.
func Diff(a, b *Artifact) []string {
	var out []string
	d := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if a.Strategy != b.Strategy {
		d("~ strategy: %s -> %s", a.Strategy, b.Strategy)
	}
	if a.ContentHash != b.ContentHash {
		d("~ content hash: %s -> %s", shortHash(a.ContentHash), shortHash(b.ContentHash))
	}
	if a.SpaceDim != b.SpaceDim || a.TimeDim != b.TimeDim {
		d("~ partition dims: space %d time %d -> space %d time %d", a.SpaceDim, a.TimeDim, b.SpaceDim, b.TimeDim)
	}
	if a.Workers != b.Workers || a.TimeParts != b.TimeParts {
		d("~ parts: %d workers x %d time -> %d workers x %d time", a.Workers, a.TimeParts, b.Workers, b.TimeParts)
	}
	at, bt := unimodular.Matrix(a.Transform), unimodular.Matrix(b.Transform)
	if at.String() != bt.String() {
		d("~ transform: %v -> %v", at, bt)
	}
	if da, db := a.DepSet().String(), b.DepSet().String(); da != db {
		d("~ dependence vectors: %s -> %s", da, db)
	}
	if sa, sb := partitionDelta(a.Space, b.Space); sa != sb {
		d("~ space partition: %s -> %s", sa, sb)
	}
	if ta, tb := partitionDelta(a.Time, b.Time); ta != tb {
		d("~ time partition: %s -> %s", ta, tb)
	}
	ams, bms := arrayPlaces(a), arrayPlaces(b)
	names := map[string]bool{}
	for n := range ams {
		names[n] = true
	}
	for n := range bms {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		av, aok := ams[n]
		bv, bok := bms[n]
		switch {
		case !aok:
			d("+ array %s: %s", n, bv)
		case !bok:
			d("- array %s: %s", n, av)
		case av != bv:
			d("~ array %s: %s -> %s", n, av, bv)
		}
	}
	ap, bp := prefetchString(a.Prefetch), prefetchString(b.Prefetch)
	if ap != bp {
		d("~ prefetch: %s -> %s", ap, bp)
	}
	if ag, bg := guardString(a.Guard), guardString(b.Guard); ag != bg {
		d("~ guard: %s -> %s", ag, bg)
	}
	return out
}

func guardString(g *dep.Guard) string {
	if g == nil {
		return "none"
	}
	return g.String()
}

func partitionDelta(a, b Partition) (string, string) {
	return partitionShort(a), partitionShort(b)
}

func partitionShort(p Partition) string {
	if p.IsZero() {
		return "none"
	}
	return fmt.Sprintf("%d parts over [0,%d) cuts %v", p.Parts, p.Extent, p.Cuts)
}

func arrayPlaces(a *Artifact) map[string]string {
	out := map[string]string{}
	for _, ap := range a.Arrays {
		v := ap.Place
		if ap.Place != PlaceServed {
			v = fmt.Sprintf("%s dim %d", ap.Place, ap.PartDim)
		}
		out[ap.Array] = v
	}
	return out
}

func prefetchString(p *Prefetch) string {
	if p == nil {
		return "none"
	}
	return strings.Join(p.Arrays, ",")
}
