// Package sched turns a loop's dependence-vector set into an executable
// parallelization plan: the strategy (1D, 2D, unordered 2D, or 2D after
// a unimodular transformation — Section 3.2), the iteration-space
// partitioning (including histogram-based skew balancing — Section 4.3),
// the accessed DistArrays' partitioning (Section 4.4), and the
// computation schedules of Fig. 7(d)(e)(f) with the pipelined rotation
// of Fig. 8.
package sched

import (
	"fmt"
	"slices"
	"strings"

	"orion/internal/dep"
	"orion/internal/ir"
	"orion/internal/unimodular"
)

// Kind is the parallelization strategy chosen for a loop.
type Kind int

const (
	// Independent: no loop-carried dependences at all; any partitioning
	// works (special case of 1D).
	Independent Kind = iota
	// OneD: a dimension exists on which every dependence vector is
	// zero; partition by it, no cross-worker synchronization within a
	// pass.
	OneD
	// TwoD: two dimensions exist such that every dependence vector is
	// zero on at least one of them; space × time partitioning with a
	// rotation (unordered) or wavefront (ordered) schedule.
	TwoD
	// TwoDTransformed: TwoD after applying a unimodular transformation
	// to the iteration space.
	TwoDTransformed
	// NotParallelizable: no dependence-preserving strategy applies;
	// the program must either run serially or opt into dependence
	// violation via DistArray Buffers.
	NotParallelizable
)

func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case OneD:
		return "1D"
	case TwoD:
		return "2D"
	case TwoDTransformed:
		return "2D w/ unimodular transformation"
	case NotParallelizable:
		return "not parallelizable (serial or buffered data parallelism)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Placement classifies how a referenced DistArray is distributed during
// loop execution (Section 4.4).
type Placement int

const (
	// Local: range-partitioned by the space dimension; all accesses are
	// worker-local.
	Local Placement = iota
	// Rotated: range-partitioned by the time dimension; partitions
	// rotate between workers between time steps (Fig. 8).
	Rotated
	// Served: no usable partitioning; served by parameter-server
	// processes with bulk prefetching.
	Served
	// Wavefront: Rotated under ordered execution (Fig. 7e); a partition
	// goes from the worker that ran it to the next (Schedule.Holder).
	Wavefront
)

func (p Placement) String() string {
	switch p {
	case Local:
		return "local"
	case Rotated:
		return "rotated"
	case Served:
		return "served"
	case Wavefront:
		return "wavefront"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ArrayPlan describes one referenced DistArray's distribution.
type ArrayPlan struct {
	Array string
	Place Placement
	// PartDim is the array dimension used for range partitioning
	// (valid for all but Served).
	PartDim int
}

// Plan is the complete parallelization decision for one loop.
type Plan struct {
	Loop     *ir.LoopSpec
	Deps     *dep.Set
	Kind     Kind
	SpaceDim int
	TimeDim  int // -1 for 1D plans
	// Transform is non-nil for TwoDTransformed: iteration coordinates
	// are mapped through it before partitioning.
	Transform unimodular.Matrix
	Arrays    []ArrayPlan
	// Ordered marks the plan an ordered loop executes under (ForOrdered).
	Ordered bool
}

// ForOrdered returns the plan ordered execution runs under: the
// wavefront (Fig. 7e) runs the time partitions of each space partition
// in order, one executor after the next, so a time-indexed array is
// placed Wavefront instead of Rotated. The result shares no Arrays
// storage with p.
func (p *Plan) ForOrdered() *Plan {
	out := *p
	out.Ordered = true
	out.Arrays = slices.Clone(p.Arrays)
	for i := range out.Arrays {
		if out.Arrays[i].Place == Rotated {
			out.Arrays[i].Place = Wavefront
		}
	}
	return &out
}

// orderedDepth is how many time partitions per executor an ordered loop
// cuts (Fig. 8): its wavefront spends n-1 of its M+n-1 steps filling and
// draining, so finer cuts shorten the ramp. EXPERIMENTS.md "Ordered
// wavefront" has the sweep that picked it.
const orderedDepth = 8

// TimeParts is how many partitions a 2D loop planned as p cuts its time
// dimension into on workers executors: one per executor for the
// unordered rotation ring (Fig. 7f), orderedDepth per executor for the
// ordered wavefront — but never more than the dimension has coordinates.
func (p *Plan) TimeParts(workers int) int {
	if !p.Ordered || p.TimeDim < 0 {
		return workers
	}
	return max(1, min(orderedDepth*workers, int(p.Loop.Dims[p.TimeDim])))
}

// Options tunes planning.
type Options struct {
	// ArrayBytes estimates each referenced DistArray's total size, used
	// by the communication-minimizing dimension heuristic. Missing
	// entries count as 0.
	ArrayBytes map[string]int64
	// MaxSkew and SearchDepth bound the unimodular search.
	MaxSkew     int64
	SearchDepth int
	// ForceDims, when non-nil, overrides the heuristic's choice
	// ("This heuristic can be overridden by the application program").
	ForceDims *struct{ Space, Time int }
}

// DefaultOptions returns reasonable planning defaults.
func DefaultOptions() Options {
	return Options{MaxSkew: 3, SearchDepth: 3}
}

// New analyzes the loop and produces a plan.
func New(loop *ir.LoopSpec, opts Options) (*Plan, error) {
	deps, err := dep.Analyze(loop)
	if err != nil {
		return nil, err
	}
	return NewFromDeps(loop, deps, opts)
}

// NewFromDeps plans with a precomputed dependence set.
func NewFromDeps(loop *ir.LoopSpec, deps *dep.Set, opts Options) (*Plan, error) {
	if opts.MaxSkew == 0 {
		opts.MaxSkew = 3
	}
	if opts.SearchDepth == 0 {
		opts.SearchDepth = 3
	}
	n := loop.NumDims()
	p := &Plan{Loop: loop, Deps: deps, TimeDim: -1}

	if deps.Empty() {
		p.Kind = Independent
		p.SpaceDim = bestSingleDim(loop, opts, candidateAll(n))
		p.Arrays = placeArrays(loop, p.SpaceDim, -1)
		return p, nil
	}

	// 1D: a dimension on which all vectors are zero.
	var oneD []int
	for i := 0; i < n; i++ {
		if deps.ZeroAt(i) {
			oneD = append(oneD, i)
		}
	}
	if len(oneD) > 0 {
		p.Kind = OneD
		p.SpaceDim = bestSingleDim(loop, opts, oneD)
		p.Arrays = placeArrays(loop, p.SpaceDim, -1)
		return p, nil
	}

	// 2D: a dimension pair covering every vector with a zero.
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if deps.ZeroAtEither(i, j) {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	if len(pairs) > 0 {
		best := pairs[0]
		bestCost := int64(-1)
		for _, pr := range pairs {
			// Either member can be the space dim; evaluate both
			// orientations. Rotated arrays (indexed by time dim) are
			// the communication cost.
			for _, orient := range [][2]int{{pr.i, pr.j}, {pr.j, pr.i}} {
				c := rotationCost(loop, opts, orient[0], orient[1])
				if bestCost < 0 || c < bestCost {
					bestCost = c
					best = pair{orient[0], orient[1]}
				}
			}
		}
		if opts.ForceDims != nil {
			best = pair{opts.ForceDims.Space, opts.ForceDims.Time}
		}
		p.Kind = TwoD
		p.SpaceDim = best.i
		p.TimeDim = best.j
		p.Arrays = placeArrays(loop, p.SpaceDim, p.TimeDim)
		return p, nil
	}

	// Unimodular transformation (only for n >= 2).
	if n >= 2 {
		if t, ok := unimodular.Find(n, deps.Vectors(), opts.SearchDepth, opts.MaxSkew); ok {
			p.Kind = TwoDTransformed
			p.Transform = t
			// In the transformed space all dependences are carried by
			// the outermost loop: time = transformed dim 0, space = any
			// inner dim (we use dim 1).
			p.TimeDim = 0
			p.SpaceDim = 1
			// Transformed coordinates no longer index the original
			// arrays directly; every array is Served unless it happens
			// to be indexed by an untouched dimension. Conservative:
			// all Served.
			for _, a := range loop.Arrays() {
				p.Arrays = append(p.Arrays, ArrayPlan{Array: a, Place: Served})
			}
			return p, nil
		}
	}

	p.Kind = NotParallelizable
	return p, nil
}

func candidateAll(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// bestSingleDim picks the candidate partitioning dimension minimizing
// the bytes of DistArrays that cannot be made local.
func bestSingleDim(loop *ir.LoopSpec, opts Options, cands []int) int {
	best := cands[0]
	bestCost := int64(-1)
	for _, d := range cands {
		var cost int64
		for _, a := range loop.Arrays() {
			if arrayDimFor(loop, a, d) < 0 {
				cost += opts.ArrayBytes[a]
			}
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			best = d
		}
	}
	return best
}

// rotationCost estimates bytes rotated per time step: the sizes of
// arrays indexed by the time dimension ("The smaller one of W and H is
// rotated among executors" — Fig. 6).
func rotationCost(loop *ir.LoopSpec, opts Options, space, time int) int64 {
	var cost int64
	for _, a := range loop.Arrays() {
		if a == loop.IterSpaceArray {
			continue
		}
		if arrayDimFor(loop, a, space) >= 0 {
			continue // local, free
		}
		if arrayDimFor(loop, a, time) >= 0 {
			cost += opts.ArrayBytes[a] // rotated
			continue
		}
		cost += 4 * opts.ArrayBytes[a] // served: random remote access, worst
	}
	return cost
}

// arrayDimFor returns the array dimension that loop dimension loopDim
// indexes consistently across every reference to the array, or -1.
func arrayDimFor(loop *ir.LoopSpec, array string, loopDim int) int {
	found := -1
	for _, r := range loop.RefsTo(array) {
		has := -1
		for pos, s := range r.Subs {
			if s.Kind == ir.SubIndex && s.Dim == loopDim && s.Const == 0 {
				has = pos
				break
			}
		}
		if has < 0 {
			return -1
		}
		if found >= 0 && found != has {
			return -1
		}
		found = has
	}
	return found
}

// placeArrays classifies every referenced array given the chosen space
// and time dimensions (-1 when absent).
func placeArrays(loop *ir.LoopSpec, space, time int) []ArrayPlan {
	var out []ArrayPlan
	for _, a := range loop.Arrays() {
		if a == loop.IterSpaceArray {
			// The iteration-space array is partitioned with the
			// iteration space itself; callers treat it as local.
			out = append(out, ArrayPlan{Array: a, Place: Local, PartDim: max(arrayDimFor(loop, a, space), 0)})
			continue
		}
		if d := arrayDimFor(loop, a, space); d >= 0 {
			out = append(out, ArrayPlan{Array: a, Place: Local, PartDim: d})
			continue
		}
		if time >= 0 {
			if d := arrayDimFor(loop, a, time); d >= 0 {
				out = append(out, ArrayPlan{Array: a, Place: Rotated, PartDim: d})
				continue
			}
		}
		out = append(out, ArrayPlan{Array: a, Place: Served})
	}
	return out
}

// String renders the plan like the bottom boxes of Fig. 6.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy: %s\n", p.Kind)
	if p.Deps != nil {
		fmt.Fprintf(&b, "Dependence vectors: %s\n", p.Deps)
	}
	switch p.Kind {
	case Independent, OneD:
		fmt.Fprintf(&b, "Partition iteration space by dim %d\n", p.SpaceDim)
	case TwoD:
		fmt.Fprintf(&b, "Partition iteration space by dims %d (space) and %d (time)\n", p.SpaceDim, p.TimeDim)
	case TwoDTransformed:
		fmt.Fprintf(&b, "Unimodular transform %v; partition transformed dims 0 (time), 1 (space)\n", p.Transform)
	}
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "  array %s: %s", a.Array, a.Place)
		if a.Place != Served {
			fmt.Fprintf(&b, " (partitioned by array dim %d)", a.PartDim)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
