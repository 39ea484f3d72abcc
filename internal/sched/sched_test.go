package sched

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"orion/internal/dep"
	"orion/internal/ir"
)

func mfLoop() *ir.LoopSpec {
	return &ir.LoopSpec{
		Name:           "sgd_mf",
		IterSpaceArray: "ratings",
		Dims:           []int64{100, 80},
		Refs: []ir.ArrayRef{
			{Array: "W", Subs: []ir.Subscript{ir.FullRange(), ir.Index(0, 0)}},
			{Array: "H", Subs: []ir.Subscript{ir.FullRange(), ir.Index(1, 0)}},
			{Array: "W", Subs: []ir.Subscript{ir.FullRange(), ir.Index(0, 0)}, IsWrite: true},
			{Array: "H", Subs: []ir.Subscript{ir.FullRange(), ir.Index(1, 0)}, IsWrite: true},
		},
	}
}

func TestPlanMF(t *testing.T) {
	opts := DefaultOptions()
	// W is larger than H: the heuristic should rotate the smaller H,
	// i.e. pick space=dim0 (keeps W local), time=dim1.
	opts.ArrayBytes = map[string]int64{"W": 1000, "H": 100}
	p, err := New(mfLoop(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != TwoD {
		t.Fatalf("kind = %v, want 2D", p.Kind)
	}
	if p.SpaceDim != 0 || p.TimeDim != 1 {
		t.Fatalf("dims = (%d,%d), want (0,1) to rotate the smaller array", p.SpaceDim, p.TimeDim)
	}
	places := map[string]Placement{}
	for _, a := range p.Arrays {
		places[a.Array] = a.Place
	}
	if places["W"] != Local {
		t.Errorf("W should be local, got %v", places["W"])
	}
	if places["H"] != Rotated {
		t.Errorf("H should rotate, got %v", places["H"])
	}
}

func TestPlanMFHeuristicFlips(t *testing.T) {
	opts := DefaultOptions()
	opts.ArrayBytes = map[string]int64{"W": 100, "H": 1000}
	p, err := New(mfLoop(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpaceDim != 1 || p.TimeDim != 0 {
		t.Fatalf("dims = (%d,%d), want (1,0) when H is larger", p.SpaceDim, p.TimeDim)
	}
}

func TestPlanForceDims(t *testing.T) {
	opts := DefaultOptions()
	opts.ArrayBytes = map[string]int64{"W": 1000, "H": 100}
	opts.ForceDims = &struct{ Space, Time int }{Space: 1, Time: 0}
	p, err := New(mfLoop(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpaceDim != 1 || p.TimeDim != 0 {
		t.Fatalf("ForceDims ignored: got (%d,%d)", p.SpaceDim, p.TimeDim)
	}
}

func TestPlanIndependent(t *testing.T) {
	loop := &ir.LoopSpec{
		Name: "map", IterSpaceArray: "grid", Dims: []int64{10, 10},
		Refs: []ir.ArrayRef{
			{Array: "P", Subs: []ir.Subscript{ir.Index(0, 0), ir.Index(1, 0)}, IsWrite: true},
		},
	}
	p, err := New(loop, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != Independent {
		t.Fatalf("kind = %v, want independent", p.Kind)
	}
}

func TestPlanOneD(t *testing.T) {
	// Each iteration writes row key[1] of A but reads a shared constant
	// row of B: dependences only constrain dim 0.
	loop := &ir.LoopSpec{
		Name: "rows", IterSpaceArray: "grid", Dims: []int64{10, 10},
		Ordered: true,
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, 0)}},
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, 0)}, IsWrite: true},
		},
	}
	p, err := New(loop, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != OneD {
		t.Fatalf("kind = %v, want 1D (deps: %v)", p.Kind, p.Deps)
	}
	if p.SpaceDim != 0 {
		t.Fatalf("space dim = %d, want 0", p.SpaceDim)
	}
}

func TestPlanUnimodular(t *testing.T) {
	// Wavefront stencil: A[i,j] reads A[i-1,j] and A[i,j-1], writes
	// A[i,j]. Dependences (1,0),(0,1): neither 1D nor 2D (every pair
	// needs one zero, but (1,0) has nonzero dim0 and zero dim1; (0,1)
	// zero dim0, nonzero dim1 — 2D condition on (0,1) actually holds!).
	// To force the transform path, use dependences (1,1) and (1,-1):
	// no dim is zero in all, and for the single pair (0,1) both vectors
	// are nonzero in both dims.
	loop := &ir.LoopSpec{
		Name: "skewed", IterSpaceArray: "grid", Dims: []int64{8, 8},
		Ordered: true,
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, -1), ir.Index(1, -1)}},
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, -1), ir.Index(1, 1)}},
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, 0), ir.Index(1, 0)}, IsWrite: true},
		},
	}
	p, err := New(loop, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != TwoDTransformed {
		t.Fatalf("kind = %v (deps %v), want 2D w/ transform", p.Kind, p.Deps)
	}
	if p.Transform == nil || !p.Transform.IsUnimodular() {
		t.Fatalf("bad transform %v", p.Transform)
	}
}

func TestPlanNotParallelizable(t *testing.T) {
	// A 1-dim loop with a serial chain: A[i] = f(A[i-1]).
	loop := &ir.LoopSpec{
		Name: "chain", IterSpaceArray: "v", Dims: []int64{16},
		Ordered: true,
		Refs: []ir.ArrayRef{
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, -1)}},
			{Array: "A", Subs: []ir.Subscript{ir.Index(0, 0)}, IsWrite: true},
		},
	}
	p, err := New(loop, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != NotParallelizable {
		t.Fatalf("kind = %v, want not parallelizable", p.Kind)
	}
}

func TestPlanBufferedFallsBackToDataParallel(t *testing.T) {
	// SLR with buffered writes: runtime-subscript reads only; no deps.
	loop := &ir.LoopSpec{
		Name: "slr", IterSpaceArray: "samples", Dims: []int64{1000},
		Refs: []ir.ArrayRef{
			{Array: "w", Subs: []ir.Subscript{ir.Runtime()}},
			{Array: "w", Subs: []ir.Subscript{ir.Runtime()}, IsWrite: true, Buffered: true},
		},
	}
	p, err := New(loop, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != Independent {
		t.Fatalf("kind = %v, want independent (data parallelism via buffers)", p.Kind)
	}
	// w is read with runtime subscripts: must be Served.
	for _, a := range p.Arrays {
		if a.Array == "w" && a.Place != Served {
			t.Errorf("w should be served, got %v", a.Place)
		}
	}
}

func TestSchedulesSerializableAndComplete(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 8} {
		s := OneDSchedule(nw)
		for _, step := range s {
			if step.Conflicts() {
				t.Errorf("1D schedule with %d workers has conflicts", nw)
			}
		}
		if !s.Covers(nw, 0) {
			t.Errorf("1D schedule with %d workers incomplete", nw)
		}
		for _, m := range []int{nw, 2 * nw, 3*nw + 1} {
			o := OrderedTwoDSchedule(nw, m)
			for _, step := range o {
				if step.Conflicts() {
					t.Errorf("ordered 2D (%d workers, %d time parts) conflicts", nw, m)
				}
			}
			if !o.Covers(nw, m) {
				t.Errorf("ordered 2D (%d,%d) incomplete", nw, m)
			}
		}
		for _, depth := range []int{1, 2, 3} {
			u := UnorderedTwoDSchedule(nw, depth)
			for _, step := range u {
				if step.Conflicts() {
					t.Errorf("unordered 2D (%d workers, depth %d) conflicts", nw, depth)
				}
				if len(step) != nw {
					t.Errorf("unordered 2D (%d workers, depth %d): step has %d execs, want all %d workers busy",
						nw, depth, len(step), nw)
				}
			}
			if !u.Covers(nw, nw*depth) {
				t.Errorf("unordered 2D (%d,%d) incomplete", nw, depth)
			}
		}
	}
}

func TestOrderedScheduleRampUp(t *testing.T) {
	// The wavefront schedule idles workers at the start and end — the
	// parallelism cost the unordered schedule avoids (Table 3).
	s := OrderedTwoDSchedule(4, 4)
	if len(s[0]) != 1 {
		t.Errorf("first wavefront step should have 1 busy worker, got %d", len(s[0]))
	}
	u := UnorderedTwoDSchedule(4, 1)
	if len(u[0]) != 4 {
		t.Errorf("first unordered step should have 4 busy workers, got %d", len(u[0]))
	}
}

func TestOrderedSchedulePreservesPartitionOrder(t *testing.T) {
	// Within one space partition, time partitions must execute in
	// increasing order across steps.
	s := OrderedTwoDSchedule(3, 5)
	last := map[int]int{}
	for _, step := range s {
		for _, e := range step {
			if prev, ok := last[e.SpacePart]; ok && e.TimePart <= prev {
				t.Fatalf("space part %d ran time part %d after %d", e.SpacePart, e.TimePart, prev)
			}
			last[e.SpacePart] = e.TimePart
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	p := NewRangePartitioner(10, 3)
	counts := map[int]int{}
	for v := int64(0); v < 10; v++ {
		k := p.PartOf(v)
		if k < 0 || k >= 3 {
			t.Fatalf("PartOf(%d) = %d out of range", v, k)
		}
		counts[k]++
		lo, hi := p.Bounds(k)
		if v < lo || v >= hi {
			t.Fatalf("PartOf(%d)=%d but Bounds(%d)=[%d,%d)", v, k, k, lo, hi)
		}
	}
	for k := 0; k < 3; k++ {
		if counts[k] < 3 || counts[k] > 4 {
			t.Errorf("partition %d has %d coords, want 3-4", k, counts[k])
		}
	}
}

func TestHistogramPartitionerBalances(t *testing.T) {
	// Zipf-ish skew: coordinate 0 has huge weight.
	weights := make([]int64, 100)
	for i := range weights {
		weights[i] = int64(1000 / (i + 1))
	}
	p := NewHistogramPartitioner(weights, 4)
	var loads [4]int64
	for c, w := range weights {
		loads[p.PartOf(int64(c))] += w
	}
	var total int64
	for _, l := range loads {
		total += l
	}
	for k, l := range loads {
		if l > total { // sanity
			t.Fatalf("partition %d load %d > total %d", k, l, total)
		}
	}
	// Equal-width partitioning puts ~72% of weight in partition 0;
	// histogram partitioning must do much better.
	eq := NewRangePartitioner(100, 4)
	var eqLoads [4]int64
	for c, w := range weights {
		eqLoads[eq.PartOf(int64(c))] += w
	}
	if loads[0] >= eqLoads[0] {
		t.Errorf("histogram partitioning should reduce the hottest partition: hist=%v equal=%v", loads, eqLoads)
	}
	maxLoad := loads[0]
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	if float64(maxLoad) > 0.5*float64(total) {
		t.Errorf("histogram partitioning too imbalanced: %v (total %d)", loads, total)
	}
}

func TestHistogramPartitionerDegenerate(t *testing.T) {
	// Fewer distinct coordinates than partitions.
	p := NewHistogramPartitioner([]int64{100, 0}, 4)
	if p.Parts() != 4 {
		t.Fatalf("parts = %d", p.Parts())
	}
	if k := p.PartOf(0); k != 0 {
		t.Errorf("PartOf(0) = %d, want 0", k)
	}
	// All coordinates mapped somewhere valid.
	for v := int64(0); v < 2; v++ {
		if k := p.PartOf(v); k < 0 || k >= 4 {
			t.Errorf("PartOf(%d) = %d out of range", v, k)
		}
	}
}

func TestWeights(t *testing.T) {
	coords := []int64{0, 0, 1, 3, 3, 3}
	w := Weights(4, len(coords), func(i int) int64 { return coords[i] })
	want := []int64{2, 1, 0, 3}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
}

// Property: random schedules from random worker/depth configs never
// conflict and always cover.
func TestScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nw := 1 + rng.Intn(12)
		depth := 1 + rng.Intn(4)
		u := UnorderedTwoDSchedule(nw, depth)
		for _, step := range u {
			if step.Conflicts() {
				t.Fatalf("trial %d: conflict (nw=%d depth=%d)", trial, nw, depth)
			}
		}
		if !u.Covers(nw, nw*depth) {
			t.Fatalf("trial %d: incomplete (nw=%d depth=%d)", trial, nw, depth)
		}
	}
}

// Property: the dependence set computed for the MF loop is respected by
// the unordered 2D schedule — concurrent partitions never contain
// dependent iterations.
func TestUnorderedScheduleRespectsDeps(t *testing.T) {
	loop := mfLoop()
	loop.Dims = []int64{12, 12}
	deps, err := dep.Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	nw := 3
	spacePart := NewRangePartitioner(loop.Dims[0], nw)
	timePart := NewRangePartitioner(loop.Dims[1], nw)
	s := UnorderedTwoDSchedule(nw, 1)
	for _, step := range s {
		// Collect all iterations of each exec; check pairwise
		// independence across execs.
		iters := make([][][]int64, len(step))
		for ei, e := range step {
			slo, shi := spacePart.Bounds(e.SpacePart)
			tlo, thi := timePart.Bounds(e.TimePart)
			for i := slo; i < shi; i++ {
				for j := tlo; j < thi; j++ {
					iters[ei] = append(iters[ei], []int64{i, j})
				}
			}
		}
		for a := 0; a < len(step); a++ {
			for b := a + 1; b < len(step); b++ {
				for _, pa := range iters[a] {
					for _, pb := range iters[b] {
						if !deps.ConflictFree(pa, pb) {
							t.Fatalf("schedule co-runs dependent iterations %v and %v", pa, pb)
						}
					}
				}
			}
		}
	}
}

func TestPlanStringRendersAllKinds(t *testing.T) {
	mf, err := New(mfLoop(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := mf.String()
	for _, want := range []string{"Strategy: 2D", "Dependence vectors:", "space", "time", "array W", "array H"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan string missing %q:\n%s", want, out)
		}
	}
	for _, k := range []Kind{Independent, OneD, TwoD, TwoDTransformed, NotParallelizable, Kind(42)} {
		if k.String() == "" {
			t.Errorf("Kind(%d) renders empty", int(k))
		}
	}
	for _, p := range []Placement{Local, Rotated, Served, Placement(9)} {
		if p.String() == "" {
			t.Errorf("Placement(%d) renders empty", int(p))
		}
	}
}

func TestPartitionerPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	assertPanics("zero parts range", func() { NewRangePartitioner(10, 0) })
	assertPanics("zero parts histogram", func() { NewHistogramPartitioner([]int64{1}, 0) })
	p := NewRangePartitioner(10, 2)
	assertPanics("bounds out of range", func() { p.Bounds(5) })
}

func TestHistogramAllZeroWeightsFallsBack(t *testing.T) {
	p := NewHistogramPartitioner(make([]int64, 12), 3)
	if p.Parts() != 3 {
		t.Fatal("parts wrong")
	}
	// Behaves like equal-width.
	if p.PartOf(0) != 0 || p.PartOf(11) != 2 {
		t.Fatalf("fallback partitioning wrong: %d %d", p.PartOf(0), p.PartOf(11))
	}
}

// TestForOrderedPlacesWavefrontWhatThePlanRotates: only Rotated entries
// move, to Wavefront; the plan it was derived from keeps its own
// placement; and only the ordered plan cuts time finer than the fleet —
// orderedDepth parts per executor, never more than the dimension has
// coordinates.
func TestForOrderedPlacesWavefrontWhatThePlanRotates(t *testing.T) {
	p := &Plan{Kind: TwoD, SpaceDim: 0, TimeDim: 1, Loop: &ir.LoopSpec{Dims: []int64{40, 100}}, Arrays: []ArrayPlan{
		{Array: "ratings", Place: Local},
		{Array: "W", Place: Local, PartDim: 1},
		{Array: "H", Place: Rotated, PartDim: 1},
		{Array: "bias", Place: Served},
	}}
	before := append([]ArrayPlan(nil), p.Arrays...)
	o := p.ForOrdered()
	want := append([]ArrayPlan(nil), before...)
	want[2].Place = Wavefront
	if !reflect.DeepEqual(o.Arrays, want) || !o.Ordered || p.Ordered {
		t.Errorf("ordered placement %v (ordered %v, input %v), want %v", o.Arrays, o.Ordered, p.Ordered, want)
	}
	if o.Kind != p.Kind || o.SpaceDim != p.SpaceDim || o.TimeDim != p.TimeDim {
		t.Errorf("ordered placement changed the strategy: %+v", o)
	}
	o.Arrays[0].Place = Served
	if !reflect.DeepEqual(p.Arrays, before) {
		t.Errorf("the input plan's Arrays changed: %v, want %v", p.Arrays, before)
	}
	for _, c := range []struct {
		pl             *Plan
		workers, parts int
	}{{p, 3, 3}, {o, 3, 3 * orderedDepth}, {o, 20, 100}, {o.ForOrdered(), 1, orderedDepth}} {
		if got := c.pl.TimeParts(c.workers); got != c.parts {
			t.Errorf("ordered %v on %d workers: %d time parts, want %d", c.pl.Ordered, c.workers, got, c.parts)
		}
	}
}

// TestHolderFollowsTheSchedule: the executor that holds a time
// partition at the start of a step runs it in that step — a partition
// the ordered wavefront runs nowhere in a step sits at executor 0, where
// it waits before its first block of a pass and lands after its last —
// and every executor the wavefront hands a partition to next runs it at
// the next step: from j to j+1, from the last executor home.
func TestHolderFollowsTheSchedule(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		for _, m := range []int{1, n, 3 * n} {
			s := OrderedTwoDSchedule(n, m)
			for i := 0; i < m; i++ {
				if h := s.Holder(0, i); h != 0 {
					t.Errorf("n=%d m=%d: partition %d starts a pass on executor %d", n, m, i, h)
				}
				if h := s.Holder(len(s), i); h != 0 {
					t.Errorf("n=%d m=%d: partition %d ends a pass on executor %d", n, m, i, h)
				}
				for step := range s {
					if h, next := s.Holder(step, i), s.Holder(step+1, i); step-i >= 0 && step-i < n && next != (h+1)%n {
						t.Errorf("n=%d m=%d: partition %d goes from %d at step %d to %d", n, m, i, h, step, next)
					}
				}
			}
		}
		ring := UnorderedTwoDSchedule(n, 1)
		for step := range ring {
			for _, e := range ring[step] {
				if h := ring.Holder(step, e.TimePart); h != e.Worker {
					t.Errorf("ring n=%d step %d: partition %d held by %d, run by %d", n, step, e.TimePart, h, e.Worker)
				}
			}
		}
	}
}
