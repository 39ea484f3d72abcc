package plan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"orion/internal/dep"
	"orion/internal/ir"
	"orion/internal/sched"
)

func mfSpec() *ir.LoopSpec {
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

// mfArtifact builds a 2D artifact through the real pipeline.
func mfArtifact(t *testing.T, workers int, spaceW, timeW []int64) *Artifact {
	t.Helper()
	return buildArtifact(t, mfSpec(), workers, spaceW, timeW)
}

func buildArtifact(t *testing.T, spec *ir.LoopSpec, workers int, spaceW, timeW []int64) *Artifact {
	t.Helper()
	opts := sched.DefaultOptions()
	opts.ArrayBytes = map[string]int64{"W": 1000, "H": 100}
	deps, err := dep.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sched.NewFromDeps(spec, deps, opts)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Build(Inputs{
		Spec: spec, Deps: deps, Plan: pl, Opts: opts,
		Workers: workers, SpaceWeights: spaceW, TimeWeights: timeW,
	})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestBuildMaterializesPartitions(t *testing.T) {
	art := mfArtifact(t, 4, nil, nil)
	if art.Strategy != Strategy2D {
		t.Fatalf("strategy = %s, want %s", art.Strategy, Strategy2D)
	}
	if art.Space.IsZero() || art.Time.IsZero() {
		t.Fatalf("2D artifact must materialize both partitions: space=%+v time=%+v", art.Space, art.Time)
	}
	if art.Space.Parts != 4 || art.Time.Parts != 4 {
		t.Errorf("parts = (%d, %d), want (4, 4)", art.Space.Parts, art.Time.Parts)
	}
	if art.WeightsDigest != "" {
		t.Errorf("no weights supplied, digest should be empty, got %q", art.WeightsDigest)
	}
	// Uniform cuts over [0,100) into 4: 25/50/75.
	lo, hi := art.Space.Bounds(1)
	if lo != 25 || hi != 50 {
		t.Errorf("uniform space bounds(1) = [%d,%d), want [25,50)", lo, hi)
	}
}

func TestBuildBalancedPartitions(t *testing.T) {
	// All the weight in the first quarter of dim 0: the balanced cuts
	// must differ from the uniform ones.
	spaceW := make([]int64, 100)
	for i := 0; i < 25; i++ {
		spaceW[i] = 100
	}
	for i := 25; i < 100; i++ {
		spaceW[i] = 1
	}
	timeW := make([]int64, 80)
	for i := range timeW {
		timeW[i] = 1
	}
	art := mfArtifact(t, 4, spaceW, timeW)
	if art.WeightsDigest == "" {
		t.Fatal("weights supplied, digest should be set")
	}
	if art.WeightsDigest != WeightsDigest(spaceW, timeW) {
		t.Fatal("digest does not match the supplied weights")
	}
	uniform := Uniform(100, 4)
	same := true
	for i := range art.Space.Cuts {
		if art.Space.Cuts[i] != uniform.Cuts[i] {
			same = false
		}
	}
	if same {
		t.Errorf("skewed weights produced uniform cuts %v", art.Space.Cuts)
	}
	// The materialized partition round-trips into an executable
	// partitioner with the same boundaries.
	p, err := art.Space.Partitioner()
	if err != nil {
		t.Fatal(err)
	}
	got := p.Boundaries()
	for i := range got {
		if got[i] != art.Space.Cuts[i] {
			t.Fatalf("Partitioner boundaries %v != cuts %v", got, art.Space.Cuts)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Inputs{}); err == nil {
		t.Error("Build with no spec/plan should fail")
	}
	spec := mfSpec()
	pl := &sched.Plan{Loop: spec, Kind: sched.OneD, SpaceDim: 0, TimeDim: -1}
	if _, err := Build(Inputs{Spec: spec, Plan: pl}); err == nil {
		t.Error("Build with zero workers should fail")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	spec := mfSpec()
	opts := sched.DefaultOptions()
	base := Fingerprint(spec, nil, opts)
	if base != Fingerprint(mfSpec(), nil, sched.DefaultOptions()) {
		t.Error("fingerprint is not deterministic")
	}
	// Zero search bounds normalize to the sched defaults.
	if base != Fingerprint(spec, nil, sched.Options{}) {
		t.Error("zero options should normalize to the defaults' fingerprint")
	}

	changed := mfSpec()
	changed.Dims[0] = 200
	if Fingerprint(changed, nil, opts) == base {
		t.Error("changing the iteration space should change the fingerprint")
	}

	deps := dep.NewSet()
	deps.Add(dep.Vector{dep.D(1), dep.D(0)})
	if Fingerprint(spec, deps, opts) == base {
		t.Error("adding dependence vectors should change the fingerprint")
	}

	sized := sched.DefaultOptions()
	sized.ArrayBytes = map[string]int64{"W": 1000}
	if Fingerprint(spec, nil, sized) == base {
		t.Error("array sizes should change the fingerprint")
	}
}

func TestWeightsDigest(t *testing.T) {
	a := WeightsDigest([]int64{1, 2, 3}, nil)
	if a != WeightsDigest([]int64{1, 2, 3}, nil) {
		t.Error("digest is not deterministic")
	}
	if a == WeightsDigest([]int64{1, 2, 4}, nil) {
		t.Error("digest should change with the weights")
	}
	if a == WeightsDigest(nil, []int64{1, 2, 3}) {
		t.Error("digest should distinguish which dimension carries the weights")
	}
	if len(a) != 16 {
		t.Errorf("digest length = %d, want 16", len(a))
	}
}

// TestRecutLatency: an adaptive reconfiguration recuts at a quiesced
// loop boundary, so its budget is latency: re-balancing a 4096 x 4096
// iteration space's skewed histograms over 16 workers must stay under
// 2 ms (the fastest of five, timed here; it reads tens of
// microseconds), which catches a recut that turns superlinear.
func TestRecutLatency(t *testing.T) {
	const coords, workers = 4096, 16
	spec := mfSpec()
	spec.Dims = []int64{coords, coords}
	rng := rand.New(rand.NewSource(41))
	spaceW, timeW := make([]int64, coords), make([]int64, coords)
	for i := range spaceW {
		spaceW[i], timeW[i] = int64(1+rng.Intn(64)), int64(1+rng.Intn(64))
	}
	art := buildArtifact(t, spec, workers, nil, nil)
	digest := WeightsDigest(spaceW, timeW)
	fastest := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		cut, err := art.Recut(spaceW, timeW, workers, workers, digest)
		if d := time.Since(start); d < fastest {
			fastest = d
		}
		if err != nil {
			t.Fatal(err)
		}
		if cut.Space.Parts != workers || cut.Time.Parts != workers || slices.Equal(cut.Space.Cuts, art.Space.Cuts) {
			t.Fatalf("recut onto skewed weights left the cuts at %v x %v", cut.Space.Cuts, cut.Time.Cuts)
		}
	}
	if fastest >= 2*time.Millisecond {
		t.Errorf("recut of %d x %d coordinates over %d workers takes %v, budget is < 2ms", coords, coords, workers, fastest)
	}
	t.Logf("recut of %d x %d coordinates over %d workers: %v", coords, coords, workers, fastest)
}

func TestPartitionValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Partition
		ok   bool
	}{
		{"zero", Partition{}, true},
		{"uniform", Uniform(100, 4), true},
		{"single", Partition{Extent: 10, Parts: 1}, true},
		{"zero-with-data", Partition{Extent: 10}, false},
		{"cut-count", Partition{Extent: 10, Parts: 3, Cuts: []int64{5}}, false},
		{"cut-order", Partition{Extent: 10, Parts: 3, Cuts: []int64{7, 3}}, false},
		{"cut-range", Partition{Extent: 10, Parts: 2, Cuts: []int64{11}}, false},
	}
	for _, c := range cases {
		err := c.p.validate(c.name)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation should fail", c.name)
		}
	}
}

func TestSchedPlanRoundTrip(t *testing.T) {
	art := mfArtifact(t, 4, nil, nil)
	pl, err := art.SchedPlan()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Kind != sched.TwoD || pl.SpaceDim != art.SpaceDim || pl.TimeDim != art.TimeDim {
		t.Errorf("SchedPlan lost the strategy: %+v", pl)
	}
	if len(pl.Arrays) != len(art.Arrays) {
		t.Errorf("SchedPlan lost array placements: %d vs %d", len(pl.Arrays), len(art.Arrays))
	}
	if pl.Deps.Len() != len(art.Deps) {
		t.Errorf("SchedPlan lost dependence vectors")
	}
}

func TestDiff(t *testing.T) {
	a := mfArtifact(t, 4, nil, nil)
	b := mfArtifact(t, 4, nil, nil)
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical artifacts should not differ: %v", d)
	}
	c := mfArtifact(t, 8, nil, nil)
	d := Diff(a, c)
	if len(d) == 0 {
		t.Fatal("different worker counts must diff")
	}
	joined := strings.Join(d, "\n")
	if !strings.Contains(joined, "workers") || !strings.Contains(joined, "partition") {
		t.Errorf("diff should mention workers and partitions:\n%s", joined)
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	art := mfArtifact(t, 4, nil, nil)

	skewed := *art
	skewed.Version = Version + 1
	blob := skewed.EncodeBinary()
	if _, err := DecodeBinary(blob); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("binary decode of future version: err = %v, want ErrVersionSkew", err)
	}

	j, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	sj := strings.Replace(string(j), fmt.Sprintf(`"version": %d`, Version), `"version": 99`, 1)
	if _, err := DecodeJSON([]byte(sj)); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("json decode of future version: err = %v, want ErrVersionSkew", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	art := mfArtifact(t, 4, nil, nil)

	if _, err := Decode(nil); err == nil {
		t.Error("empty input should not decode")
	}
	if _, err := Decode([]byte("{}")); err == nil {
		t.Error("empty JSON object should fail validation")
	}
	j, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	unknown := strings.Replace(string(j), `"version"`, `"surprise": 1, "version"`, 1)
	if _, err := DecodeJSON([]byte(unknown)); err == nil {
		t.Error("unknown fields should be rejected")
	}

	b := art.EncodeBinary()
	if _, err := DecodeBinary(b[:len(b)/2]); err == nil {
		t.Error("truncated binary should not decode")
	}
	if _, err := DecodeBinary(append(b, 0)); err == nil {
		t.Error("trailing bytes should be rejected")
	}
}

// TestPartitionersReuseOrRebalance: the one rule for "do the artifact's
// materialized cuts still fit this data and fleet".
func TestPartitionersReuseOrRebalance(t *testing.T) {
	spaceW, timeW := make([]int64, 100), make([]int64, 80)
	for i := range spaceW {
		spaceW[i] = 1 + int64(i%7)*int64(i%3)
	}
	for i := range timeW {
		timeW[i] = 1 + int64(i%5)
	}
	drifted := slices.Clone(spaceW)
	drifted[3] += 50
	art := mfArtifact(t, 4, spaceW, timeW)
	balanced := func(w []int64, parts int) []int64 { return BalancedPartitioner(w, parts).Boundaries() }

	for _, tc := range []struct {
		name               string
		art                *Artifact
		spaceW, timeW      []int64
		workers, timeParts int
		reused             bool
		space, time        []int64 // nil time: no time partitioner
	}{
		{"digest match", art, spaceW, timeW, 4, 4, true, art.Space.Cuts, art.Time.Cuts},
		{"fewer workers than cuts", art, spaceW, timeW, 2, 2, false, balanced(spaceW, 2), balanced(timeW, 2)},
		{"more workers than cuts", art, spaceW, timeW, 5, 5, false, balanced(spaceW, 5), balanced(timeW, 5)},
		{"more time parts than cuts", art, spaceW, timeW, 4, 8, false, balanced(spaceW, 4), balanced(timeW, 8)},
		{"digest drift", art, drifted, timeW, 4, 4, false, balanced(drifted, 4), balanced(timeW, 4)},
		{"nil artifact", nil, spaceW, timeW, 4, 4, false, balanced(spaceW, 4), balanced(timeW, 4)},
		{"1D asks for no time partitioner", nil, spaceW, nil, 3, 0, false, balanced(spaceW, 3), nil},
	} {
		sp, tp, reused := tc.art.Partitioners(tc.spaceW, tc.timeW, WeightsDigest(tc.spaceW, tc.timeW), tc.workers, tc.timeParts)
		if reused != tc.reused {
			t.Errorf("%s: reused = %v, want %v", tc.name, reused, tc.reused)
		}
		if got := sp.Boundaries(); sp.Parts() != tc.workers || !slices.Equal(got, tc.space) {
			t.Errorf("%s: space cuts %v, want %v", tc.name, got, tc.space)
		}
		switch {
		case tc.time == nil:
			if tp != nil {
				t.Errorf("%s: got a time partitioner for a 1D run", tc.name)
			}
		case tp == nil || tp.Parts() != tc.timeParts || !slices.Equal(tp.Boundaries(), tc.time):
			t.Errorf("%s: time partitioner %v, want cuts %v", tc.name, tp, tc.time)
		}
	}
}
