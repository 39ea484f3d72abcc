package data

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestRatingsDeterministicAndInBounds(t *testing.T) {
	cfg := RatingsConfig{Rows: 40, Cols: 30, NNZ: 500, Rank: 4, Noise: 0.1, Skew: 1.2, Seed: 7}
	a := NewRatings(cfg)
	b := NewRatings(cfg)
	if len(a.I) != 500 {
		t.Fatalf("nnz = %d", len(a.I))
	}
	seen := map[[2]int64]bool{}
	for i := range a.I {
		if a.I[i] != b.I[i] || a.J[i] != b.J[i] || a.V[i] != b.V[i] {
			t.Fatal("generation is not deterministic")
		}
		if a.I[i] < 0 || a.I[i] >= 40 || a.J[i] < 0 || a.J[i] >= 30 {
			t.Fatalf("entry (%d,%d) out of bounds", a.I[i], a.J[i])
		}
		k := [2]int64{a.I[i], a.J[i]}
		if seen[k] {
			t.Fatalf("duplicate entry %v", k)
		}
		seen[k] = true
	}
}

// TestRatingsDigestPinned: the generator draws exactly the ratings it
// always drew — every workload's data, and so every committed number,
// rests on them — whatever it uses to skip a coordinate it already drew.
func TestRatingsDigestPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  RatingsConfig
		want uint64
	}{
		{RatingsConfig{Rows: 40, Cols: 30, NNZ: 500, Rank: 4, Noise: 0.1, Skew: 1.2, Seed: 7}, 0x3e2a5cb760132554},
		{RatingsConfig{Rows: 300, Cols: 200, NNZ: 20000, Rank: 4, Noise: 0.05, Seed: 3}, 0x9cd628df3aeae331},
	} {
		r := NewRatings(c.cfg)
		h := fnv.New64a()
		for i := range r.I {
			binary.Write(h, binary.LittleEndian, [3]uint64{uint64(r.I[i]), uint64(r.J[i]), math.Float64bits(r.V[i])})
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%+v: digest %#x, want %#x", c.cfg, got, c.want)
		}
	}
}

func TestRatingsLowRankStructure(t *testing.T) {
	// With zero noise, a rank-r factorization explains the data; check
	// values are not wildly unbounded and vary.
	a := NewRatings(RatingsConfig{Rows: 30, Cols: 30, NNZ: 300, Rank: 4, Noise: 0, Seed: 1})
	var mn, mx float64 = math.Inf(1), math.Inf(-1)
	for _, v := range a.V {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx == mn {
		t.Fatal("ratings are constant")
	}
	if math.IsNaN(mn) || math.Abs(mx) > 1e3 {
		t.Fatalf("degenerate value range [%v, %v]", mn, mx)
	}
}

func TestRatingsSkewConcentratesMass(t *testing.T) {
	skewed := NewRatings(RatingsConfig{Rows: 200, Cols: 200, NNZ: 4000, Rank: 2, Skew: 1.05, Seed: 3})
	uniform := NewRatings(RatingsConfig{Rows: 200, Cols: 200, NNZ: 4000, Rank: 2, Skew: 0, Seed: 3})
	maxRow := func(r *Ratings) int {
		counts := map[int64]int{}
		for _, i := range r.I {
			counts[i]++
		}
		mx := 0
		for _, c := range counts {
			if c > mx {
				mx = c
			}
		}
		return mx
	}
	if maxRow(skewed) <= 2*maxRow(uniform) {
		t.Fatalf("skewed max row count %d should far exceed uniform %d",
			maxRow(skewed), maxRow(uniform))
	}
}

func TestCorpusShapes(t *testing.T) {
	c := NewCorpus(CorpusConfig{Docs: 50, Vocab: 40, Topics: 5, MeanDocLen: 20, Seed: 2})
	if int64(len(c.Words)) != 50 {
		t.Fatalf("docs = %d", len(c.Words))
	}
	for d, words := range c.Words {
		if len(words) < 10 || len(words) > 40 {
			t.Fatalf("doc %d length %d outside [MeanDocLen/2, 3*MeanDocLen/2)", d, len(words))
		}
		for _, w := range words {
			if w < 0 || w >= 40 {
				t.Fatalf("word id %d out of vocab", w)
			}
		}
	}
	// Deterministic.
	c2 := NewCorpus(CorpusConfig{Docs: 50, Vocab: 40, Topics: 5, MeanDocLen: 20, Seed: 2})
	for d := range c.Words {
		for i := range c.Words[d] {
			if c.Words[d][i] != c2.Words[d][i] {
				t.Fatal("corpus not deterministic")
			}
		}
	}
}

func TestCorpusHasTopicStructure(t *testing.T) {
	// Documents mix few topics: the word distribution within a doc
	// should be far more concentrated than the corpus-wide one.
	c := NewCorpus(CorpusConfig{Docs: 100, Vocab: 200, Topics: 8, MeanDocLen: 60, Seed: 4})
	distinctRatio := func(words []int64) float64 {
		set := map[int64]bool{}
		for _, w := range words {
			set[w] = true
		}
		return float64(len(set)) / float64(len(words))
	}
	var avg float64
	for _, ws := range c.Words {
		avg += distinctRatio(ws)
	}
	avg /= float64(len(c.Words))
	if avg > 0.9 {
		t.Fatalf("documents look like uniform noise (distinct ratio %v)", avg)
	}
}

func TestLogisticLabelsFollowPlantedModel(t *testing.T) {
	ds := NewLogistic(LogisticConfig{Samples: 2000, Dim: 50, NNZPer: 6, Seed: 5})
	if len(ds.Features) != 2000 || len(ds.Labels) != 2000 {
		t.Fatal("shapes wrong")
	}
	// Labels should agree with the planted model's sign more often than
	// chance.
	agree := 0
	for i, feats := range ds.Features {
		if len(feats) != 6 {
			t.Fatalf("sample %d has %d features", i, len(feats))
		}
		var z float64
		for _, f := range feats {
			if f < 0 || f >= 50 {
				t.Fatalf("feature id %d out of range", f)
			}
			z += ds.TrueW[f]
		}
		pred := 0.0
		if z > 0 {
			pred = 1.0
		}
		if pred == ds.Labels[i] {
			agree++
		}
	}
	if float64(agree)/2000 < 0.6 {
		t.Fatalf("labels agree with planted model only %d/2000 times", agree)
	}
}

func TestRegressionStructure(t *testing.T) {
	ds := NewRegression(RegressionConfig{Samples: 500, Features: 6, Noise: 0.01, Seed: 6})
	if len(ds.X) != 500 || len(ds.Y) != 500 {
		t.Fatal("shapes wrong")
	}
	var vy float64
	var my float64
	for _, y := range ds.Y {
		my += y
	}
	my /= 500
	for _, y := range ds.Y {
		vy += (y - my) * (y - my)
	}
	if vy/500 < 0.1 {
		t.Fatalf("labels nearly constant (var %v): no structure to learn", vy/500)
	}
	for _, x := range ds.X {
		if len(x) != 6 {
			t.Fatal("feature width wrong")
		}
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("feature %v outside [0,1]", v)
			}
		}
	}
}
