// Package data generates the synthetic datasets that stand in for the
// paper's evaluation data (Netflix, NYTimes, ClueWeb-25M, KDD2010 —
// none redistributable here). Each generator plants a ground-truth
// model and reproduces the relevant access-pattern statistics: sparsity,
// Zipf-skewed popularity, and dimensionality ratios.
package data

import (
	"math"
	"math/rand"
)

// RatingsConfig describes a synthetic sparse rating matrix (the
// Netflix stand-in for SGD MF).
type RatingsConfig struct {
	Rows int64 // users
	Cols int64 // movies
	NNZ  int   // observed ratings
	Rank int   // planted factor rank
	// Noise is the stddev of additive observation noise.
	Noise float64
	// Skew > 0 draws row/column popularity from a Zipf distribution
	// with this exponent (1.1 resembles real rating data); 0 is
	// uniform.
	Skew float64
	Seed int64
}

// Ratings is a generated sparse rating dataset.
type Ratings struct {
	Rows, Cols int64
	Rank       int
	// Entries are the observed (i, j, value) triples, deduplicated.
	I, J []int64
	V    []float64
}

// NewRatings plants factor matrices W*, H* and samples NNZ observed
// entries V_ij = W*_i · H*_j + noise.
func NewRatings(cfg RatingsConfig) *Ratings {
	rng := rand.New(rand.NewSource(cfg.Seed))
	wTrue := randnMatrix(rng, cfg.Rows, cfg.Rank, 1.0/float64(cfg.Rank))
	hTrue := randnMatrix(rng, cfg.Cols, cfg.Rank, 1.0)
	rowPick := picker(rng, cfg.Rows, cfg.Skew)
	colPick := picker(rng, cfg.Cols, cfg.Skew)

	r := &Ratings{Rows: cfg.Rows, Cols: cfg.Cols, Rank: cfg.Rank}
	seen := make(map[int64]bool, cfg.NNZ) // by flat offset i*Cols+j
	for len(r.I) < cfg.NNZ {
		i, j := rowPick(), colPick()
		if seen[i*cfg.Cols+j] {
			continue
		}
		seen[i*cfg.Cols+j] = true
		var v float64
		for d := 0; d < cfg.Rank; d++ {
			v += wTrue[i][d] * hTrue[j][d]
		}
		v += rng.NormFloat64() * cfg.Noise
		r.I = append(r.I, i)
		r.J = append(r.J, j)
		r.V = append(r.V, v)
	}
	return r
}

func randnMatrix(rng *rand.Rand, rows int64, cols int, scale float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for d := range m[i] {
			m[i][d] = rng.NormFloat64() * scale
		}
	}
	return m
}

// picker returns a coordinate sampler, Zipf-skewed when skew > 1.
func picker(rng *rand.Rand, extent int64, skew float64) func() int64 {
	if skew <= 1 {
		return func() int64 { return rng.Int63n(extent) }
	}
	z := rand.NewZipf(rng, skew, 1, uint64(extent-1))
	perm := rng.Perm(int(extent)) // decorrelate popularity from id
	return func() int64 { return int64(perm[z.Uint64()]) }
}

// CorpusConfig describes a synthetic topic-model corpus (the NYTimes /
// ClueWeb stand-in for LDA).
type CorpusConfig struct {
	Docs       int64
	Vocab      int64
	Topics     int
	MeanDocLen int
	// TopicSkew is the Zipf exponent of the per-topic word
	// distributions.
	TopicSkew float64
	Seed      int64
}

// Corpus is a generated bag-of-words corpus.
type Corpus struct {
	Docs, Vocab int64
	Topics      int
	// Words[d] lists the token word-ids of document d.
	Words [][]int64
}

// NewCorpus draws documents from an LDA generative model: each topic is
// a Zipf-skewed distribution over a subset of the vocabulary; each
// document mixes 1-3 topics.
func NewCorpus(cfg CorpusConfig) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.MeanDocLen <= 0 {
		cfg.MeanDocLen = 50
	}
	if cfg.TopicSkew <= 1 {
		cfg.TopicSkew = 1.3
	}
	// Per-topic word samplers: topic t prefers words congruent to a
	// shifted Zipf draw, spreading topics across the vocabulary.
	topicWord := make([]func() int64, cfg.Topics)
	for t := 0; t < cfg.Topics; t++ {
		z := rand.NewZipf(rng, cfg.TopicSkew, 1, uint64(cfg.Vocab-1))
		shift := rng.Int63n(cfg.Vocab)
		topicWord[t] = func() int64 { return (int64(z.Uint64()) + shift) % cfg.Vocab }
	}
	c := &Corpus{Docs: cfg.Docs, Vocab: cfg.Vocab, Topics: cfg.Topics}
	c.Words = make([][]int64, cfg.Docs)
	for d := int64(0); d < cfg.Docs; d++ {
		nTopics := 1 + rng.Intn(3)
		mix := make([]int, nTopics)
		for k := range mix {
			mix[k] = rng.Intn(cfg.Topics)
		}
		length := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen)
		words := make([]int64, length)
		for i := range words {
			t := mix[rng.Intn(nTopics)]
			words[i] = topicWord[t]()
		}
		c.Words[d] = words
	}
	return c
}

// LogisticConfig describes a synthetic sparse binary-feature
// classification dataset (the KDD2010 stand-in for SLR).
type LogisticConfig struct {
	Samples     int
	Dim         int64
	NNZPer      int // nonzero features per sample
	FeatureSkew float64
	Seed        int64
}

// Logistic is a generated sparse logistic-regression dataset.
type Logistic struct {
	Dim      int64
	Features [][]int64 // nonzero feature ids per sample (binary features)
	Labels   []float64 // 0 or 1
	// TrueW is the planted weight vector (for tests).
	TrueW []float64
}

// NewLogistic plants a weight vector and labels samples by a logistic
// model over Zipf-popular binary features.
func NewLogistic(cfg LogisticConfig) *Logistic {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.FeatureSkew <= 1 {
		cfg.FeatureSkew = 1.2
	}
	l := &Logistic{Dim: cfg.Dim}
	l.TrueW = make([]float64, cfg.Dim)
	for i := range l.TrueW {
		l.TrueW[i] = rng.NormFloat64()
	}
	pick := picker(rng, cfg.Dim, cfg.FeatureSkew)
	for s := 0; s < cfg.Samples; s++ {
		feats := make([]int64, 0, cfg.NNZPer)
		seen := make(map[int64]bool, cfg.NNZPer)
		for len(feats) < cfg.NNZPer {
			f := pick()
			if seen[f] {
				continue
			}
			seen[f] = true
			feats = append(feats, f)
		}
		var z float64
		for _, f := range feats {
			z += l.TrueW[f]
		}
		p := 1 / (1 + math.Exp(-z))
		label := 0.0
		if rng.Float64() < p {
			label = 1.0
		}
		l.Features = append(l.Features, feats)
		l.Labels = append(l.Labels, label)
	}
	return l
}

// RegressionConfig describes a synthetic tabular regression dataset for
// gradient boosted trees.
type RegressionConfig struct {
	Samples  int
	Features int
	Noise    float64
	Seed     int64
}

// Regression is a generated dense tabular regression dataset with
// piecewise (tree-friendly) structure.
type Regression struct {
	X [][]float64
	Y []float64
}

// NewRegression draws features uniformly and labels with a random
// depth-3 decision structure plus noise.
func NewRegression(cfg RegressionConfig) *Regression {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Regression{}
	// Random axis-aligned rules.
	type rule struct {
		f int
		t float64
		v float64
	}
	rules := make([]rule, 8)
	for i := range rules {
		rules[i] = rule{f: rng.Intn(cfg.Features), t: rng.Float64(), v: rng.NormFloat64() * 2}
	}
	for s := 0; s < cfg.Samples; s++ {
		x := make([]float64, cfg.Features)
		for i := range x {
			x[i] = rng.Float64()
		}
		var y float64
		for _, ru := range rules {
			if x[ru.f] > ru.t {
				y += ru.v
			}
		}
		y += rng.NormFloat64() * cfg.Noise
		r.X = append(r.X, x)
		r.Y = append(r.Y, y)
	}
	return r
}
