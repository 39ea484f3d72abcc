package examples

import (
	"math"
	"math/rand"

	"orion/internal/data"
	"orion/internal/dsm"
)

// The LDA priors every run of lda.orion uses.
const ldaAlpha, ldaBeta = 0.5, 0.1

// Fixture is what a driver program sets up before it hands a program's
// loop to @parallel_for (§3): the DistArrays by name, the buffers over
// them (name → target array) and the globals the loop reads. Step sizes
// and accumulators are left to the caller.
type Fixture struct {
	Arrays  map[string]*dsm.DistArray
	Buffers map[string]string
	Globals map[string]float64
}

// Session is what Register needs of a driver session.
type Session interface {
	RegisterArray(a *dsm.DistArray)
	CreateBuffer(name, target string) error
	SetGlobal(name string, v float64)
}

// Register declares the fixture's arrays, buffers and globals in s.
func (f *Fixture) Register(s Session) error {
	for _, a := range f.Arrays {
		s.RegisterArray(a)
	}
	for name, target := range f.Buffers {
		if err := s.CreateBuffer(name, target); err != nil {
			return err
		}
	}
	for name, v := range f.Globals {
		s.SetGlobal(name, v)
	}
	return nil
}

// NewMF builds mf.orion's arrays over a synthetic rating matrix: the
// sparse ratings, and the factors W (rank × rows) and H (rank × cols)
// drawn in that order from seed 1 at scales 1/rank and 1.
func NewMF(cfg data.RatingsConfig) *Fixture {
	ds := data.NewRatings(cfg)
	ratings := dsm.NewSparse("ratings", cfg.Rows, cfg.Cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rank := int64(cfg.Rank)
	w, h := dsm.NewDense("W", rank, cfg.Rows), dsm.NewDense("H", rank, cfg.Cols)
	rng := rand.New(rand.NewSource(1))
	w.FillRandn(rng, 1.0/float64(rank))
	h.FillRandn(rng, 1.0)
	return &Fixture{Arrays: map[string]*dsm.DistArray{"ratings": ratings, "W": w, "H": h}}
}

// NewLDA builds lda.orion's arrays over a synthetic corpus: one token
// per distinct (doc, word) pair, its topic z assigned round-robin in
// corpus order (1-based, as the DSL counts), and doc_topic, word_topic
// and totals counting those assignments; the buffer tot_buf over
// totals; and the globals K, alpha, beta and vbeta = beta × vocab.
func NewLDA(cfg data.CorpusConfig) *Fixture {
	c := data.NewCorpus(cfg)
	topics := int64(cfg.Topics)
	tokens := dsm.NewSparse("tokens", cfg.Docs, cfg.Vocab)
	z := dsm.NewSparse("z", cfg.Docs, cfg.Vocab)
	dt := dsm.NewDense("doc_topic", topics, cfg.Docs)
	wt := dsm.NewDense("word_topic", topics, cfg.Vocab)
	totals := dsm.NewDense("totals", topics)
	var i int64
	for d, words := range c.Words {
		for _, w := range words {
			if tokens.At(int64(d), w) != 0 {
				continue
			}
			tokens.SetAt(1, int64(d), w)
			topic := i%topics + 1
			z.SetAt(float64(topic), int64(d), w)
			dt.AddAt(1, topic-1, int64(d))
			wt.AddAt(1, topic-1, w)
			totals.AddAt(1, topic-1)
			i++
		}
	}
	return &Fixture{
		Arrays: map[string]*dsm.DistArray{
			"tokens": tokens, "z": z, "doc_topic": dt, "word_topic": wt, "totals": totals,
		},
		Buffers: map[string]string{"tot_buf": "totals"},
		Globals: map[string]float64{
			"K": float64(topics), "alpha": ldaAlpha, "beta": ldaBeta, "vbeta": ldaBeta * float64(cfg.Vocab),
		},
	}
}

// MFLoss is the squared error of W'H summed over every rating.
func MFLoss(ratings, w, h *dsm.DistArray) float64 {
	var loss float64
	ratings.ForEach(func(idx []int64, v float64) {
		wv, hv := w.Vec(idx[0]), h.Vec(idx[1])
		var pred float64
		for d := range wv {
			pred += wv[d] * hv[d]
		}
		loss += (pred - v) * (pred - v)
	})
	return loss
}

// LDALogLik is the collapsed log-likelihood of LDA's count tables, up
// to constants, under NewLDA's priors.
func LDALogLik(docTopic, wordTopic, totals *dsm.DistArray) float64 {
	topics, docs, vocab := totals.Dims()[0], docTopic.Dims()[1], wordTopic.Dims()[1]
	var ll float64
	for k := int64(0); k < topics; k++ {
		g, _ := math.Lgamma(totals.At(k) + ldaBeta*float64(vocab))
		ll -= g
		for w := int64(0); w < vocab; w++ {
			g, _ := math.Lgamma(wordTopic.At(k, w) + ldaBeta)
			ll += g
		}
		for d := int64(0); d < docs; d++ {
			g, _ := math.Lgamma(docTopic.At(k, d) + ldaAlpha)
			ll += g
		}
	}
	return ll
}
