package main

import (
	"fmt"
	"math"
	"math/rand"

	"orion/internal/data"
	"orion/internal/dsm"
)

// The loop bodies are the ones cmd/orion-run and examples/ ship
// (mfDSL, slrDSL, ldaDSL); only slr's index scale is widened so its
// served array is large enough for prefetch and flush to matter.
const (
	mfSrc = `
for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    pred = dot(W_row, H_row)
    diff = rv - pred
    W_grad = -2 * diff * H_row
    H_grad = -2 * diff * W_row
    W[:, key[1]] = W_row - step_size * W_grad
    H[:, key[2]] = H_row - step_size * H_grad
    err += abs2(diff)
end
`
	slrSrc = `
for (key, v) in samples
    idx = floor(v * 50000) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`
	ldaSrc = `
for (key, occ) in tokens
    zi = z[key[1], key[2]]
    doc_topic[zi, key[1]] -= 1
    word_topic[zi, key[2]] -= 1
    tot_buf[zi] -= 1

    p = zeros(K)
    total = 0
    for k = 1:K
        nd = max(doc_topic[k, key[1]], 0)
        nw = max(word_topic[k, key[2]], 0)
        nt = max(totals[k], 1)
        p[k] = (nd + alpha) * (nw + beta) / (nt + vbeta)
        total = total + p[k]
    end

    u = rand() * total
    chosen = 0
    acc = 0
    for k = 1:K
        acc = acc + p[k]
        if chosen == 0
            if u <= acc
                chosen = k
            end
        end
    end
    if chosen == 0
        chosen = K
    end

    doc_topic[chosen, key[1]] += 1
    word_topic[chosen, key[2]] += 1
    tot_buf[chosen] += 1
    z[key[1], key[2]] = chosen
end
`
)

// workload is one row of the README's workload table.
type workload struct {
	name    string
	src     string
	ordered bool // driver.Ordered(): wavefront, time-indexed arrays served
	tcp     bool // loopback sockets instead of in-process pipes
	// relTol, when non-zero, is the relative tolerance phases are
	// compared with instead of bitwise. slr_served needs it: two
	// workers' same-epoch update batches fold into a served shard in
	// arrival order, so identical runs differ in the last bits.
	relTol float64
	// build generates the fixture from the seed. Every phase calls it
	// afresh, so each starts from identical arrays.
	build func(seed int64, smoke bool) *fixture
}

// arrays looks a DistArray up by name: the driver's copy in a session
// phase, the harness's own in the serial and replay phases.
type arrays func(name string) *dsm.DistArray

// fixture is one workload's generated input: the DistArrays the loop
// reads and writes, its buffers and globals, and the loss the harness
// evaluates between passes.
type fixture struct {
	arrays  []*dsm.DistArray // iteration-space array first
	buffers [][2]string      // {buffer, target}
	globals map[string]float64
	iters   int // iterations per pass

	// loss evaluates the training objective; target maps the loss
	// before the first pass to the value passes_to_target waits for;
	// rising says which way the loss moves.
	loss   func(arrays) float64
	target func(initial float64) float64
	rising bool
	// invariants checks workload-specific conservation laws (nil when
	// there are none beyond finiteness).
	invariants func(arrays) error
}

func (f *fixture) iterArray() *dsm.DistArray { return f.arrays[0] }

// own returns a lookup over the fixture's own arrays.
func (f *fixture) own() arrays {
	m := map[string]*dsm.DistArray{}
	for _, a := range f.arrays {
		m[a.Name()] = a
	}
	return func(name string) *dsm.DistArray { return m[name] }
}

func workloads() []workload {
	return []workload{
		{name: "mf_rotate", src: mfSrc, build: func(seed int64, smoke bool) *fixture {
			if smoke {
				return mfFixture(seed, 120, 100, 2000, 1.1, 0.02)
			}
			return mfFixture(seed, 3000, 2500, 400_000, 1.1, 0.04)
		}},
		{name: "mf_ordered", src: mfSrc, ordered: true, build: func(seed int64, smoke bool) *fixture {
			if smoke {
				return mfFixture(seed, 100, 80, 1500, 0, 0.02)
			}
			return mfFixture(seed, 2000, 1500, 100_000, 0, 0.08)
		}},
		{name: "slr_served", src: slrSrc, relTol: 1e-9, build: func(seed int64, smoke bool) *fixture {
			if smoke {
				return slrFixture(seed, 2000, 1)
			}
			return slrFixture(seed, 300_000, 190)
		}},
		{name: "lda_tcp", src: ldaSrc, tcp: true, build: func(seed int64, smoke bool) *fixture {
			if smoke {
				return ldaFixture(seed, 60, 90, 30, 0.05)
			}
			return ldaFixture(seed, 2000, 3000, 50, 0.46)
		}},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const mfRank = 8

// mfFixture is SGD matrix factorization over a sparse rating matrix
// (data.NewRatings, the Netflix stand-in) whose row and column
// popularity is Zipf(skew), or uniform for skew 0. The step size is
// chosen per fixture so that RMSE halves within the timed window.
func mfFixture(seed int64, rows, cols int64, nnz int, skew, step float64) *fixture {
	ds := data.NewRatings(data.RatingsConfig{
		Rows: rows, Cols: cols, NNZ: nnz, Rank: mfRank, Noise: 0.05, Skew: skew, Seed: seed,
	})
	ratings := dsm.NewSparse("ratings", rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(seed + 1))
	w := dsm.NewDense("W", mfRank, rows)
	w.FillRandn(rng, 1.0/mfRank)
	h := dsm.NewDense("H", mfRank, cols)
	h.FillRandn(rng, 1.0)
	return &fixture{
		arrays:  []*dsm.DistArray{ratings, w, h},
		globals: map[string]float64{"step_size": step},
		iters:   len(ds.I),
		loss: func(arr arrays) float64 {
			w, h := arr("W"), arr("H")
			var sum float64
			for i := range ds.I {
				wv, hv := w.Vec(ds.I[i]), h.Vec(ds.J[i])
				var pred float64
				for d := range wv {
					pred += wv[d] * hv[d]
				}
				sum += (pred - ds.V[i]) * (pred - ds.V[i])
			}
			return math.Sqrt(sum / float64(len(ds.I)))
		},
		target: func(initial float64) float64 { return 0.5 * initial },
	}
}

const (
	slrDim   = 65536
	slrRange = 1.31 // floor(v*50000)+1 stays inside slrDim
)

// slrFixture is the sparse-logistic-regression loop of
// examples/slr_prefetch: one runtime-computed weight index per sample,
// read through the parameter-server path and written through a buffer.
// The weights start at zero and their L2 norm grows by about
// 0.025*samples/sqrt(slrDim) a pass; target is the norm to reach.
func slrFixture(seed int64, samples int, target float64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	xs := dsm.NewDense("samples", int64(samples))
	xs.Map(func(float64) float64 { return rng.Float64() * slrRange })
	weights := dsm.NewDense("weights", slrDim)
	return &fixture{
		arrays:  []*dsm.DistArray{xs, weights},
		buffers: [][2]string{{"w_buf", "weights"}},
		globals: map[string]float64{"step_size": 0.05},
		iters:   samples,
		loss: func(arr arrays) float64 {
			data, _ := arr("weights").DenseData()
			var sum float64
			for _, v := range data {
				sum += v * v
			}
			return math.Sqrt(sum)
		},
		target: func(float64) float64 { return target },
		rising: true,
	}
}

const (
	ldaTopics = 16
	ldaAlpha  = 0.5
	ldaBeta   = 0.1
)

// ldaFixture is collapsed Gibbs sampling over a synthetic corpus
// (data.NewCorpus), one token per distinct (document, word) pair as in
// examples/lda_dsl. The log-likelihood is negative and rises; the
// target is the round-robin start plus gain times its magnitude.
func ldaFixture(seed int64, docs, vocab int64, meanDocLen int, gain float64) *fixture {
	c := data.NewCorpus(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: ldaTopics, MeanDocLen: meanDocLen, Seed: seed})
	tokens := dsm.NewSparse("tokens", docs, vocab)
	z := dsm.NewSparse("z", docs, vocab)
	dt := dsm.NewDense("doc_topic", ldaTopics, docs)
	wt := dsm.NewDense("word_topic", ldaTopics, vocab)
	totals := dsm.NewDense("totals", ldaTopics)
	n := 0
	for d, words := range c.Words {
		seen := map[int64]bool{}
		for _, w := range words {
			if seen[w] {
				continue
			}
			seen[w] = true
			tokens.SetAt(1, int64(d), w)
			topic := int64(n % ldaTopics)
			z.SetAt(float64(topic+1), int64(d), w)
			dt.AddAt(1, topic, int64(d))
			wt.AddAt(1, topic, w)
			totals.AddAt(1, topic)
			n++
		}
	}
	vbeta := ldaBeta * float64(vocab)
	return &fixture{
		arrays:  []*dsm.DistArray{tokens, z, dt, wt, totals},
		buffers: [][2]string{{"tot_buf", "totals"}},
		globals: map[string]float64{"K": ldaTopics, "alpha": ldaAlpha, "beta": ldaBeta, "vbeta": vbeta},
		iters:   n,
		loss: func(arr arrays) float64 {
			var ll float64
			lgammaSum := func(name string, prior float64) float64 {
				data, _ := arr(name).DenseData()
				var s float64
				for _, v := range data {
					g, _ := math.Lgamma(v + prior)
					s += g
				}
				return s
			}
			ll += lgammaSum("word_topic", ldaBeta) + lgammaSum("doc_topic", ldaAlpha)
			ll -= lgammaSum("totals", vbeta)
			return ll
		},
		target: func(initial float64) float64 { return initial + gain*math.Abs(initial) },
		rising: true,
		invariants: func(arr arrays) error {
			for _, name := range []string{"doc_topic", "word_topic", "totals"} {
				data, _ := arr(name).DenseData()
				var sum float64
				for _, v := range data {
					if v < 0 {
						return fmt.Errorf("%s holds a negative count %g", name, v)
					}
					sum += v
				}
				if sum != float64(n) {
					return fmt.Errorf("sum(%s) = %g, want the token count %d", name, sum, n)
				}
			}
			return nil
		},
	}
}
