package engine

import (
	"math/rand"

	"orion/internal/cluster"
)

// RunSerial executes the app on a single worker in shuffled order — the
// gold-standard convergence baseline ("serial Julia program").
func RunSerial(app App, cfg Config) *Result {
	cfg = cfg.withDefaults()
	master := NewMasterStore(app, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := app.NumSamples()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Ordered loops execute in lexicographic iteration order; unordered
	// ones reshuffle each pass (SGD practice, Section 4.3).
	ordered := app.LoopSpec().Ordered
	if ordered {
		sortLexicographic(app, order)
	}
	var clock cluster.Clock
	res := &Result{Engine: "serial", App: app.Name()}
	passFlops := float64(n) * app.FlopsPerSample()
	for pass := 0; pass < cfg.Passes; pass++ {
		if !ordered {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, i := range order {
			app.Process(app.SampleAt(i), master, rng)
		}
		clock.Advance(cfg.Cluster.ComputeTime(passFlops))
		recordPass(res, &clock, 0, app, master, cfg)
	}
	return res
}
