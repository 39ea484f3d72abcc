package bench

import (
	"fmt"

	"orion/internal/apps"
	"orion/internal/engine"
	"orion/internal/ir"
	"orion/internal/metrics"
	"orion/internal/optim"
	"orion/internal/sched"
)

// Table2 reproduces Table 2: the applications, their learning
// algorithms, and the parallelization Orion's static analysis selects
// for each. (The paper's LoC column counted Julia lines; we report the
// paper's numbers for reference — the reproducible claim is the
// strategy column, which our analyzer derives.)
func Table2(s Scale) (*Report, error) {
	mf := mfApp(s, optim.NewSGD(s.MFLR))
	mfA := mfApp(s, optim.NewAdaRev(s.AdaRevLR))
	slr := slrApp(s)
	lda := ldaApp(s.LDASmall, s)

	entries := []struct {
		acronym, model, algo, paperLoC string
		kind                           sched.Kind
	}{
		{"SGD MF", "Matrix Factorization", "SGD", "87", mustKind(mf.LoopSpec())},
		{"SGD MF AdaRev", "Matrix Factorization", "SGD w/ Adaptive Revision", "108", mustKind(mfA.LoopSpec())},
		{"SLR", "Sparse Logistic Regression", "SGD", "118", mustKind(slr.LoopSpec())},
		{"SLR AdaRev", "Sparse Logistic Regression", "SGD w/ Adaptive Revision", "143", mustKind(slr.LoopSpec())},
		{"LDA", "Latent Dirichlet Allocation", "Collapsed Gibbs Sampling", "398", mustKind(lda.LoopSpec())},
		{"GBT", "Gradient Boosted Tree", "Gradient Boosting", "695", mustKind(apps.GBTSplitSearch(s.GBTFeatures))},
	}
	var rows [][]string
	for _, e := range entries {
		label := strategyLabel(e.kind)
		rows = append(rows, []string{e.acronym, e.model, e.algo, e.paperLoC, label})
	}
	body := metrics.Table(
		[]string{"Acronym", "Model", "Learning Algorithm", "LoC (paper)", "Parallelization (analyzer)"},
		rows)
	return &Report{ID: "table2", Title: "ML applications parallelized by Orion", Body: body}, nil
}

// strategyLabel maps the planner's Kind to Table 2's vocabulary.
func strategyLabel(k sched.Kind) string {
	switch k {
	case sched.TwoD, sched.TwoDTransformed:
		return "2D Unordered"
	case sched.OneD:
		return "1D"
	case sched.Independent:
		return "1D (data parallelism)"
	default:
		return k.String()
	}
}

// Fig9a reproduces Fig. 9a: time per iteration of serial Julia programs
// vs Orion-parallelized programs across worker counts, for SGD MF and
// LDA.
func Fig9a(s Scale) (*Report, error) {
	var series []metrics.Series
	var rows [][]string

	type target struct {
		name     string
		mk       func() engine.App
		passes   int
		overhead float64
	}
	targets := []target{
		{"SGD MF", func() engine.App { return mfApp(s, optim.NewSGD(s.MFLR)) }, min(3, s.MFPasses), 1.0},
		{"LDA", func() engine.App { return ldaApp(s.LDASmall, s) }, min(3, s.LDAPasses), s.OrionLDAOverhead},
	}
	for _, tg := range targets {
		cfg := baseConfig(s, tg.passes)
		cfg.Workers = 1
		cfg.SkipLoss = true
		serial := engine.RunSerial(tg.mk(), cfg)
		rows = append(rows, []string{tg.name, "serial", fmt.Sprintf("%.4g", serial.TimePerIter())})

		sweep := metrics.Series{Name: tg.name + " (Orion)"}
		for _, w := range s.WorkerSweep {
			cfg := baseConfig(s, tg.passes)
			cfg.Workers = w
			cfg.SkipLoss = true
			cfg.Cluster.ComputeOverhead = tg.overhead
			res, err := engine.RunOrion2D(tg.mk(), cfg, false)
			if err != nil {
				return nil, err
			}
			sweep.X = append(sweep.X, float64(w))
			sweep.Y = append(sweep.Y, res.TimePerIter())
			rows = append(rows, []string{tg.name, fmt.Sprintf("%d workers", w), fmt.Sprintf("%.4g", res.TimePerIter())})
		}
		series = append(series, sweep)
	}
	body := metrics.Table([]string{"App", "Config", "Time/iter (s, simulated)"}, rows)
	return &Report{ID: "fig9a", Title: "Time per iteration: serial vs Orion across worker counts", Body: body, Series: series}, nil
}

// Fig9b reproduces Fig. 9b: SGD MF per-iteration convergence under
// serial execution, data parallelism, and dependence-aware
// parallelization (unordered and ordered).
func Fig9b(s Scale) (*Report, error) {
	passes := s.MFPasses
	cfg := baseConfig(s, passes)

	serial := engine.RunSerial(mfApp(s, optim.NewSGD(s.MFLR)), engine.Config{
		Workers: 1, Passes: passes, Seed: 1, Cluster: s.Cluster})
	dp := engine.RunDataParallel(mfApp(s, optim.NewSGD(s.DPLR)), cfg)
	unordered, err := engine.RunOrion2D(mfApp(s, optim.NewSGD(s.MFLR)), cfg, false)
	if err != nil {
		return nil, err
	}
	ordered, err := engine.RunOrion2D(mfApp(s, optim.NewSGD(s.MFLR)), cfg, true)
	if err != nil {
		return nil, err
	}

	var series []metrics.Series
	for _, p := range []struct {
		name string
		r    *engine.Result
	}{
		{"Serial", serial},
		{"Data Parallelism", dp},
		{"Dep-Aware (unordered)", unordered},
		{"Dep-Aware (ordered)", ordered},
	} {
		it, _ := lossSeries(p.name, p.r)
		series = append(series, it)
	}
	body := metrics.FormatSeries("iteration", series)
	body += checkline(
		unordered.FinalLoss() < dp.FinalLoss(),
		"dependence-aware convergence beats data parallelism per iteration")
	return &Report{ID: "fig9b", Title: "SGD MF (Netflix-like): training loss vs iteration", Body: body, Series: series}, nil
}

// Fig9c reproduces Fig. 9c for LDA (NYTimes-like corpus).
func Fig9c(s Scale) (*Report, error) {
	passes := s.LDAPasses
	cfg := baseConfig(s, passes)

	serial := engine.RunSerial(ldaApp(s.LDASmall, s), engine.Config{
		Workers: 1, Passes: passes, Seed: 1, Cluster: s.Cluster})
	dp := engine.RunDataParallel(ldaApp(s.LDASmall, s), cfg)
	unordered, err := engine.RunOrion2D(ldaApp(s.LDASmall, s), cfg, false)
	if err != nil {
		return nil, err
	}
	ordered, err := engine.RunOrion2D(ldaApp(s.LDASmall, s), cfg, true)
	if err != nil {
		return nil, err
	}
	var series []metrics.Series
	for _, p := range []struct {
		name string
		r    *engine.Result
	}{
		{"Serial", serial},
		{"Data Parallelism", dp},
		{"Dep-Aware (unordered)", unordered},
		{"Dep-Aware (ordered)", ordered},
	} {
		it, _ := lossSeries(p.name, p.r)
		series = append(series, it)
	}
	body := metrics.FormatSeries("iteration", series)
	body += checkline(
		unordered.FinalLoss() <= dp.FinalLoss(),
		"dependence-aware LDA likelihood at least matches data parallelism")
	return &Report{ID: "fig9c", Title: "LDA (NYTimes-like): negative log-likelihood vs iteration", Body: body, Series: series}, nil
}

// Table3 reproduces Table 3: time per iteration under ordered vs
// unordered 2D parallelization (the paper reports 2.2X / 2.6X / 6.0X
// speedups for SGD MF / SGD MF AdaRev / LDA on 12 machines).
func Table3(s Scale) (*Report, error) {
	type target struct {
		name     string
		mk       func() engine.App
		passes   int
		overhead float64
	}
	targets := []target{
		{"SGD MF (Netflix-like)", func() engine.App { return mfApp(s, optim.NewSGD(s.MFLR)) }, min(4, s.MFPasses), 1},
		{"SGD MF AdaRev (Netflix-like)", func() engine.App { return mfApp(s, optim.NewAdaRev(s.AdaRevLR)) }, min(4, s.MFPasses), 1},
		{"LDA (NYTimes-like)", func() engine.App { return ldaApp(s.LDASmall, s) }, min(4, s.LDAPasses), s.OrionLDAOverhead},
	}
	var rows [][]string
	for _, tg := range targets {
		cfg := baseConfig(s, tg.passes)
		cfg.SkipLoss = true
		cfg.Cluster.ComputeOverhead = tg.overhead
		// At the paper's scale (rank 1000, 1000-topic LDA) rotated
		// partitions are large enough that communication rivals
		// compute; our reduced ranks shrink them, so scale bandwidth to
		// restore the paper's bytes-per-flop ratio. The unordered
		// schedule then hides this communication (Fig. 8) while the
		// wavefront cannot — the effect Table 3 measures.
		cfg.Cluster.BandwidthBps = rotationBoundBandwidth(tg.mk(), s, cfg.PipelineDepth, tg.overhead)
		ordered, err := engine.RunOrion2D(tg.mk(), cfg, true)
		if err != nil {
			return nil, err
		}
		unordered, err := engine.RunOrion2D(tg.mk(), cfg, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			tg.name,
			fmt.Sprintf("%.4g", ordered.TimePerIter()),
			fmt.Sprintf("%.4g", unordered.TimePerIter()),
			metrics.Speedup(ordered.TimePerIter(), unordered.TimePerIter()),
		})
	}
	body := metrics.Table([]string{"App", "Ordered (s/iter)", "Unordered (s/iter)", "Speedup"}, rows)
	return &Report{ID: "table3", Title: "Ordered vs unordered 2D parallelization", Body: body}, nil
}

func checkline(ok bool, what string) string {
	mark := "SHAPE OK"
	if !ok {
		mark = "SHAPE MISMATCH"
	}
	return fmt.Sprintf("[%s] %s\n", mark, what)
}

// mustKind runs the planner on a loop spec, returning
// NotParallelizable on error.
func mustKind(spec *ir.LoopSpec) sched.Kind {
	p, err := sched.New(spec, sched.DefaultOptions())
	if err != nil {
		return sched.NotParallelizable
	}
	return p.Kind
}
