package bench

import (
	"fmt"

	"orion/internal/engine"
	"orion/internal/metrics"
	"orion/internal/optim"
)

// Fig10 reproduces Fig. 10: Orion vs Bösen.
//
//	(a) SGD MF AdaRev loss over time
//	(b) SGD MF AdaRev loss over iterations
//	(c) LDA (ClueWeb-like) loss over time
//
// Lines: manual data parallelism on Bösen (sync per pass), managed
// communication (+AdaRev for MF), Orion auto-parallelization (+AdaRev
// for MF).
func Fig10(s Scale) (*Report, error) {
	passes := s.MFPasses
	cfg := baseConfig(s, passes)

	dp := engine.RunDataParallel(mfApp(s, optim.NewSGD(s.DPLR)), cfg)
	cm := engine.RunManagedComm(mfApp(s, optim.NewAdaRev(s.AdaRevLR)), cfg)
	orion, err := engine.RunOrion2D(mfApp(s, optim.NewSGD(s.MFLR)), cfg, false)
	if err != nil {
		return nil, err
	}
	orionA, err := engine.RunOrion2D(mfApp(s, optim.NewAdaRev(s.AdaRevLR)), cfg, false)
	if err != nil {
		return nil, err
	}

	var iterSeries, timeSeries []metrics.Series
	for _, p := range []struct {
		name string
		r    *engine.Result
	}{
		{"Manual Data Parallelism (Bosen)", dp},
		{"Managed Comm + AdaRev (Bosen)", cm},
		{"Auto-Parallelization (Orion)", orion},
		{"Orion + AdaRev", orionA},
	} {
		it, tm := lossSeries(p.name, p.r)
		iterSeries = append(iterSeries, it)
		timeSeries = append(timeSeries, tm)
	}

	// (c) LDA on the larger corpus, over time.
	ldaPasses := s.LDAPasses
	lcfg := baseConfig(s, ldaPasses)
	lcfg.Cluster.ComputeOverhead = s.OrionLDAOverhead
	ldaDP := engine.RunDataParallel(ldaApp(s.LDABig, s), lcfg)
	ldaCM := engine.RunManagedComm(ldaApp(s.LDABig, s), lcfg)
	ldaOrion, err := engine.RunOrion2D(ldaApp(s.LDABig, s), lcfg, false)
	if err != nil {
		return nil, err
	}
	var ldaTime []metrics.Series
	for _, p := range []struct {
		name string
		r    *engine.Result
	}{
		{"LDA Manual Data Parallelism (Bosen)", ldaDP},
		{"LDA Managed Comm (Bosen)", ldaCM},
		{"LDA Auto-Parallelization (Orion)", ldaOrion},
	} {
		_, tm := lossSeries(p.name, p.r)
		ldaTime = append(ldaTime, tm)
	}

	body := "(a) SGD MF AdaRev, loss over simulated time:\n"
	body += metrics.FormatSeries("time(s)", timeSeries)
	body += "\n(b) SGD MF AdaRev, loss over iterations:\n"
	body += metrics.FormatSeries("iteration", iterSeries)
	body += "\n(c) LDA (ClueWeb-like), loss over simulated time:\n"
	body += metrics.FormatSeries("time(s)", ldaTime)
	body += checkline(orionA.FinalLoss() < dp.FinalLoss(),
		"Orion+AdaRev converges past plain Bösen data parallelism (iterations)")
	dpAdaRev := engine.RunDataParallel(mfApp(s, optim.NewAdaRev(s.AdaRevLR)), cfg)
	body += checkline(cm.FinalLoss() < dpAdaRev.FinalLoss(),
		"managed communication improves on data parallelism (same AdaRev rule)")
	body += checkline(ldaOrion.FinalLoss() <= ldaDP.FinalLoss(),
		"Orion LDA reaches at least Bösen-DP likelihood")
	all := append(append(timeSeries, iterSeries...), ldaTime...)
	return &Report{ID: "fig10", Title: "Orion vs Bösen convergence", Body: body, Series: all}, nil
}

// Fig11 reproduces Fig. 11: Orion vs STRADS (manual model parallelism).
//
//	(a) SGD MF AdaRev loss over time     — similar throughput, matching curve
//	(b) LDA loss over time               — STRADS faster per iteration
//	(c) LDA loss over iterations         — matching convergence
func Fig11(s Scale) (*Report, error) {
	passes := s.MFPasses
	cfg := baseConfig(s, passes)
	orionMF, err := engine.RunOrion2D(mfApp(s, optim.NewAdaRev(s.AdaRevLR)), cfg, false)
	if err != nil {
		return nil, err
	}
	stradsMF, err := engine.RunSTRADS(mfApp(s, optim.NewAdaRev(s.AdaRevLR)), cfg)
	if err != nil {
		return nil, err
	}

	lcfg := baseConfig(s, s.LDAPasses)
	lcfg.Cluster.ComputeOverhead = s.OrionLDAOverhead // Julia marshalling penalty
	orionLDA, err := engine.RunOrion2D(ldaApp(s.LDABig, s), lcfg, false)
	if err != nil {
		return nil, err
	}
	stradsLDA, err := engine.RunSTRADS(ldaApp(s.LDABig, s), lcfg)
	if err != nil {
		return nil, err
	}

	_, mfOrionT := lossSeries("Auto-Parallelization (Orion)", orionMF)
	_, mfStradsT := lossSeries("Manual Model Parallelism (STRADS)", stradsMF)
	ldaOrionI, ldaOrionT := lossSeries("Auto-Parallelization (Orion)", orionLDA)
	ldaStradsI, ldaStradsT := lossSeries("Manual Model Parallelism (STRADS)", stradsLDA)

	body := "(a) SGD MF AdaRev, loss over simulated time:\n"
	body += metrics.FormatSeries("time(s)", []metrics.Series{mfStradsT, mfOrionT})
	body += "\n(b) LDA (ClueWeb-like), loss over simulated time:\n"
	body += metrics.FormatSeries("time(s)", []metrics.Series{ldaStradsT, ldaOrionT})
	body += "\n(c) LDA (ClueWeb-like), loss over iterations:\n"
	body += metrics.FormatSeries("iteration", []metrics.Series{ldaStradsI, ldaOrionI})

	ratio := orionLDA.TimePerIter() / stradsLDA.TimePerIter()
	body += fmt.Sprintf("LDA time/iter: Orion %.4gs, STRADS %.4gs (Orion %.2fx slower; paper: 1.8x-4.0x)\n",
		orionLDA.TimePerIter(), stradsLDA.TimePerIter(), ratio)
	body += checkline(ratio > 1, "STRADS faster per iteration on LDA (pointer-swap comm + C++)")
	match := relDiff(orionLDA.FinalLoss(), stradsLDA.FinalLoss()) < 0.02
	body += checkline(match, "per-iteration convergence matches STRADS")
	return &Report{
		ID: "fig11", Title: "Orion vs STRADS convergence", Body: body,
		Series: []metrics.Series{mfStradsT, mfOrionT, ldaStradsT, ldaOrionT, ldaStradsI, ldaOrionI},
	}, nil
}

// Fig12 reproduces Fig. 12: network bandwidth usage over time for LDA
// on the NYTimes-like corpus — Bösen managed communication vs Orion.
func Fig12(s Scale) (*Report, error) {
	passes := min(4, s.LDAPasses)
	cfg := baseConfig(s, passes)
	cfg.Cluster.ComputeOverhead = s.OrionLDAOverhead

	// Pick a trace window that gives a readable number of samples.
	probe, err := engine.RunOrion2D(ldaApp(s.LDASmall, s), cfg, false)
	if err != nil {
		return nil, err
	}
	window := probe.Time[len(probe.Time)-1] / 40
	if window <= 0 {
		window = 0.001
	}
	cfg.TraceWindowSec = window

	cm := engine.RunManagedComm(ldaApp(s.LDASmall, s), cfg)
	orion, err := engine.RunOrion2D(ldaApp(s.LDASmall, s), cfg, false)
	if err != nil {
		return nil, err
	}
	toSeries := func(name string, r *engine.Result) metrics.Series {
		out := metrics.Series{Name: name}
		for _, p := range r.Trace.Series() {
			out.X = append(out.X, p.T)
			out.Y = append(out.Y, p.Mbps)
		}
		return out
	}
	cmS := metrics.Downsample(toSeries("Managed Comm (Bosen)", cm), 30)
	orS := metrics.Downsample(toSeries("Auto-Parallelization (Orion)", orion), 30)
	body := metrics.FormatSeries("time(s)", []metrics.Series{cmS, orS})
	body += fmt.Sprintf("total bytes: Bosen CM %d, Orion %d\n",
		cm.Trace.TotalBytes(), orion.Trace.TotalBytes())
	body += checkline(cm.Trace.TotalBytes() > orion.Trace.TotalBytes(),
		"managed communication uses substantially more bandwidth than Orion")
	return &Report{ID: "fig12", Title: "Bandwidth usage, LDA (NYTimes-like)", Body: body,
		Series: []metrics.Series{cmS, orS}}, nil
}

// Fig13 reproduces Fig. 13: Orion vs a TensorFlow-style dataflow system
// for SGD MF on a single machine.
//
//	(a) loss over time
//	(b) time per iteration for two mini-batch sizes
func Fig13(s Scale) (*Report, error) {
	passes := s.MFPasses
	// Single machine: all workers on one box.
	cfg := baseConfig(s, passes)
	cfg.Cluster.Machines = 1
	cfg.Cluster.WorkersPerMachine = s.Workers
	cfg.Workers = s.Workers

	orion, err := engine.RunOrion2D(mfApp(s, optim.NewSGD(s.MFLR)), cfg, false)
	if err != nil {
		return nil, err
	}

	n := mfApp(s, optim.NewSGD(s.MFLR)).NumSamples()
	bigBatch := n / 2
	smallBatch := n / 40
	if smallBatch < 1 {
		smallBatch = 1
	}
	mkTF := func(batch int) engine.Config {
		c := cfg
		c.MinibatchSize = batch
		// TF's dense operators do redundant work on sparse data; the
		// paper's net effect was Orion 2.2x faster per iteration.
		c.DenseComputeFactor = 4.0
		c.BatchFixedOverheadSec = 0.002
		c.UtilSaturationBatch = 16
		return c
	}
	tfBig := engine.RunDataflow(mfApp(s, optim.NewSGD(s.MFLR)), mkTF(bigBatch))
	tfSmall := engine.RunDataflow(mfApp(s, optim.NewSGD(s.MFLR)), mkTF(smallBatch))

	_, orionT := lossSeries("Orion", orion)
	_, tfT := lossSeries("TensorFlow-style", tfBig)
	body := "(a) loss over simulated time:\n"
	body += metrics.FormatSeries("time(s)", []metrics.Series{orionT, tfT})
	body += "\n(b) time per iteration:\n"
	body += metrics.Table([]string{"System", "Time/iter (s)"}, [][]string{
		{"Orion", fmt.Sprintf("%.4g", orion.TimePerIter())},
		{fmt.Sprintf("TF (batch %d)", bigBatch), fmt.Sprintf("%.4g", tfBig.TimePerIter())},
		{fmt.Sprintf("TF (batch %d)", smallBatch), fmt.Sprintf("%.4g", tfSmall.TimePerIter())},
	})
	body += checkline(orion.TimePerIter() < tfBig.TimePerIter(),
		"Orion has a faster per-iteration time than large-batch TF (paper: 2.2x)")
	body += checkline(tfSmall.TimePerIter() > tfBig.TimePerIter(),
		"smaller TF mini-batches are slower per iteration (under-utilized cores)")
	body += checkline(orion.FinalLoss() < tfBig.FinalLoss(),
		"Orion converges past TF at equal pass counts")
	return &Report{ID: "fig13", Title: "Orion vs TensorFlow-style dataflow, SGD MF", Body: body,
		Series: []metrics.Series{orionT, tfT}}, nil
}

// Prefetch reproduces the Section 6.3 bulk-prefetching experiment: SLR
// on a KDD2010-like dataset, per-iteration time with (1) per-access
// remote reads, (2) synthesized bulk prefetching, and (3) bulk
// prefetching with cached prefetch indices. The paper measured 7682 s /
// 9.2 s / 6.3 s on one machine.
func Prefetch(s Scale) (*Report, error) {
	app := slrApp(s)
	n := app.NumSamples()
	nnz := app.AvgNNZ()
	// This experiment is single-machine (like the paper's): use a
	// realistic core speed rather than the deliberately slowed
	// distributed cost model, since the effect being measured is the
	// RTT-to-compute ratio.
	c := s.Cluster
	c.FlopsPerSec = 2e9
	workers := s.Cluster.WorkersPerMachine

	// Per-pass kernel compute.
	compute := c.ComputeTime(float64(n)*app.FlopsPerSample()) / float64(workers)
	// Index computation: re-executing the subscript slice of the loop
	// body (the synthesized prefetch function) costs a fraction of the
	// kernel — the subscripts are most of SLR's per-sample work.
	indexCompute := 0.45 * compute

	rowBytes := int64(8)
	// Each unbatched read pays an inter-process round trip. The paper's
	// Julia workers talk to server processes over local sockets; ~100us
	// per round trip matches its 7682s pass over ~20M reads.
	const ipcRoundTrip = 100e-6
	// (1) No prefetching: every weight read is one round trip.
	reads := float64(n) * nnz / float64(workers)
	noPrefetch := compute + reads*(ipcRoundTrip+float64(rowBytes)*8/c.BandwidthBps)
	// (2) Bulk prefetching: one batched fetch per worker per pass.
	bulkBytes := int64(float64(n) * nnz / float64(workers) * float64(rowBytes))
	withPrefetch := compute + indexCompute + c.TransferTime(bulkBytes, false)
	// (3) Cached prefetch indices: skip re-running the synthesized
	// function after the first pass.
	withCache := compute + c.TransferTime(bulkBytes, false)

	body := metrics.Table([]string{"Configuration", "Time/iter (s, simulated)", "Paper (s)"}, [][]string{
		{"No prefetching (per-access remote reads)", fmt.Sprintf("%.4g", noPrefetch), "7682"},
		{"Bulk prefetching", fmt.Sprintf("%.4g", withPrefetch), "9.2"},
		{"Bulk prefetching + cached indices", fmt.Sprintf("%.4g", withCache), "6.3"},
	})
	body += checkline(noPrefetch/withPrefetch > 100,
		"bulk prefetching wins by orders of magnitude")
	body += checkline(withCache < withPrefetch,
		"caching prefetch indices trims the remaining overhead")
	return &Report{ID: "prefetch", Title: "SLR (KDD2010-like) bulk prefetching", Body: body}, nil
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// Tux2 reproduces the Section 6.1 comparison with TuX²-style graph
// engines: a dependence-violating data-parallel engine with minimal
// scheduling overhead achieves a *higher computation throughput* (lower
// time per iteration) than Orion, but a far worse *overall convergence
// rate* (time to reach a loss target), because it needs many more
// passes. (TuX² itself is closed source; any dependence-violating
// high-throughput engine produces this shape — DESIGN.md.)
func Tux2(s Scale) (*Report, error) {
	passes := s.MFPasses * 2
	cfg := baseConfig(s, passes)

	// The graph engine: data parallelism, per-pass sync, C++-grade
	// runtime (no compute overhead beyond the base model).
	tux := engine.RunDataParallel(mfApp(s, optim.NewSGD(s.DPLR)), cfg)
	orion, err := engine.RunOrion2D(mfApp(s, optim.NewSGD(s.MFLR)), cfg, false)
	if err != nil {
		return nil, err
	}

	// Target: a deep loss level (what Orion reaches at 90% of its
	// passes). Dependence violation costs little early but caps late
	// convergence — the paper's TuX² comparison is exactly this
	// regime (Orion reached 8.3e7 while TuX² plateaued near 7e10).
	target := orion.Loss[passes*9/10]
	body := metrics.Table([]string{"System", "Time/iter (s)", "Iters to target", "Time to target (s)"}, [][]string{
		{"TuX2-style graph engine", fmt.Sprintf("%.4g", tux.TimePerIter()),
			itersStr(tux.ItersToLoss(target)), timeStr(tux.TimeToLoss(target))},
		{"Orion", fmt.Sprintf("%.4g", orion.TimePerIter()),
			itersStr(orion.ItersToLoss(target)), timeStr(orion.TimeToLoss(target))},
	})
	body += fmt.Sprintf("loss target: %.6g (paper: TuX2 ~2x faster per iteration; Orion ~9x faster to target)\n", target)
	body += checkline(tux.TimePerIter() < orion.TimePerIter(),
		"the dependence-violating engine has higher raw throughput")
	body += checkline(orion.TimeToLoss(target) < tux.TimeToLoss(target),
		"Orion reaches the loss target sooner despite lower throughput")
	return &Report{ID: "tux2", Title: "Throughput vs overall convergence (TuX²-style engine)", Body: body}, nil
}

func itersStr(v int) string {
	if v < 0 {
		return "never"
	}
	return fmt.Sprintf("%d", v)
}

func timeStr(v float64) string {
	if v > 1e300 {
		return "never"
	}
	return fmt.Sprintf("%.4g", v)
}
