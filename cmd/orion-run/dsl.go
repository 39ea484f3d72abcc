package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"orion/internal/check"
	"orion/internal/data"
	"orion/internal/diag"
	"orion/internal/driver"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// DSL renditions of the three parameter-server applications (the same
// loop bodies shipped in examples/). No Go kernels: the driver
// analyzes, plans, and ships each body to the executors, which run it
// on the bytecode VM.
const (
	mfDSL = `
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
	ldaDSL = `
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
	slrDSL = `
for (key, v) in samples
    idx = floor(v * 100) + 1
    w = weights[idx]
    margin = w * v
    g = sigmoid(margin) - 1
    w_buf[idx] += 0 - step_size * g
end
`
)

// dslConfig collects runDSL's knobs (one per -engine dsl flag).
type dslConfig struct {
	App        string // mf | lda | slr
	Transport  string // "" | inproc | tcp
	Workers    int
	Passes     int
	Report     bool   // print the per-worker report
	ReportJSON string // write the machine-readable report document here
	CkptDir    string
	CkptEvery  int64

	Adapt      bool    // adaptive re-planning at pass boundaries
	AdaptSkew  float64 // recut trigger (0 = analyzer default)
	SkewDemoUS float64 // synthetic straggler: µs/iteration delay on worker 0
	AssertDrop float64 // required fractional skew drop after a recut (0 = off)
	Grow       int     // grow the fleet to this size at the first boundary

	Heartbeat time.Duration // staleness bound for silent workers (0 = off)
}

// runDSL trains an application written purely in Orion's DSL on the
// real distributed runtime; loop bodies run on the bytecode VM. The
// transport is in-process by default; "tcp" runs the same executors
// over real sockets (loopback), which exercises the full wire protocol
// including trace collection. A
// non-empty CkptDir enables coordinated checkpointing (and in-loop
// recovery from worker loss); when the directory already holds a
// committed checkpoint from an earlier run of the same program,
// training warm-starts from it.
func runDSL(cfg dslConfig) error {
	app, workers, passes := cfg.App, cfg.Workers, cfg.Passes
	if workers <= 0 {
		workers = 4
	}
	var (
		sess *driver.Session
		err  error
	)
	switch cfg.Transport {
	case "", "inproc":
		sess, err = driver.NewLocalSession(workers)
	case "tcp":
		sess, err = driver.NewLocalSessionOver(runtime.TCP{}, "127.0.0.1:0", "127.0.0.1:0", workers)
	default:
		return fmt.Errorf("unknown -transport %q (inproc | tcp)", cfg.Transport)
	}
	if err != nil {
		return err
	}
	defer sess.Close()
	if cfg.ReportJSON != "" {
		// Written before Close (defers run LIFO) so a failed run still
		// leaves a partial report with the flight log's final events.
		defer func() {
			doc := &obs.ReportDoc{
				Loops:  sess.AllReports(),
				Peers:  obs.Default.PeerTraffic(),
				Flight: obs.Flight().Events(),
			}
			if werr := doc.WriteFile(cfg.ReportJSON); werr == nil {
				fmt.Fprintf(os.Stderr, "orion-run: report written to %s\n", cfg.ReportJSON)
			} else {
				fmt.Fprintf(os.Stderr, "orion-run: report-json: %v\n", werr)
			}
		}()
	}
	sess.SetCheckpointDir(cfg.CkptDir)
	sess.SetCheckpointEvery(cfg.CkptEvery)
	if cfg.Heartbeat > 0 {
		// Arms both staleness detection (a silent worker is declared
		// lost) and the step-stall bound that rescues wedged-but-alive
		// links (e.g. a desynced stream after hostile corruption).
		sess.SetHeartbeat(cfg.Heartbeat)
	}
	if cfg.Adapt {
		sess.SetAdapt(cfg.AdaptSkew)
	}
	if cfg.SkewDemoUS > 0 {
		// Synthetic straggler: pad worker 0's compute per iteration, so
		// the adaptive trigger has honest (measured) skew to react to.
		perIter := time.Duration(cfg.SkewDemoUS * float64(time.Microsecond))
		runtime.SetBlockDelay(func(execID, iters int) time.Duration {
			if execID == 0 {
				return time.Duration(iters) * perIter
			}
			return 0
		})
		defer runtime.SetBlockDelay(nil)
	}
	if cfg.Grow > 0 {
		if err := sess.Grow(cfg.Grow); err != nil {
			return err
		}
	}

	var (
		src        string
		metric     func() float64
		metricName string
	)
	defPasses := 4
	switch app {
	case "mf":
		const rows, cols, rank = 80, 60, 8
		ds := data.NewRatings(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 1500, Rank: rank, Noise: 0.05, Seed: 3})
		ratings := sess.CreateArray("ratings", false, rows, cols)
		for i := range ds.I {
			ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
		}
		rng := rand.New(rand.NewSource(1))
		sess.CreateArray("W", true, rank, rows).FillRandn(rng, 1.0/rank)
		sess.CreateArray("H", true, rank, cols).FillRandn(rng, 1.0)
		sess.SetGlobal("step_size", 0.02)
		src, metricName = mfDSL, "rmse"
		metric = func() float64 {
			r, w, h := sess.Array("ratings"), sess.Array("W"), sess.Array("H")
			var sum float64
			var n int
			r.ForEach(func(idx []int64, v float64) {
				wv, hv := w.Vec(idx[0]), h.Vec(idx[1])
				var pred float64
				for d := range wv {
					pred += wv[d] * hv[d]
				}
				sum += (pred - v) * (pred - v)
				n++
			})
			return math.Sqrt(sum / float64(n))
		}

	case "lda":
		const docs, vocab, topics = 120, 80, 6
		c := data.NewCorpus(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: topics, MeanDocLen: 30, Seed: 4})
		tokens := sess.CreateArray("tokens", false, docs, vocab)
		z := sess.CreateArray("z", false, docs, vocab)
		dt := sess.CreateArray("doc_topic", true, topics, docs)
		wt := sess.CreateArray("word_topic", true, topics, vocab)
		totals := sess.CreateArray("totals", true, topics)
		if err := sess.CreateBuffer("tot_buf", "totals"); err != nil {
			return err
		}
		i := 0
		for d, words := range c.Words {
			seen := map[int64]bool{}
			for _, w := range words {
				if seen[w] {
					continue
				}
				seen[w] = true
				tokens.SetAt(1, int64(d), w)
				topic := int64(i%topics) + 1
				z.SetAt(float64(topic), int64(d), w)
				dt.AddAt(1, topic-1, int64(d))
				wt.AddAt(1, topic-1, w)
				totals.AddAt(1, topic-1)
				i++
			}
		}
		sess.SetGlobal("K", topics)
		sess.SetGlobal("alpha", 0.5)
		sess.SetGlobal("beta", 0.1)
		sess.SetGlobal("vbeta", 0.1*vocab)
		src, metricName = ldaDSL, "log-likelihood"
		metric = func() float64 {
			dt, wt, totals := sess.Array("doc_topic"), sess.Array("word_topic"), sess.Array("totals")
			var ll float64
			for k := int64(0); k < topics; k++ {
				g, _ := math.Lgamma(totals.At(k) + 0.1*vocab)
				ll -= g
				for w := int64(0); w < vocab; w++ {
					g, _ := math.Lgamma(wt.At(k, w) + 0.1)
					ll += g
				}
				for d := int64(0); d < docs; d++ {
					g, _ := math.Lgamma(dt.At(k, d) + 0.5)
					ll += g
				}
			}
			return ll
		}

	case "slr":
		const samples, dim = 1000, 128
		rng := rand.New(rand.NewSource(7))
		xs := sess.CreateArray("samples", true, samples)
		xs.Map(func(float64) float64 { return rng.Float64() * 1.27 })
		sess.CreateArray("weights", true, dim)
		if err := sess.CreateBuffer("w_buf", "weights"); err != nil {
			return err
		}
		sess.SetGlobal("step_size", 0.05)
		src, metricName = slrDSL, "weights L2"
		metric = func() float64 {
			var sum float64
			sess.Array("weights").ForEach(func(_ []int64, v float64) { sum += v * v })
			return math.Sqrt(sum)
		}

	default:
		return fmt.Errorf("-engine dsl supports apps mf | lda | slr, not %q", app)
	}
	if passes <= 0 {
		passes = defPasses
	}

	if cfg.CkptDir != "" {
		if err := resumeFromCheckpoint(os.Stderr, sess, app, src, cfg.CkptDir); err != nil {
			return err
		}
	}

	fmt.Printf("dsl on %s: %d workers, %d passes\n", app, workers, passes)
	fmt.Printf("%-6s  %-14s\n", "pass", metricName)
	if cfg.Adapt || cfg.Grow > 0 {
		// Adaptive re-planning and elastic grow trigger at the loop
		// boundaries *inside* one ParallelFor, so the passes run as a
		// single multi-pass loop instead of one call per pass.
		if _, err := sess.ParallelFor(src, driver.Passes(passes)); err != nil {
			return renderWorkerLost(os.Stderr, app, src, err)
		}
		fmt.Printf("%-6d  %-14.6g\n", passes, metric())
		if cfg.Grow > 0 {
			fmt.Printf("fleet: %d workers\n", sess.Workers())
		}
		if err := reportAdaptTrail(os.Stdout, sess, cfg.AssertDrop); err != nil {
			return err
		}
	} else {
		for p := 1; p <= passes; p++ {
			if _, err := sess.ParallelFor(src); err != nil {
				return renderWorkerLost(os.Stderr, app, src, err)
			}
			fmt.Printf("%-6d  %-14.6g\n", p, metric())
		}
	}
	if cfg.Report {
		if r := sess.CombinedReport(); r != nil {
			fmt.Println()
			fmt.Print(r.Render())
		}
	}
	return nil
}

// reportAdaptTrail prints the adaptive re-planning decisions — one per
// evaluated pass boundary — and, when assertDrop > 0, fails unless the
// first recut cut the skew index by at least that fraction by the last
// boundary (the adapt-smoke gate).
func reportAdaptTrail(w io.Writer, sess *driver.Session, assertDrop float64) error {
	trail := sess.AdaptTrail()
	if len(trail) == 0 {
		if assertDrop > 0 {
			return fmt.Errorf("adapt: no boundaries evaluated (a recut needs at least 2 passes)")
		}
		return nil
	}
	fmt.Fprintf(w, "\nadaptive re-planning trail (skew = max/median segment compute):\n")
	firstRecut := -1
	for i, d := range trail {
		action := "kept cuts"
		if d.Recut {
			action = "recut partitions"
			if firstRecut < 0 {
				firstRecut = i
			}
		}
		fmt.Fprintf(w, "  boundary at pass %-3d  skew %-6.2f  %s\n", d.Pass, d.SkewIndex, action)
	}
	if assertDrop <= 0 {
		return nil
	}
	if firstRecut < 0 {
		return fmt.Errorf("adapt: skew never reached the recut threshold")
	}
	if firstRecut == len(trail)-1 {
		return fmt.Errorf("adapt: recut fell on the last boundary; no post-recut segment to judge (add passes)")
	}
	pre, post := trail[firstRecut].SkewIndex, trail[len(trail)-1].SkewIndex
	drop := 1 - post/pre
	fmt.Fprintf(w, "skew %.2fx -> %.2fx across the recut (%.0f%% drop)\n", pre, post, drop*100)
	if drop < assertDrop {
		return fmt.Errorf("adapt: skew dropped %.0f%%, below the required %.0f%%", drop*100, assertDrop*100)
	}
	return nil
}

// resumeFromCheckpoint warm-starts the session from the newest
// committed pass-boundary checkpoint in dir, if one exists: the
// snapshotted arrays replace the freshly initialized ones, so a rerun
// of a crashed (or simply interrupted) orion-run continues training
// instead of starting over. The manifest's plan fingerprint must match
// the current program's artifact — a positioned ORN303 rejects state
// from a different program. Mid-pass snapshots are skipped; they are
// only meaningful to in-loop recovery, which knows the exact ring
// phase they were cut at.
func resumeFromCheckpoint(w io.Writer, sess *driver.Session, app, src, dir string) error {
	mans, err := dsm.ListCheckpoints(dir)
	if err != nil || len(mans) == 0 {
		return err
	}
	art, err := sess.PlanArtifact(src)
	if err != nil {
		return err
	}
	for _, man := range mans {
		if man.ResumeStep != 0 {
			continue
		}
		file := app + ".dsl"
		pos := diag.Pos{File: file}
		if loop, perr := lang.Parse(src); perr == nil {
			pos.Line, pos.Col = loop.At.Line, loop.At.Col
		}
		if d := check.CheckResume(man.Loop, art.ContentHash, man.Fingerprint, pos); d != nil {
			var l diag.List
			l.Add(*d)
			diag.Render(w, l, map[string]string{file: src})
			return fmt.Errorf("resume rejected: %w", check.ErrResumeMismatch)
		}
		restored, err := dsm.RestoreCheckpoint(dir, man)
		if err != nil {
			return err
		}
		for _, a := range restored {
			sess.RegisterArray(a)
		}
		fmt.Fprintf(w, "orion-run: resumed %d arrays from checkpoint clock %d in %s\n",
			len(restored), man.Clock, dir)
		return nil
	}
	return nil
}

// renderWorkerLost turns a mid-loop executor loss into a positioned
// ORN301 diagnostic on the loop header, rendered to w with source
// context; any other ParallelFor error passes through untouched. The
// returned error is always non-nil, so orion-run exits non-zero instead
// of reporting the pass's partial results as success.
func renderWorkerLost(w io.Writer, app, src string, err error) error {
	if !errors.Is(err, runtime.ErrWorkerLost) {
		return err
	}
	file := app + ".dsl"
	pos := diag.Pos{File: file}
	if loop, perr := lang.Parse(src); perr == nil {
		pos.Line, pos.Col = loop.At.Line, loop.At.Col
	}
	var l diag.List
	l.Add(diag.Errorf(diag.CodeWorkerLost, pos,
		"the interrupted pass was not applied; restart the lost worker and rerun",
		"%v", err))
	diag.Render(w, l, map[string]string{file: src})
	return fmt.Errorf("run aborted: %w", err)
}
