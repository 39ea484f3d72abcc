package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"orion/examples"
	"orion/internal/check"
	"orion/internal/data"
	"orion/internal/diag"
	"orion/internal/driver"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// config collects run's knobs (one per flag).
type config struct {
	App        string // mf | lda | slr
	Transport  string // "" | inproc | tcp
	Workers    int
	Passes     int
	Report     bool   // print the per-worker report
	ReportJSON string // write the machine-readable report document here
	CkptDir    string
	CkptEvery  int64

	Adapt     bool    // adaptive re-planning at pass boundaries
	AdaptSkew float64 // recut trigger (0 = analyzer default)
	Grow      int     // grow the fleet to this size at the first boundary

	Heartbeat time.Duration // staleness bound for silent workers (0 = off)
}

// run trains an application written purely in Orion's DSL on the real
// distributed runtime; loop bodies run on the bytecode VM. The
// transport is in-process by default; "tcp" runs the same executors
// over real sockets (loopback), which exercises the full wire protocol
// including trace collection. A non-empty CkptDir enables coordinated
// checkpointing (and in-loop recovery from worker loss); when the
// directory already holds a committed checkpoint from an earlier run of
// the same program, training warm-starts from it.
func run(cfg config) error {
	app, workers, passes := cfg.App, cfg.Workers, cfg.Passes
	if workers < 1 || passes < 1 {
		return fmt.Errorf("-workers and -passes must be positive, not %d and %d", workers, passes)
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
	if cfg.Grow > 0 {
		if err := sess.Grow(cfg.Grow); err != nil {
			return err
		}
	}

	var (
		program    string
		metric     func() float64
		metricName string
	)
	switch app {
	case "mf":
		if err := examples.NewMF(data.RatingsConfig{Rows: 80, Cols: 60, NNZ: 1500, Rank: 8, Noise: 0.05, Seed: 3}).Register(sess); err != nil {
			return err
		}
		sess.SetGlobal("step_size", 0.02)
		program, metricName = examples.MF, "rmse"
		metric = func() float64 {
			r := sess.Array("ratings")
			return math.Sqrt(examples.MFLoss(r, sess.Array("W"), sess.Array("H")) / float64(r.Len()))
		}

	case "lda":
		if err := examples.NewLDA(data.CorpusConfig{Docs: 120, Vocab: 80, Topics: 6, MeanDocLen: 30, Seed: 4}).Register(sess); err != nil {
			return err
		}
		program, metricName = examples.LDA, "log-likelihood"
		metric = func() float64 {
			return examples.LDALogLik(sess.Array("doc_topic"), sess.Array("word_topic"), sess.Array("totals"))
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
		program, metricName = examples.SLR, "weights L2"
		metric = func() float64 {
			var sum float64
			sess.Array("weights").ForEach(func(_ []int64, v float64) { sum += v * v })
			return math.Sqrt(sum)
		}

	default:
		return fmt.Errorf("unknown -app %q (mf | lda | slr)", app)
	}
	// Only the loop ships: the arrays and globals it names were created
	// above, at this run's sizes, whatever the file's preamble declares.
	prog, err := lang.ParseProgram(program)
	if err != nil {
		return err
	}
	src := prog.LoopSrc

	if cfg.CkptDir != "" {
		if err := resumeFromCheckpoint(os.Stderr, sess, app, src, cfg.CkptDir); err != nil {
			return err
		}
	}

	fmt.Printf("%s: %d workers, %d passes\n", app, workers, passes)
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
		reportAdaptTrail(os.Stdout, sess)
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

// reportAdaptTrail prints the adaptive re-planning decisions, one per
// evaluated pass boundary.
func reportAdaptTrail(w io.Writer, sess *driver.Session) {
	trail := sess.AdaptTrail()
	if len(trail) == 0 {
		return
	}
	fmt.Fprintf(w, "\nadaptive re-planning trail (skew = max/median segment compute):\n")
	for _, d := range trail {
		action := "kept cuts"
		if d.Recut {
			action = "recut partitions"
		}
		fmt.Fprintf(w, "  boundary at pass %-3d  skew %-6.2f  %s\n", d.Pass, d.SkewIndex, action)
	}
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
