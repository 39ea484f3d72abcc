package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"orion/internal/driver"
	"orion/internal/dslkernel"
	"orion/internal/dsm"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// runLayers is the --trace 1 run. Four phases train the same fixture
// from the same seed through the same first calls — an untraced
// session (the base every ratio below is taken against), a traced
// session, the harness's own replay of the driver's call sequence
// against the raw runtime, and a session over loopback TCP — and must
// agree on the arrays after pass digestAt. Then the serial baseline
// and the standalone public calls are timed.
func runLayers(w workload, cfg config) (metrics, *ops, error) {
	o := &ops{}
	m := metrics{}
	rec := newRecorder(w.name)

	base, art, err := untracedPhase(w, cfg, o, m)
	if err != nil {
		return nil, o, err
	}
	basePass := median(seconds(base.durs[cfg.layerWarm():]))
	m.set("driver.pass_s", basePass, "s")

	traced, err := tracedPhase(w, cfg, o, m, rec, basePass)
	if err != nil {
		return nil, o, err
	}
	sameState(w, o, "traced equals untraced", traced, base)

	replayed, def, err := replayPhase(w, cfg, o, m, rec, art, basePass)
	if err != nil {
		return nil, o, err
	}
	sameState(w, o, "replay equals Session.ParallelFor", replayed, base)

	tcp, err := tcpPhase(w, cfg, o, m)
	if err != nil {
		return nil, o, err
	}
	sameState(w, o, "tcp equals inproc", tcp, base)

	serial, err := runSerial(w, cfg, o)
	if err != nil {
		return nil, o, err
	}
	if w.ordered {
		sameState(w, o, "untraced equals serial", base, serial.trainLog)
	}
	serialPass := serialPassSeconds(serial.trainLog)
	m.set("vm.block_ns_per_iter", serialPass*1e9/float64(serial.iters), "ns")
	m.set("vm.allocs_per_iter", serial.allocsPerIter, "count")
	if goruntime.NumCPU() >= workers {
		m.set("driver.speedup_vs_serial", serialPass/basePass, "ratio")
	}

	slowdown, factor := hostState()
	m.set("go.two_thread_slowdown", slowdown, "ratio")
	m.set("go.host_factor", factor, "ratio")

	rec.setPhase("standalone")
	if err := standalone(w, cfg, o, m, rec, art, def); err != nil {
		return nil, o, err
	}

	path, err := rec.writeFile(cfg.outDir)
	if err != nil {
		return nil, o, err
	}
	fmt.Printf("# %s: %d spans written to %s\n", w.name, len(rec.spans), path)
	return m, o, nil
}

// untracedPhase is a plain session run: the program's tracer and the
// bench spans are off. It also yields the plan artifact the replay
// phase executes.
func untracedPhase(w workload, cfg config, o *ops, m metrics) (trainLog, *plan.Artifact, error) {
	f, sess, err := setup(w, cfg)
	if err != nil {
		return trainLog{}, nil, err
	}
	defer sess.Close()
	planned, err := sess.PlanArtifact(w.src)
	if err != nil {
		return trainLog{}, nil, err
	}
	// A copy, stamped with the backend verdict as the driver stamps its
	// own before shipping: the session keeps mutating the original.
	art := *planned
	if art.Backend, err = sess.KernelBackend(w.src); err != nil {
		return trainLog{}, nil, err
	}
	t := sessionTrainer(w, f, cfg, o, nil, sess, "untraced")
	if err := t.steps(cfg.layerWarm()); err != nil {
		return trainLog{}, nil, err
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	wire0 := sess.wire.snapshot()
	if err := t.steps(cfg.layerTimed()); err != nil {
		return trainLog{}, nil, err
	}
	wire := sess.wire.snapshot().sub(wire0)
	goruntime.ReadMemStats(&after)
	checkState(t)

	n := float64(cfg.layerTimed())
	m.set("runtime.wire_master_mb", float64(wire.masterBytes)/n/1e6, "MB")
	m.set("runtime.wire_peer_mb", float64(wire.peerBytes)/n/1e6, "MB")
	m.set("runtime.wire_writes", float64(wire.writes)/n, "count")
	m.set("go.alloc_mb_per_pass", float64(after.TotalAlloc-before.TotalAlloc)/n/1e6, "MB")
	m.set("go.gc_cpu_pct", after.GCCPUFraction*100, "%")
	return t.log, &art, nil
}

// tracedPhase runs a session with obs tracing on and a bench span
// around every Session call: digestAt single-pass calls, then one
// multi-pass call.
func tracedPhase(w workload, cfg config, o *ops, m metrics, rec *recorder, basePass float64) (trainLog, error) {
	tracer := obs.StartTracing()
	defer obs.StopTracing()
	rec.setPhase("traced")

	var (
		f    *fixture
		sess *session
		err  error
	)
	if _, err = rec.do("fixture.build", func() error { f = w.build(cfg.seed, cfg.smoke); return nil }); err != nil {
		return trainLog{}, err
	}
	if _, err = rec.do("driver.NewLocalSessionOver", func() error { sess, err = openSession(w, f, false); return err }); err != nil {
		return trainLog{}, err
	}
	defer sess.Close() // a second Close is a no-op
	if _, err = rec.do("driver.Session.PlanArtifact", func() error { _, err := sess.PlanArtifact(w.src); return err }); err != nil {
		return trainLog{}, err
	}

	t := sessionTrainer(w, f, cfg, o, rec, sess, "traced")
	t.span = "driver.Session.ParallelFor"
	if err := t.steps(cfg.digestAt()); err != nil {
		return trainLog{}, err
	}
	checkState(t)
	tracedPass := median(seconds(t.log.durs[cfg.layerWarm():]))

	n := cfg.multiPasses()
	multi, err := rec.do("driver.Session.ParallelFor(Passes)", func() error {
		_, err := sess.ParallelFor(w.src, w.options(driver.Passes(n))...)
		return err
	})
	o.record("traced multi-pass call", err)
	if err != nil {
		return trainLog{}, err
	}
	_, _ = rec.do("driver.Session.Close", func() error { sess.Close(); return nil })

	var spans int64
	for _, ev := range tracer.Events() {
		switch {
		case ev.Ph == "X":
			spans++
		case ev.Name == "spans_dropped":
			if c, ok := ev.Args["count"].(int64); ok {
				spans += c
			}
		}
	}
	multiPass := multi.Seconds() / float64(n)
	m.set("driver.first_pass_s", t.log.durs[0].Seconds(), "s")
	m.set("driver.multi_pass_s", multiPass, "s")
	m.set("driver.call_overhead_s", tracedPass-multiPass, "s")
	m.set("obs.trace_overhead_pct", (tracedPass/basePass-1)*100, "%")
	m.set("obs.spans_per_pass", float64(spans)/float64(cfg.digestAt()+n), "count")
	return t.log, nil
}

// tcpPhase repeats the untraced single-pass calls over loopback TCP,
// which isolates what sockets cost the same program.
func tcpPhase(w workload, cfg config, o *ops, m metrics) (trainLog, error) {
	f := w.build(cfg.seed, cfg.smoke)
	sess, err := openSession(w, f, true)
	if err != nil {
		return trainLog{}, err
	}
	defer sess.Close()
	t := sessionTrainer(w, f, cfg, o, nil, sess, "tcp")
	if err := t.steps(cfg.digestAt()); err != nil {
		return trainLog{}, err
	}
	m.set("runtime.tcp_pass_s", median(seconds(t.log.durs[cfg.layerWarm():])), "s")
	return t.log, nil
}

// replay drives the raw runtime the way internal/driver/exec.go does
// (runTwoD / runOneD / runTwoDOrdered): per call it flattens the
// iteration space, distributes every array per the plan, ships the
// loop, executes one pass and gathers everything back. The smoke test
// holds it to Session.ParallelFor's result, so it cannot drift from
// the driver silently.
type replay struct {
	w     workload
	rec   *recorder
	m     *runtime.Master
	execs []<-chan error

	art         *plan.Artifact
	pl          *sched.Plan
	space, time *sched.Partitioner
	def         runtime.Msg
	iter        *dsm.DistArray
	state       map[string]*dsm.DistArray
	seq         int

	// cycles holds, per cycle, the time spent in each layer.
	cycles []map[string]time.Duration
}

// replayArtifact turns the session's artifact into the one the driver
// executes. For an ordered loop the driver serves what the plan
// rotates and synthesizes the prefetch slice for those reads; neither
// is visible through Session.PlanArtifact, so both are redone here
// with the same public calls.
func replayArtifact(w workload, f *fixture, loop *lang.Loop, art *plan.Artifact) (*plan.Artifact, *sched.Plan, error) {
	a := *art
	pl, err := a.SchedPlan()
	if err != nil {
		return nil, nil, err
	}
	if !w.ordered {
		return &a, pl, nil
	}
	for i := range pl.Arrays {
		if pl.Arrays[i].Place == sched.Rotated {
			pl.Arrays[i].Place = sched.Served
		}
	}
	a.Prefetch = nil
	if targets := servedReads(&a.Loop, pl); len(targets) > 0 {
		cenv := compileEnv(f, loop)
		env := &lang.Env{Arrays: cenv.Arrays, Buffers: cenv.Buffers, Ordered: true}
		sliced, _, err := lang.PrefetchSlice(loop, env, targets...)
		if err == nil && len(sliced.Body) > 0 {
			a.Prefetch = &plan.Prefetch{Src: sliced.String(), Arrays: targets}
		}
	}
	return &a, pl, nil
}

// servedReads lists the served arrays the loop reads: the prefetch
// targets.
func servedReads(spec *ir.LoopSpec, pl *sched.Plan) []string {
	served := map[string]bool{}
	for _, ap := range pl.Arrays {
		served[ap.Array] = ap.Place == sched.Served
	}
	seen := map[string]bool{}
	var out []string
	for _, ref := range spec.Refs {
		if ref.IsWrite || ref.Array == spec.IterSpaceArray || seen[ref.Array] || !served[ref.Array] {
			continue
		}
		seen[ref.Array] = true
		out = append(out, ref.Array)
	}
	return out
}

func newReplay(w workload, f *fixture, rec *recorder, art *plan.Artifact) (*replay, error) {
	loop, err := lang.Parse(w.src)
	if err != nil {
		return nil, err
	}
	a, pl, err := replayArtifact(w, f, loop, art)
	if err != nil {
		return nil, err
	}
	r := &replay{w: w, rec: rec, art: a, pl: pl, iter: f.iterArray(), state: map[string]*dsm.DistArray{}}
	for _, arr := range f.arrays {
		r.state[arr.Name()] = arr
	}
	if r.space, err = a.Space.Partitioner(); err != nil {
		return nil, err
	}
	if !a.Time.IsZero() {
		if r.time, err = a.Time.Partitioner(); err != nil {
			return nil, err
		}
	}

	cenv := compileEnv(f, loop)
	r.def = runtime.Msg{
		LoopSrc:    a.LoopSrc,
		ArrayDims:  cenv.Arrays,
		Buffers:    cenv.Buffers,
		AccumNames: lang.Accumulators(loop),
		PlanBlob:   a.EncodeBinary(),
	}
	for g, v := range f.globals {
		r.def.GlobalNames = append(r.def.GlobalNames, g)
		r.def.GlobalVals = append(r.def.GlobalVals, v)
	}

	// The fleet: a master and two executors, started as
	// driver.NewLocalSessionOver starts them.
	dslkernel.Install()
	var tr runtime.Transport = runtime.NewInProc()
	addr := "replay-master"
	peer := func(i int) string { return fmt.Sprintf("replay-peer-%d", i) }
	if w.tcp {
		tr, addr = runtime.TCP{}, "127.0.0.1:0"
		peer = func(int) string { return "127.0.0.1:0" }
	}
	_, err = rec.do("runtime.Listen+NewExecutor", func() error {
		if r.m, err = runtime.Listen(tr, addr, workers); err != nil {
			return err
		}
		ready := make(chan error, 1)
		go func() { ready <- r.m.WaitForExecutors() }()
		for i := 0; i < workers; i++ {
			e, err := runtime.NewExecutor(tr, r.m.Addr(), peer(i), i)
			if err != nil {
				return err
			}
			r.execs = append(r.execs, e.Start())
		}
		return <-ready
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replay) close() {
	r.m.Shutdown()
	for _, d := range r.execs {
		<-d
	}
}

func boundaries(p *sched.Partitioner) []int64 {
	out := make([]int64, 0, workers-1)
	for k := 0; k < workers-1; k++ {
		_, hi := p.Bounds(k)
		out = append(out, hi)
	}
	return out
}

// cycle is one distribute → define → execute → gather round: what one
// Session.ParallelFor(src) call does below the plan cache.
func (r *replay) cycle() error {
	sums := map[string]time.Duration{}
	r.cycles = append(r.cycles, sums)
	layer := func(metric, call string, f func() error) error {
		d, err := r.rec.do(call, f)
		sums[metric] += d
		return err
	}

	var samples []runtime.IterSample
	_ = layer("driver.iter_samples_s", "dsm.DistArray.ForEach", func() error {
		r.iter.ForEach(func(idx []int64, v float64) {
			samples = append(samples, runtime.IterSample{Key: append([]int64(nil), idx...), Val: v})
		})
		return nil
	})

	var gathered []string
	for _, ap := range r.pl.Arrays {
		if ap.Array == r.art.Loop.IterSpaceArray {
			continue
		}
		arr := r.state[ap.Array]
		var err error
		switch ap.Place {
		case sched.Local:
			err = layer("runtime.distribute_arrays_s", "runtime.Master.DistributeLocal", func() error {
				return r.m.DistributeLocal(arr, ap.PartDim, boundaries(r.space))
			})
		case sched.Rotated:
			err = layer("runtime.distribute_arrays_s", "runtime.Master.DistributeRotatedAt", func() error {
				return r.m.DistributeRotatedAt(arr, ap.PartDim, boundaries(r.time), 0)
			})
		case sched.Served:
			err = layer("runtime.distribute_arrays_s", "runtime.Master.DistributeServed", func() error {
				return r.m.DistributeServed(arr)
			})
		}
		if err != nil {
			return err
		}
		gathered = append(gathered, ap.Array)
	}

	if err := layer("runtime.distribute_iterspace_s", "runtime.Master.DistributeIterSpace", func() error {
		return r.m.DistributeIterSpace(samples, r.pl.SpaceDim, r.space)
	}); err != nil {
		return err
	}

	r.seq++
	def := r.def
	def.LoopName = fmt.Sprintf("dsl-%s-%d", r.art.Loop.Name, r.seq)
	if err := layer("runtime.define_loop_s", "runtime.Master.DefineLoop", func() error {
		return r.m.DefineLoop(&def)
	}); err != nil {
		return err
	}

	loopDef := runtime.LoopDef{Kernel: def.LoopName, TimeDim: -1, Passes: 1}
	if r.pl.Kind == sched.TwoD {
		loopDef.TimeDim, loopDef.TimePart = r.pl.TimeDim, r.time
		loopDef.Rotate, loopDef.Ordered = !r.w.ordered, r.w.ordered
	}
	if err := layer("runtime.exec_s", "runtime.Master.ParallelFor", func() error {
		return r.m.ParallelFor(loopDef)
	}); err != nil {
		return err
	}

	for _, name := range gathered {
		if err := layer("runtime.gather_s", "runtime.Master.Gather", func() error {
			a, err := r.m.Gather(name)
			if err == nil {
				r.state[name] = a
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayPhase runs the replay for digestAt cycles and reports where a
// call's time goes, layer by layer.
func replayPhase(w workload, cfg config, o *ops, m metrics, rec *recorder, art *plan.Artifact, basePass float64) (trainLog, *runtime.Msg, error) {
	rec.setPhase("layers")
	f := w.build(cfg.seed, cfg.smoke)
	r, err := newReplay(w, f, rec, art)
	if err != nil {
		return trainLog{}, nil, err
	}
	defer r.close()

	t := &trainer{f: f, cfg: cfg, ops: o, rec: rec, tag: "replay", span: "replay.cycle",
		arr:  func(name string) *dsm.DistArray { return r.state[name] },
		pass: r.cycle}
	if err := t.steps(cfg.layerWarm()); err != nil {
		return trainLog{}, nil, err
	}
	report0, misses0 := r.m.CombinedReport(), r.m.Misses()
	if err := t.steps(cfg.layerTimed()); err != nil {
		return trainLog{}, nil, err
	}
	report := r.m.CombinedReport().Delta(report0)
	misses := r.m.Misses() - misses0
	checkState(t)

	n := float64(cfg.layerTimed())
	var attributed float64
	perCycle := map[string]float64{}
	for _, name := range []string{
		"driver.iter_samples_s", "runtime.distribute_arrays_s", "runtime.distribute_iterspace_s",
		"runtime.define_loop_s", "runtime.exec_s", "runtime.gather_s",
	} {
		var ds []time.Duration
		for _, c := range r.cycles[cfg.layerWarm():] {
			ds = append(ds, c[name])
		}
		perCycle[name] = median(seconds(ds))
		attributed += perCycle[name]
		m.set(name, perCycle[name], "s")
	}
	m.set("driver.unattributed_pct", (1-attributed/basePass)*100, "%")

	// Per pass, the slowest worker's share: a step waits for it.
	var compute, rotWait, comm, iters, blocks int64
	for _, ws := range report.Workers {
		compute, rotWait, comm = max(compute, ws.ComputeNs), max(rotWait, ws.RotWaitNs), max(comm, ws.CommNs)
		iters, blocks = max(iters, ws.Iters), max(blocks, ws.Blocks)
	}
	total := report.Total()
	m.set("runtime.compute_s", float64(compute)/1e9/n, "s")
	m.set("runtime.rot_wait_s", float64(rotWait)/1e9/n, "s")
	m.set("runtime.comm_s", float64(comm)/1e9/n, "s")
	m.set("runtime.busy_pct", 100*float64(total.ComputeNs)/float64(total.ComputeNs+total.RotWaitNs+total.CommNs), "%")
	m.set("runtime.blocks", float64(blocks)/n, "count")
	m.set("runtime.iters", float64(iters)/n, "count")
	m.set("runtime.exec_nonkernel_s", perCycle["runtime.exec_s"]-float64(compute)/1e9/n, "s")
	m.set("runtime.prefetch_misses", float64(misses)/n, "count")

	def := r.def
	def.LoopName = "standalone"
	return t.log, &def, nil
}
