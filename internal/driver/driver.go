// Package driver is Orion's driver-program API (Fig. 3): it ties the
// whole pipeline together so an application is nothing more than
// DistArray declarations plus serial loop source:
//
//	sess, _ := driver.NewLocalSession(4)
//	defer sess.Close()
//	sess.CreateArray("ratings", false, rows, cols)   // ... fill ...
//	sess.CreateArray("W", true, rank, rows)
//	sess.CreateArray("H", true, rank, cols)
//	sess.SetGlobal("step_size", 0.01)
//	sess.ParallelFor(src, driver.Passes(10))         // @parallel_for
//
// ParallelFor parses the loop, statically extracts its access pattern,
// computes dependence vectors, picks a dependence-preserving plan,
// distributes the DistArrays accordingly (space-local, rotated, or
// parameter-server-served with a *synthesized* bulk-prefetch function)
// and executes on the distributed runtime, where the arrays stay until
// the driver program reads one back (Session.Array, resident.go).
package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orion/internal/check"
	"orion/internal/dep"
	"orion/internal/diag"
	"orion/internal/dslkernel"
	"orion/internal/dsm"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/obs"
	"orion/internal/obs/analyze"
	"orion/internal/plan"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// Session is one driver program's connection to an Orion cluster.
type Session struct {
	transport runtime.Transport
	master    *runtime.Master
	execDone  []<-chan error

	n       int
	env     *lang.Env
	arrays  map[string]*dsm.DistArray
	globals map[string]float64
	backend string

	loopSeq atomic.Int64
	mu      sync.Mutex
	closed  bool

	lastDiags diag.List
	// lastKernel is the runtime kernel name of the most recent
	// ParallelFor (each call defines a fresh loop), keyed into the
	// master's per-loop execution reports.
	lastKernel string

	// planMem memoizes compiled plans within the session; planDisk
	// (enabled by SetPlanCacheDir) persists artifacts across sessions.
	planMem  map[string]*compiledLoop
	planDisk *plan.Cache

	// Fault tolerance: checkpointDir/Every configure coordinated
	// loop-boundary checkpoints; maxRestarts bounds recovery attempts
	// per ParallelFor; minWorkers/rejoinWait tune TCP fleet re-forming
	// (SetRejoin). spawnExec (local sessions) respawns one in-process
	// executor for generation `generation`. accumBase carries
	// accumulator totals from before the last restore, so Accumulate
	// stays exact across recoveries.
	checkpointDir   string
	checkpointEvery int64
	maxRestarts     int
	minWorkers      int
	rejoinWait      time.Duration
	spawnExec       func(i int) (<-chan error, error)
	generation      atomic.Int64
	accumBase       map[string]float64
	recoveries      atomic.Int64

	// Reconfiguration triggers (adapt.go): adaptEnabled/adaptSkew arm
	// measurement-driven re-cutting at loop boundaries, growTarget arms
	// an elastic fleet grow, shrinkTarget arms a planned shrink at the
	// next loop entry, adaptProfile lets tests inject a deterministic
	// weight profile, and adaptTrail records decisions.
	// lastSpacePart is the space partitioner of the most recent attempt,
	// mapping coordinates to the workers that owned them in the profiled
	// segment.
	adaptEnabled  bool
	adaptSkew     float64
	adaptProfile  func(kernel string, delta *obs.LoopReport) *analyze.WeightProfile
	adaptTrail    []AdaptDecision
	growTarget    int
	shrinkTarget  int
	lastSpacePart *sched.Partitioner

	// iter and held record what the fleet holds: the iteration space and
	// the model arrays by name (resident.go).
	iter *resident
	held map[string]*resident
}

var sessionSeq atomic.Int64

// NewLocalSession starts a session with n executors in this process
// over the in-process transport. (For multi-process deployments, run
// cmd/orion-worker executors against a TCP master: loops reach them as
// source in DefineLoop, and the in-process path exercises identical
// protocol code.)
func NewLocalSession(n int) (*Session, error) {
	return NewLocalSessionOver(runtime.NewInProc(), "", "", n)
}

// NewLocalSessionOver starts a session with n in-process executors
// over an explicit transport — runtime.TCP{} to exercise real sockets
// from one process, or a runtime.Chaos wrapper to inject scripted
// faults. masterAddr and peerAddr may be empty for generated
// in-process names; TCP transports should pass "127.0.0.1:0" for both
// (each executor resolves its own port). Worker-loss recovery respawns
// executors through the same transport.
func NewLocalSessionOver(tr runtime.Transport, masterAddr, peerAddr string, n int) (*Session, error) {
	if n <= 0 {
		return nil, fmt.Errorf("driver: need at least one executor")
	}
	dslkernel.Install()
	id := sessionSeq.Add(1)
	if masterAddr == "" {
		masterAddr = fmt.Sprintf("session-%d-master", id)
	}
	m, err := runtime.Listen(tr, masterAddr, n)
	if err != nil {
		return nil, err
	}
	s := newSession(tr, m, n)
	s.spawnExec = func(i int) (<-chan error, error) {
		pa := peerAddr
		if pa == "" {
			pa = fmt.Sprintf("session-%d-peer-%d-g%d", id, i, s.generation.Load())
		}
		e, err := runtime.NewExecutor(tr, s.master.Addr(), pa, i)
		if err != nil {
			return nil, err
		}
		return e.Start(), nil
	}
	if err := s.bringUp(n); err != nil {
		return nil, err
	}
	return s, nil
}

// NewTCPSession listens on addr for n executor processes — typically
// cmd/orion-worker instances, which carry the DSL compiler and need no
// per-application code. Read Addr for the bound address (useful with
// ":0"), start the workers, then call WaitForWorkers.
func NewTCPSession(addr string, n int) (*Session, error) {
	if n <= 0 {
		return nil, fmt.Errorf("driver: need at least one executor")
	}
	dslkernel.Install()
	m, err := runtime.Listen(runtime.TCP{}, addr, n)
	if err != nil {
		return nil, err
	}
	return newSession(runtime.TCP{}, m, n), nil
}

// WaitForWorkers blocks until all executors have registered (TCP
// sessions; local sessions return immediately ready).
func (s *Session) WaitForWorkers() error { return s.master.WaitForExecutors() }

// Addr returns the master's bound listen address (useful with ":0").
func (s *Session) Addr() string { return s.master.Addr() }

func newSession(tr runtime.Transport, m *runtime.Master, n int) *Session {
	s := &Session{
		transport:   tr,
		master:      m,
		n:           n,
		env:         &lang.Env{Arrays: map[string][]int64{}, Buffers: map[string]string{}},
		arrays:      map[string]*dsm.DistArray{},
		globals:     map[string]float64{},
		planMem:     map[string]*compiledLoop{},
		held:        map[string]*resident{},
		maxRestarts: 2,
		rejoinWait:  10 * time.Second,
		accumBase:   map[string]float64{},
	}
	// The /report metrics endpoint serves whatever the newest session
	// has accumulated.
	obs.SetReportSource(s.AllReports)
	return s
}

// SetCheckpointDir enables coordinated checkpointing: every qualifying
// ParallelFor writes consistent loop-boundary snapshots (DistArray
// state + loop clock + plan fingerprint) into versioned manifests
// under dir, and a worker loss recovers from the latest one instead of
// failing fast with ORN301. Empty disables (the default).
func (s *Session) SetCheckpointDir(dir string) { s.checkpointDir = dir }

// SetCheckpointEvery checkpoints every n completed global steps
// (clocks); n <= 0 restores the default of checkpointing at pass
// boundaries only.
func (s *Session) SetCheckpointEvery(n int64) { s.checkpointEvery = n }

// SetMaxRestarts bounds recovery attempts per ParallelFor call
// (default 2); past the bound the worker loss surfaces as the usual
// ORN301 fail-fast error.
func (s *Session) SetMaxRestarts(n int) { s.maxRestarts = n }

// SetRejoin tunes TCP fleet re-forming after a worker loss: recovery
// waits up to `wait` for workers to reconnect and proceeds — possibly
// on a shrunken fleet, re-partitioning the lost worker's blocks onto
// the survivors — once at least `min` are back. min <= 0 requires the
// full fleet.
func (s *Session) SetRejoin(min int, wait time.Duration) {
	s.minWorkers = min
	if wait > 0 {
		s.rejoinWait = wait
	}
}

// SetHeartbeat arms worker staleness detection: an executor silent for
// longer than timeout mid-loop is treated as lost (see
// runtime.Master.SetHeartbeat).
func (s *Session) SetHeartbeat(timeout time.Duration) { s.master.SetHeartbeat(timeout) }

// SetClockHook observes the master's global step clock before each
// step is dispatched — the hook the chaos harness drives fault scripts
// from.
func (s *Session) SetClockHook(fn func(clock int64)) { s.master.SetClockHook(fn) }

// Clock returns the number of completed global steps across all loops.
func (s *Session) Clock() int64 { return s.master.Clock() }

// Recoveries returns how many worker-loss recoveries this session has
// performed.
func (s *Session) Recoveries() int64 { return s.recoveries.Load() }

// Workers returns the current fleet size (it can shrink when recovery
// re-forms a TCP fleet from the survivors).
func (s *Session) Workers() int { return s.n }

// CreateArray declares a DistArray and returns it for driver-side
// initialization (loading data, random init). The returned copy is
// current until a ParallelFor writes the array; after one, ask Array.
func (s *Session) CreateArray(name string, dense bool, dims ...int64) *dsm.DistArray {
	a := dsm.NewSparse(name, dims...)
	if dense {
		a = dsm.NewDense(name, dims...)
	}
	s.RegisterArray(a)
	return a
}

// CreateBuffer declares a DistArray Buffer over target; writes through
// it in loop bodies are exempt from dependence analysis (Section 3.3).
func (s *Session) CreateBuffer(name, target string) error {
	if _, ok := s.env.Arrays[target]; !ok {
		return fmt.Errorf("driver: buffer %q targets unknown array %q", name, target)
	}
	s.env.Buffers[name] = target
	return nil
}

// SetGlobal binds a driver variable visible (read-only) to loop bodies.
func (s *Session) SetGlobal(name string, v float64) { s.globals[name] = v }

// SetBackend pins the loop-execution backend shipped with every
// subsequent ParallelFor: "" (default: bytecode VM, falling back to the
// interpreter), "vm" (register bytecode VM; falling back becomes an
// error), or "interp" (force the tree-walking interpreter — the
// reference semantics, useful for bisecting a suspected compiler bug).
func (s *Session) SetBackend(backend string) error {
	switch backend {
	case "", "vm", "interp":
		s.backend = backend
		return nil
	}
	return fmt.Errorf("driver: unknown backend %q (want \"\", \"vm\", or \"interp\")", backend)
}

// Backend returns the pinned loop-execution backend ("" = automatic).
func (s *Session) Backend() string { return s.backend }

// KernelBackend reports which backend the executors will run the given
// loop source on under the current session configuration, without
// executing anything: "vm" or "interp". The decision is the same
// deterministic compile verdict every worker reaches.
func (s *Session) KernelBackend(src string) (string, error) {
	loop, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	return s.kernelBackend(loop)
}

func (s *Session) kernelBackend(loop *lang.Loop) (string, error) {
	if s.backend == "interp" {
		return "interp", nil
	}
	globals := make([]string, 0, len(s.globals))
	for g := range s.globals {
		globals = append(globals, g)
	}
	globals = append(globals, lang.Accumulators(loop)...)
	_, err := vm.Compile(loop, &lang.CompileEnv{
		Arrays:  s.env.Arrays,
		Buffers: s.env.Buffers,
		Globals: globals,
	})
	if err == nil {
		return "vm", nil
	}
	var nce *lang.NotCompilableError
	if !errors.As(err, &nce) {
		return "", err
	}
	if s.backend == "vm" {
		return "", fmt.Errorf("driver: backend=vm requested: %w", err)
	}
	return "interp", nil
}

// Option tunes a ParallelFor call.
type Option func(*pfOpts)

type pfOpts struct {
	passes  int
	ordered bool
}

// Passes sets the number of full data passes (default 1).
func Passes(n int) Option { return func(o *pfOpts) { o.passes = n } }

// Ordered requires lexicographic iteration order.
func Ordered() Option { return func(o *pfOpts) { o.ordered = true } }

// vet runs the static diagnostics engine over loop source, recording
// the full diagnostic list on the session (Diagnostics).
func (s *Session) vet(src string) (*check.Result, error) {
	loop, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	sopts := s.schedOptions()
	globals := make([]string, 0, len(s.globals))
	for g := range s.globals {
		globals = append(globals, g)
	}
	sort.Strings(globals)
	res := check.Run(loop, s.env, check.Options{Globals: globals, Sched: sopts})
	s.lastDiags = res.Diags
	return res, res.Diags.Err()
}

// Diagnostics returns the full diagnostic list — including non-fatal
// warnings such as assumed-commutativity notes — from the most recent
// ParallelFor or PlanOf call.
func (s *Session) Diagnostics() diag.List { return s.lastDiags }

// LastReport returns the execution report (per-worker compute /
// rotation-wait / comm breakdown) of the most recent ParallelFor, or
// nil when no loop has run.
func (s *Session) LastReport() *obs.LoopReport {
	s.mu.Lock()
	kernel := s.lastKernel
	s.mu.Unlock()
	if kernel == "" {
		return nil
	}
	return s.master.Report(kernel)
}

// CombinedReport merges the execution reports of every loop this
// session has run (each ParallelFor defines a fresh loop kernel, so a
// multi-pass driver accumulates several). Nil when nothing has run.
func (s *Session) CombinedReport() *obs.LoopReport { return s.master.CombinedReport() }

// AllReports returns every loop's execution report, sorted by loop
// name — the machine-readable export behind orion-run -report-json and
// the /report metrics endpoint.
func (s *Session) AllReports() []*obs.LoopReport { return s.master.AllReports() }

// PlanOf runs only the static pipeline — parse, analyze, dependence
// vectors, plan — without executing; useful for inspection. Unlike
// ParallelFor it succeeds on a not-parallelizable loop (the verdict IS
// the result); it errors only when planning could not finish.
func (s *Session) PlanOf(src string) (*ir.LoopSpec, *dep.Set, *sched.Plan, error) {
	e, err := s.planFor(src, s.env.Ordered)
	if err != nil && (e == nil || e.plan == nil) {
		return nil, nil, nil, err
	}
	return e.spec, e.deps, e.plan, nil
}

// ParallelFor is @parallel_for: it analyzes, plans, and executes the
// loop on the distributed runtime, shipping only the arrays the
// executors do not already hold as the plan places them; what it writes
// stays there until Array fetches it. An unchanged program re-uses the
// session's cached plan artifact instead of re-running the pipeline.
func (s *Session) ParallelFor(src string, options ...Option) (*sched.Plan, error) {
	o := pfOpts{passes: 1}
	for _, opt := range options {
		opt(&o)
	}
	e, err := s.planFor(src, o.ordered)
	if err != nil && (e == nil || e.plan == nil) {
		return nil, err
	}

	// Every inherited (read-only driver) variable must have a value —
	// catching this here gives a clear error instead of a worker-side
	// kernel failure.
	accums := map[string]bool{}
	for _, a := range lang.Accumulators(e.loop) {
		accums[a] = true
	}
	for _, v := range e.spec.Inherited {
		if _, ok := s.globals[v]; !ok && !accums[v] {
			return nil, fmt.Errorf("driver: loop inherits %q but no global is set (SetGlobal)", v)
		}
	}

	// A guarded plan (ORN203) holds only when its runtime predicate
	// does; evaluate it once against the session's globals, and on
	// failure demote to a serial driver-side pass (ORN204) instead of
	// refusing the loop.
	if e.guard != nil {
		if ok, why := e.guard.Eval(s.globals); !ok {
			s.lastDiags.Add(diag.Infof(diag.CodeGuardDemoted, diag.Pos{},
				fmt.Sprintf("set the guard variables so that %s holds to run this loop in parallel", e.guard),
				"runtime guard %s failed (%s): loop %q demoted to a serial driver-side pass", e.guard, why, e.spec.Name))
			s.lastDiags.Sort()
			s.event("guard.demoted", e.spec.Name, fmt.Sprintf("guard %s failed: %s", e.guard, why))
			return e.plan, s.runDemoted(e, o.passes)
		}
	}

	switch e.plan.Kind {
	case sched.TwoD, sched.OneD, sched.Independent:
		return e.plan, s.run(e, o.passes)
	case sched.TwoDTransformed:
		return e.plan, fmt.Errorf("driver: transformed loops are not supported by the distributed runtime: %s (use the engine simulator)",
			e.evidence)
	default:
		return e.plan, fmt.Errorf("driver: loop is not parallelizable: %s; route the conflicting writes through a DistArray Buffer for data parallelism, or run serially",
			e.evidence)
	}
}

// Accumulate aggregates a loop-body accumulator across executors with
// +. After a recovery the respawned executors only hold contributions
// since the restored checkpoint; the checkpoint's own total (accumBase)
// covers everything before it, so the sum stays exact.
func (s *Session) Accumulate(name string) (float64, error) {
	v, err := s.master.AccumSum(name)
	if err != nil {
		return 0, err
	}
	return v + s.accumBase[name], nil
}

// Misses returns the cumulative count of prefetch-miss slow-path
// parameter fetches — zero when synthesized bulk prefetching covers
// every served read.
func (s *Session) Misses() int64 { return s.master.Misses() }

// Close shuts the session down. It first fetches, best effort, what only
// the fleet holds, so Array keeps answering, and when tracing is on pulls
// the spans still in remote workers' rings, so the merged trace covers
// the whole run.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.fetch("close") // what could not be fetched is on record as ORN301
	s.master.CollectTraces()
	s.master.Shutdown()
	for _, d := range s.execDone {
		<-d
	}
}

// Checkpoint writes the named DistArrays (all of the session's arrays
// when names is empty) to dir — the paper's per-N-passes fault
// tolerance pattern.
func (s *Session) Checkpoint(dir string, names ...string) error {
	if len(names) == 0 {
		for name := range s.arrays {
			names = append(names, name)
		}
	}
	arrs := make([]*dsm.DistArray, 0, len(names))
	for _, name := range names {
		a := s.Array(name)
		if a == nil {
			return fmt.Errorf("driver: checkpoint of unknown or lost array %q", name)
		}
		arrs = append(arrs, a)
	}
	return dsm.CheckpointDir(dir, arrs...)
}

// Restore replaces the session's copies of the named arrays with their
// checkpoints from dir.
func (s *Session) Restore(dir string, names ...string) error {
	restored, err := dsm.RestoreDir(dir, names...)
	if err != nil {
		return err
	}
	for name, a := range restored {
		if _, ok := s.env.Arrays[name]; !ok {
			return fmt.Errorf("driver: restoring undeclared array %q", name)
		}
		s.RegisterArray(a)
	}
	return nil
}

// CreateArrayFromTextFile declares a DistArray loaded from a text file
// through a user-defined line parser (Orion.text_file + materialize,
// Section 3.1). Transformations can be fused by building through
// dsm.FromTextFile directly and registering with RegisterArray.
func (s *Session) CreateArrayFromTextFile(name, path string, parser dsm.LineParser, dims ...int64) (*dsm.DistArray, error) {
	a, err := dsm.FromTextFile(name, path, parser, dims...).Materialize()
	if err != nil {
		return nil, err
	}
	s.RegisterArray(a)
	return a, nil
}

// RegisterArray adopts an externally built DistArray (e.g. from a
// dsm.Builder pipeline) into the session, replacing any of that name.
func (s *Session) RegisterArray(a *dsm.DistArray) {
	s.arrays[a.Name()] = a
	s.env.Arrays[a.Name()] = a.Dims()
	s.invalidate(a.Name())
}

// ArrayDim names one array and the dimension of it that carries a
// shared coordinate (e.g. the user id appears as ratings dim 0 and as W
// dim 1).
type ArrayDim struct {
	Name string
	Dim  int
}

// Randomize applies one random permutation to a shared coordinate that
// appears (possibly on different dimensions) in several arrays — the
// de-skewing operation of Section 4.3. The permutation is returned so
// callers can map results back to original ids.
func (s *Session) Randomize(seed int64, specs ...ArrayDim) ([]int64, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("driver: Randomize needs at least one array")
	}
	first := s.Array(specs[0].Name)
	if first == nil {
		return nil, fmt.Errorf("driver: unknown array %q", specs[0].Name)
	}
	extent := first.Dims()[specs[0].Dim]
	rng := rand.New(rand.NewSource(seed))
	permuted, perm := first.Randomize(specs[0].Dim, rng)
	s.RegisterArray(permuted)
	for _, spec := range specs[1:] {
		a := s.Array(spec.Name)
		if a == nil {
			return nil, fmt.Errorf("driver: unknown array %q", spec.Name)
		}
		if a.Dims()[spec.Dim] != extent {
			return nil, fmt.Errorf("driver: %q dim %d extent %d does not match the shared coordinate extent %d",
				spec.Name, spec.Dim, a.Dims()[spec.Dim], extent)
		}
		s.RegisterArray(a.Permute(spec.Dim, perm))
	}
	return perm, nil
}
