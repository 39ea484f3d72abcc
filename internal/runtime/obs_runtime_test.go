package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"orion/internal/obs"
	"orion/internal/sched"
)

// TestGoldenTraceMFLoop runs a small MF rotation loop with tracing on
// and checks the emitted Chrome trace-event JSON: valid format, the
// expected span hierarchy (clock.step ⊇ exec.block ⊇ rotate.*), and
// monotonically non-decreasing timestamps.
func TestGoldenTraceMFLoop(t *testing.T) {
	tr := obs.StartTracing()
	defer obs.StopTracing()

	n, passes := 2, 1
	ipc := NewInProc()
	_, _, _, m := runDistributedMF(t, ipc, "trace-master", func(i int) string {
		return fmt.Sprintf("trace-peer-%d", i)
	}, n, passes)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}

	// Timestamps must be emitted in non-decreasing order (within the
	// span events; metadata events lead the file).
	byName := map[string][]obs.TraceEvent{}
	lastTs := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < lastTs {
			t.Fatalf("timestamps not monotonic: %v after %v (%s)", ev.Ts, lastTs, ev.Name)
		}
		lastTs = ev.Ts
		byName[ev.Name] = append(byName[ev.Name], ev)
	}

	for _, want := range []string{"clock.step", "exec.block", "exec.kernel", "rotate.send", "rotate.recv"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace missing %q spans; have %v", want, names(byName))
		}
	}
	// The rotation schedule runs n steps per pass with a block on each
	// of the n executors per step.
	if got := len(byName["clock.step"]); got != n*passes {
		t.Fatalf("clock.step spans = %d, want %d", got, n*passes)
	}
	if got := len(byName["exec.block"]); got != n*n*passes {
		t.Fatalf("exec.block spans = %d, want %d", got, n*n*passes)
	}

	contains := func(outer, inner obs.TraceEvent) bool {
		const eps = 0.01 // µs rounding slack
		return outer.Ts-eps <= inner.Ts && inner.Ts+inner.Dur <= outer.Ts+outer.Dur+eps
	}
	// Every executor block must nest inside a master clock step, and
	// every rotation span inside a block on the same thread track.
	for _, blk := range byName["exec.block"] {
		ok := false
		for _, step := range byName["clock.step"] {
			if contains(step, blk) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("exec.block at %v µs not contained in any clock.step", blk.Ts)
		}
	}
	for _, name := range []string{"rotate.send", "rotate.recv", "exec.kernel"} {
		for _, rot := range byName[name] {
			ok := false
			for _, blk := range byName["exec.block"] {
				if blk.Tid == rot.Tid && blk.Pid == rot.Pid && contains(blk, rot) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s span at %v µs not contained in an exec.block on its track", name, rot.Ts)
			}
		}
	}

	// The per-loop execution report must cover both workers with real
	// compute time and the right iteration total (300 samples × passes).
	rep := m.Report("rt_mf")
	if rep == nil {
		t.Fatal("master has no report for rt_mf")
	}
	if len(rep.Workers) != n {
		t.Fatalf("report covers %d workers, want %d", len(rep.Workers), n)
	}
	total := rep.Total()
	if total.Iters != int64(300*passes) {
		t.Fatalf("report iters = %d, want %d", total.Iters, 300*passes)
	}
	if total.ComputeNs <= 0 {
		t.Fatalf("report compute time = %d ns, want > 0", total.ComputeNs)
	}
	if rendered := rep.Render(); len(rendered) == 0 {
		t.Fatal("report renders empty")
	}
	if m.CombinedReport() == nil {
		t.Fatal("combined report is nil")
	}
}

func names(m map[string][]obs.TraceEvent) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestExecutorLossUnblocksParallelFor kills one executor mid-block and
// asserts the master surfaces ErrWorkerLost instead of hanging on the
// step barrier (the orion-run exit-code fix depends on this).
func TestExecutorLossUnblocksParallelFor(t *testing.T) {
	loops := testLoops{"rt_die": {Block: perSample(func(ctx *Ctx, key []int64, val float64) {
		if ctx.ExecutorID() == 1 {
			// Kill the executor's goroutine outright — the moral
			// equivalent of the worker process dying. Deferred cleanup
			// still runs, closing its connections.
			goruntime.Goexit()
		}
	})}}
	n := 2
	// Deliberately no stopping the fleet, which waits on every exit — the
	// killed executor's goroutine never reports back.
	m, _, _ := startFleet(t, "die", n, loops.compile)
	_, samples := servedFixture()
	if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), n)); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "rt_die"}); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- m.ParallelFor(LoopDef{Kernel: "rt_die", TimeDim: -1, Passes: 1})
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("ParallelFor succeeded despite a dead worker")
		}
		if !errors.Is(err, ErrWorkerLost) {
			t.Fatalf("error %v does not wrap ErrWorkerLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ParallelFor hung after worker death")
	}
	m.Shutdown()
}

// The obs primitives the executor block loop calls must not allocate
// when tracing is disabled (nil TraceBuf, registry-backed counters),
// preserving the PR 2 steady-state allocation discipline.
func TestObsDisabledExecInstrumentationAllocFree(t *testing.T) {
	e := &Executor{
		trace:    nil,
		mBlocks:  obs.GetCounter("kernel.blocks"),
		mIters:   obs.GetCounter("kernel.iterations"),
		mRotWait: obs.GetHistogram("rotation.wait.ns"),
	}
	allocs := testing.AllocsPerRun(200, func() {
		blockStart := time.Now()
		kernelStart := time.Now()
		e.trace.EndN("exec.kernel", "exec", kernelStart, "iters", 128)
		e.mBlocks.Inc()
		e.mIters.Add(128)
		e.mRotWait.Observe(0)
		e.trace.EndNN("exec.block", "exec", blockStart, "iters", 128, "step", 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %v/op, want 0", allocs)
	}
}

// Sanity: rotation traffic shows up in the per-peer counters after a
// rotated run (byte counts on the dialing side, message counts both).
func TestPeerTrafficCounters(t *testing.T) {
	ring := obs.Peer("exec0/ring")
	before := ring.MsgsSent.Value()
	ipc := NewInProc()
	runDistributedMF(t, ipc, "peer-master", func(i int) string {
		return fmt.Sprintf("peer-cnt-%d", i)
	}, 2, 1)
	if got := ring.MsgsSent.Value(); got <= before {
		t.Fatalf("exec0/ring msgs_sent did not grow (%d → %d)", before, got)
	}
	if obs.Peer("exec0/master").BytesSent.Value() == 0 {
		t.Fatal("exec0/master bytes_sent is 0")
	}
}
