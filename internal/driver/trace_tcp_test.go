package driver

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"orion/examples"
	"orion/internal/data"
	"orion/internal/obs"
)

// TestDriverTCPMergedTrace is the golden test for distributed trace
// collection: two real orion-worker OS processes run an MF loop over
// TCP with tracing on, the master collects their span buffers at close,
// and the merged timeline must carry every worker on its own pid lane
// with timestamps aligned to the master's clock.
func TestDriverTCPMergedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "orion-worker")
	build := exec.Command("go", "build", "-o", bin, "orion/cmd/orion-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building worker: %v\n%s", err, out)
	}

	tracer := obs.StartTracing()
	defer obs.StopTracing()

	const n = 2
	sess, err := NewTCPSession("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var workers []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-master", sess.Addr(),
			"-peer", freeAddr(t),
			"-id", itoa(i))
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, cmd)
	}
	waitDone := make(chan error, 1)
	go func() { waitDone <- sess.WaitForWorkers() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("workers never registered")
	}

	if err := examples.NewMF(data.RatingsConfig{Rows: 30, Cols: 24, NNZ: 400, Rank: 4, Noise: 0.05, Seed: 3}).Register(sess); err != nil {
		t.Fatal(err)
	}
	sess.SetGlobal("step_size", 0.05)
	sess.SetGlobal("err", 0)

	if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}

	// Close shuts the fleet down, collecting each worker's trace buffer
	// over the wire on the way out.
	sess.Close()
	for _, w := range workers {
		done := make(chan error, 1)
		go func(c *exec.Cmd) { done <- c.Wait() }(w)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			w.Process.Kill()
			t.Fatal("worker did not exit after shutdown")
		}
	}
	obs.StopTracing()

	if lanes := tracer.RemoteLanes(); lanes < n {
		t.Fatalf("collected %d remote lanes, want >= %d (one per worker process)", lanes, n)
	}
	evs := tracer.Events()

	// Each worker process occupies its own pid lane (pid = worker id +
	// 1; the master's clock lane is pid 0), named by a thread_name
	// metadata event.
	for id := 0; id < n; id++ {
		pid := id + 1
		name := fmt.Sprintf("exec%d", id)
		var named, blocks bool
		for _, ev := range evs {
			if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == pid && ev.Args["name"] == name {
				named = true
			}
			if ev.Ph == "X" && ev.Name == "exec.block" && ev.Pid == pid {
				blocks = true
			}
		}
		if !named {
			t.Errorf("no thread_name %q metadata on pid %d", name, pid)
		}
		if !blocks {
			t.Errorf("no exec.block spans on pid %d (worker %d's lane is empty)", pid, id)
		}
	}

	// Clock alignment: every remote exec.block must land inside the
	// master's clock.step span for the same step index, modulo the
	// clock-offset estimation error (generous 25ms slack on loopback).
	const slackUs = 25e3
	var steps []obs.TraceEvent
	for _, ev := range evs {
		if ev.Ph == "X" && ev.Name == "clock.step" && ev.Pid == 0 {
			steps = append(steps, ev)
		}
	}
	if len(steps) == 0 {
		t.Fatal("no master clock.step spans")
	}
	checked := 0
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Name != "exec.block" || ev.Pid == 0 {
			continue
		}
		aligned := false
		for _, st := range steps {
			if argInt(st, "step") != argInt(ev, "step") {
				continue
			}
			if ev.Ts >= st.Ts-slackUs && ev.Ts+ev.Dur <= st.Ts+st.Dur+slackUs {
				aligned = true
				break
			}
		}
		if !aligned {
			t.Errorf("remote exec.block (pid %d, step %d, ts %.0fus, dur %.0fus) outside every matching clock.step",
				ev.Pid, argInt(ev, "step"), ev.Ts, ev.Dur)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no remote exec.block spans to align")
	}

	// Span parentage within a lane: each kernel span nests inside a
	// block span recorded by the same goroutine (same local clock, so
	// containment is exact up to float rounding).
	kernels := 0
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Name != "exec.kernel" || ev.Pid == 0 {
			continue
		}
		nested := false
		for _, blk := range evs {
			if blk.Ph != "X" || blk.Name != "exec.block" || blk.Pid != ev.Pid || blk.Tid != ev.Tid {
				continue
			}
			if ev.Ts >= blk.Ts-1 && ev.Ts+ev.Dur <= blk.Ts+blk.Dur+1 {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("exec.kernel on pid %d tid %d (ts %.0fus) not nested in any exec.block", ev.Pid, ev.Tid, ev.Ts)
		}
		kernels++
	}
	if kernels == 0 {
		t.Fatal("no remote exec.kernel spans collected")
	}
}

// argInt reads an integer span argument regardless of how the value
// was carried (int64 in-memory, float64 after a JSON round-trip).
func argInt(ev obs.TraceEvent, key string) int64 {
	switch v := ev.Args[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	default:
		return -1
	}
}
