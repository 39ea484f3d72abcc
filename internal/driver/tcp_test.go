package driver

import (
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"orion/examples"
	"orion/internal/data"
)

// TestDriverTCPWithWorkerProcesses runs the full pipeline against real
// orion-worker OS processes over TCP: the loop body travels to the
// workers as a DefineLoop message and is compiled there — no
// application code in the worker binary.
func TestDriverTCPWithWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "orion-worker")
	build := exec.Command("go", "build", "-o", bin, "orion/cmd/orion-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building worker: %v\n%s", err, out)
	}

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

	before := mfLoss(sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatal(err)
	}
	after := mfLoss(sess)
	if after >= before*0.7 {
		t.Fatalf("multi-process training did not converge: %v -> %v", before, after)
	}

	// Also exercise sharded parameter serving across processes: a
	// buffered SLR loop whose weights are sharded over the two workers
	// and prefetched via the synthesized slice.
	samples := sess.CreateArray("samples", false, 200)
	srng := rand.New(rand.NewSource(8))
	for i := int64(0); i < 200; i++ {
		samples.SetAt(srng.Float64()*0.98+0.01, i)
	}
	sess.CreateArray("weights", true, 64)
	if err := sess.CreateBuffer("w_buf", "weights"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ParallelFor(slrSrc, Passes(2)); err != nil {
		t.Fatal(err)
	}
	if m := sess.Misses(); m != 0 {
		t.Fatalf("cross-process prefetch missed %d reads", m)
	}
	var moved bool
	sess.Array("weights").ForEach(func(_ []int64, v float64) {
		if v != 0 {
			moved = true
		}
	})
	if !moved {
		t.Fatal("cross-process sharded updates never landed")
	}

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
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var out []byte
	for v > 0 {
		out = append([]byte{byte('0' + v%10)}, out...)
		v /= 10
	}
	return string(out)
}
