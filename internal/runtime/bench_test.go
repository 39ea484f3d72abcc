package runtime

import (
	"fmt"
	"testing"

	"orion/internal/sched"
)

// BenchmarkDistributedMFPass measures the real runtime's end-to-end
// throughput (in-process transport): one rotation pass of the MF kernel
// across 4 executors, including partition rotation serialization.
func BenchmarkDistributedMFPass(b *testing.B) {
	registerKernels()
	tr := NewInProc()
	n := 4
	_, w, h, samples := mfFixture(7)
	m, err := Listen(tr, "bench-master", n)
	if err != nil {
		b.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	var done []<-chan error
	for i := 0; i < n; i++ {
		e, err := NewExecutor(tr, "bench-master", fmt.Sprintf("bench-peer-%d", i), i)
		if err != nil {
			b.Fatal(err)
		}
		done = append(done, e.Start())
	}
	if err := <-ready; err != nil {
		b.Fatal(err)
	}
	spacePart := sched.NewRangePartitioner(w.Dims()[1], n)
	timePart := sched.NewRangePartitioner(h.Dims()[1], n)
	if err := m.DistributeLocal(w, 1, boundariesOfBench(spacePart, n)); err != nil {
		b.Fatal(err)
	}
	if err := m.DistributeRotatedAt(h, 1, boundariesOfBench(timePart, n), 0); err != nil {
		b.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, spacePart); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ParallelFor(LoopDef{Kernel: "rt_mf", TimeDim: 1, TimePart: timePart, Rotate: true, Passes: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m.Shutdown()
	for _, d := range done {
		<-d
	}
}

func boundariesOfBench(p *sched.Partitioner, n int) []int64 {
	out := make([]int64, 0, n-1)
	for k := 0; k < n-1; k++ {
		_, hi := p.Bounds(k)
		out = append(out, hi)
	}
	return out
}
