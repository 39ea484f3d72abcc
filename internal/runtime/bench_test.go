package runtime

import (
	"testing"

	"orion/internal/sched"
)

// BenchmarkDistributedMFPass measures the real runtime's end-to-end
// throughput (in-process transport): one rotation pass of the MF kernel
// across 4 executors, including partition rotation serialization.
func BenchmarkDistributedMFPass(b *testing.B) {
	n := 4
	_, w, h, samples := mfFixture(7)
	m, _, stop := startFleet(b, "bench", n, runtimeLoops.compile)
	defer stop()
	spacePart := sched.NewRangePartitioner(w.Dims()[1], n)
	timePart := sched.NewRangePartitioner(h.Dims()[1], n)
	if err := m.DistributeLocal(w, 1, boundariesOf(spacePart, n)); err != nil {
		b.Fatal(err)
	}
	if err := m.DistributeRotatedAt(h, 1, boundariesOf(timePart, n), 0); err != nil {
		b.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, spacePart); err != nil {
		b.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "rt_mf"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ParallelFor(LoopDef{Kernel: "rt_mf", TimeDim: 1, TimePart: timePart, Rotate: true, Passes: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}
