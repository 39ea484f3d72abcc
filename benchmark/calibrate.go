package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is not steady: for seconds to a
// minute at a time two busy threads get between one and two cores'
// throughput (README, "Host noise"). A run is no longer than such an
// episode, so no statistic over the run's own pass times can see past
// it. The pass timings are therefore calibrated: a fixed two-thread
// reference computation runs after every timed pass, outside it, and
// the pass is scaled by how fast the reference ran just then.

// refNominal is how long reference takes on this benchmark's first
// host when it is quiet. Calibrated seconds are seconds on a host that
// runs the reference at this speed.
const refNominal = 0.020

// spinSink keeps spin's loop from being optimized away.
var spinSink atomic.Uint64

// spin is a fixed amount of floating-point work on one goroutine.
func spin() time.Duration {
	start := time.Now()
	x := 0.0
	for i := 0; i < 30_000_000; i++ {
		x += float64(i) * 1e-9
	}
	spinSink.Store(math.Float64bits(x))
	return time.Since(start)
}

// reference runs spin on two goroutines at once, as the fleet runs two
// workers at once, and returns the slower one's time. The host
// sometimes gives its two vCPUs one core's throughput between them;
// one goroutine alone would not see that, and a pass does.
func reference() time.Duration {
	other := make(chan time.Duration)
	go func() { other <- spin() }()
	d := spin()
	return max(d, <-other)
}

// calibrated collects timings, each paired with a reference run taken
// right after it.
type calibrated struct {
	raw, ref []float64
}

func (c *calibrated) add(d time.Duration) {
	c.raw = append(c.raw, d.Seconds())
	c.ref = append(c.ref, reference().Seconds())
}

// values scales each timing to the nominal host.
func (c *calibrated) values() []float64 {
	out := make([]float64, len(c.raw))
	for i := range c.raw {
		out[i] = c.raw[i] * refNominal / c.ref[i]
	}
	return out
}

// hostFactor is the median reference time over nominal: above 1 the
// host ran slow during these timings.
func (c *calibrated) hostFactor() float64 { return median(c.ref) / refNominal }

// hostState measures, for the per-layer run, how much longer the
// reference takes on two goroutines at once than alone — 1 on two independent cores, 2
// when the two workers share one core's throughput — and the host
// factor at that moment.
func hostState() (twoThreadSlowdown, hostFactor float64) {
	var alone, paired []float64
	for i := 0; i < 5; i++ {
		alone = append(alone, spin().Seconds())
		paired = append(paired, reference().Seconds())
	}
	return median(paired) / median(alone), median(paired) / refNominal
}
