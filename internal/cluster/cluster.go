// Package cluster models the distributed hardware Orion's evaluation
// ran on (42 nodes, 16-core Xeons, 40 Gbps Ethernet): machine/worker
// topology, a compute cost model, a network cost model, and a
// deterministic simulated clock. Engines execute training schedules for
// real (producing exact parameter values) and charge simulated time to
// this model, reproducing the *shape* of the paper's time-based figures
// without the authors' testbed.
package cluster

import "fmt"

// Config describes the simulated cluster.
type Config struct {
	// Machines is the number of physical machines.
	Machines int
	// WorkersPerMachine is the number of worker slots (virtual cores)
	// per machine.
	WorkersPerMachine int
	// FlopsPerSec is each worker's effective compute throughput.
	FlopsPerSec float64
	// BandwidthBps is each machine's NIC bandwidth in bits/second.
	BandwidthBps float64
	// LatencySec is the per-message network latency.
	LatencySec float64
	// LocalBytesPerSec is the intra-machine transfer throughput
	// (memory copies). STRADS's pointer-swap optimization makes
	// same-machine transfers effectively free; model that by setting
	// this very high.
	LocalBytesPerSec float64
	// ComputeOverhead multiplies compute time; used to model the
	// managed runtime's (Julia's) per-element overhead relative to
	// C++ baselines (Section 6.4).
	ComputeOverhead float64
}

// Default returns a cluster resembling the paper's testbed at reduced
// scale: 12 machines, 32 workers each, 40 Gbps Ethernet.
func Default() Config {
	return Config{
		Machines:          12,
		WorkersPerMachine: 32,
		FlopsPerSec:       2e9,
		BandwidthBps:      40e9,
		LatencySec:        100e-6,
		LocalBytesPerSec:  20e9,
		ComputeOverhead:   1.0,
	}
}

// MachineOf returns the machine hosting worker w.
func (c Config) MachineOf(w int) int { return w / c.WorkersPerMachine }

// SameMachine reports whether two workers share a machine.
func (c Config) SameMachine(a, b int) bool { return c.MachineOf(a) == c.MachineOf(b) }

// ComputeTime returns the simulated seconds to execute flops of work on
// one worker.
func (c Config) ComputeTime(flops float64) float64 {
	ov := c.ComputeOverhead
	if ov <= 0 {
		ov = 1
	}
	return flops * ov / c.FlopsPerSec
}

// TransferTime returns the simulated seconds to move bytes between two
// workers: latency plus serialization at NIC (or memory) bandwidth.
func (c Config) TransferTime(bytes int64, sameMachine bool) float64 {
	if bytes <= 0 {
		return 0
	}
	if sameMachine {
		bps := c.LocalBytesPerSec
		if bps <= 0 {
			bps = 20e9
		}
		return float64(bytes) / bps
	}
	return c.LatencySec + float64(bytes)*8/c.BandwidthBps
}

// Clock is a deterministic simulated clock.
type Clock struct{ now float64 }

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("cluster: negative clock advance %g", d))
	}
	c.now += d
}

// Sample is one point of a bandwidth-over-time trace.
type Sample struct {
	T    float64 // window start, seconds
	Mbps float64 // average bandwidth during the window
}

// BandwidthTrace accumulates bytes sent over simulated time into fixed
// windows, producing the Fig. 12 bandwidth-usage series.
type BandwidthTrace struct {
	Window float64 // seconds per window
	bytes  map[int]int64
	maxWin int
}

// NewBandwidthTrace creates a trace with the given window size.
func NewBandwidthTrace(window float64) *BandwidthTrace {
	if window <= 0 {
		window = 1
	}
	return &BandwidthTrace{Window: window, bytes: make(map[int]int64)}
}

// Record charges bytes to the window containing simulated time t. When
// the transfer spans [t, t+dur), the bytes are spread across windows
// proportionally.
func (b *BandwidthTrace) Record(t, dur float64, bytes int64) {
	if bytes <= 0 {
		return
	}
	if dur <= 0 {
		w := int(t / b.Window)
		b.bytes[w] += bytes
		if w > b.maxWin {
			b.maxWin = w
		}
		return
	}
	end := t + dur
	startW := int(t / b.Window)
	endW := int(end / b.Window)
	for w := startW; w <= endW; w++ {
		segStart := float64(w) * b.Window
		if segStart < t {
			segStart = t
		}
		segEnd := float64(w+1) * b.Window
		if segEnd > end {
			segEnd = end
		}
		if segEnd <= segStart {
			continue
		}
		b.bytes[w] += int64(float64(bytes) * (segEnd - segStart) / dur)
		if w > b.maxWin {
			b.maxWin = w
		}
	}
}

// Series returns per-window average bandwidth samples from time 0
// through the last recorded window.
func (b *BandwidthTrace) Series() []Sample {
	out := make([]Sample, 0, b.maxWin+1)
	for w := 0; w <= b.maxWin; w++ {
		mbps := float64(b.bytes[w]) * 8 / b.Window / 1e6
		out = append(out, Sample{T: float64(w) * b.Window, Mbps: mbps})
	}
	return out
}

// TotalBytes returns the total recorded bytes.
func (b *BandwidthTrace) TotalBytes() int64 {
	var total int64
	for _, v := range b.bytes {
		total += v
	}
	return total
}
