package engine

import (
	"math"

	"orion/internal/cluster"
)

// Config tunes an engine run.
type Config struct {
	// Workers is the number of parallel workers (at most
	// Cluster.Machines × Cluster.WorkersPerMachine).
	Workers int
	// Cluster is the hardware cost model.
	Cluster cluster.Config
	// Passes is the number of full data passes (the paper's
	// "iterations").
	Passes int
	// Seed drives all randomness (shuffles, kernels).
	Seed int64
	// PipelineDepth is the number of time-partition indices per worker
	// under unordered 2D execution (Fig. 8); minimum 1.
	PipelineDepth int
	// SyncsPerPass is the number of barriers per pass for data-parallel
	// execution (Bösen default: 1).
	SyncsPerPass int
	// CommTicks is the number of mid-pass managed-communication rounds.
	CommTicks int
	// BandwidthBudgetMbps is the per-machine managed-communication
	// budget.
	BandwidthBudgetMbps float64
	// CMOverhead multiplies compute time under managed communication
	// (marshalling + lock contention CPU cost, Section 6.4).
	CMOverhead float64
	// MinibatchSize is the dataflow engine's synchronous batch size.
	MinibatchSize int
	// DenseComputeFactor multiplies the dataflow engine's compute (the
	// redundant dense work TF does on sparse data, Section 6.4).
	DenseComputeFactor float64
	// BatchFixedOverheadSec is the dataflow engine's per-batch graph
	// dispatch overhead.
	BatchFixedOverheadSec float64
	// UtilSaturationBatch is the batch size at which the dataflow
	// engine saturates all cores.
	UtilSaturationBatch int
	// TraceWindowSec is the bandwidth-trace window (0 disables).
	TraceWindowSec float64
	// SkipLoss disables per-pass loss evaluation (throughput benches).
	SkipLoss bool
}

// withDefaults normalizes zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Cluster.FlopsPerSec == 0 {
		c.Cluster = cluster.Default()
	}
	if c.Passes <= 0 {
		c.Passes = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	if c.SyncsPerPass <= 0 {
		c.SyncsPerPass = 1
	}
	if c.CMOverhead <= 0 {
		c.CMOverhead = 1
	}
	if c.DenseComputeFactor <= 0 {
		c.DenseComputeFactor = 1
	}
	if c.UtilSaturationBatch <= 0 {
		c.UtilSaturationBatch = 1
	}
	return c
}

// Result is one engine run's output.
type Result struct {
	Engine string
	App    string
	// Loss[i] is the objective after pass i+1.
	Loss []float64
	// Time[i] is the cumulative simulated seconds after pass i+1.
	Time []float64
	// Bytes[i] is the cumulative network bytes after pass i+1.
	Bytes []int64
	// Trace is the bandwidth-over-time series (nil unless requested).
	Trace *cluster.BandwidthTrace
}

// TimePerIter returns the average simulated seconds per pass, excluding
// the first pass when more than two passes ran (matching the paper's
// "averaged over iteration 2 to N").
func (r *Result) TimePerIter() float64 {
	n := len(r.Time)
	if n == 0 {
		return math.NaN()
	}
	if n <= 2 {
		return r.Time[n-1] / float64(n)
	}
	return (r.Time[n-1] - r.Time[0]) / float64(n-1)
}

// TimeToLoss returns the first cumulative time at which the loss
// reached target, or +Inf.
func (r *Result) TimeToLoss(target float64) float64 {
	for i, l := range r.Loss {
		if l <= target {
			return r.Time[i]
		}
	}
	return math.Inf(1)
}

// ItersToLoss returns the first pass (1-based) at which the loss
// reached target, or -1.
func (r *Result) ItersToLoss(target float64) int {
	for i, l := range r.Loss {
		if l <= target {
			return i + 1
		}
	}
	return -1
}

// FinalLoss returns the loss after the last pass.
func (r *Result) FinalLoss() float64 {
	if len(r.Loss) == 0 {
		return math.NaN()
	}
	return r.Loss[len(r.Loss)-1]
}
