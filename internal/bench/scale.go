// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (Section 6), plus ablations for the
// design decisions DESIGN.md calls out. Runners execute the real
// algorithms under each system's semantics and report the same rows and
// series the paper does, at a configurable scale.
package bench

import (
	"orion/internal/cluster"
	"orion/internal/data"
)

// Scale bundles dataset sizes and the cluster model for a run of the
// harness. Small() keeps unit tests fast; Default() is the
// cmd/orion-bench scale.
type Scale struct {
	Name string

	MF       data.RatingsConfig
	MFPasses int
	// MFLR is the plain-SGD step size for serializable execution
	// (serial, Orion, STRADS). DPLR is the largest step size at which
	// data-parallel execution remains stable — dependence violation
	// forces a smaller rate, which is precisely the paper's point.
	// AdaRevLR is the adaptive-revision rate.
	MFLR     float64
	DPLR     float64
	AdaRevLR float64

	LDASmall  data.CorpusConfig // the NYTimes stand-in
	LDABig    data.CorpusConfig // the ClueWeb-25M stand-in
	LDAPasses int
	LDAAlpha  float64
	LDABeta   float64

	SLR data.LogisticConfig // the KDD2010 stand-in

	// GBTFeatures is the feature count of GBT's split-search loop.
	GBTFeatures int64

	// Workers is the full-cluster worker count used by most
	// experiments (the paper's "12 machines, 384 workers" point).
	Workers int
	// WorkerSweep is the Fig. 9a x-axis.
	WorkerSweep []int
	// Cluster is the hardware cost model.
	Cluster cluster.Config
	// OrionLDAOverhead models Julia's marshalling overhead for LDA
	// relative to STRADS's C++ (Section 6.4: 1.8x-4x).
	OrionLDAOverhead float64
}

// Small returns a fast scale for tests and testing.B benchmarks.
func Small() Scale {
	return Scale{
		Name:     "small",
		MF:       data.RatingsConfig{Rows: 60, Cols: 50, NNZ: 1500, Rank: 8, Noise: 0.05, Skew: 1.1, Seed: 11},
		MFPasses: 12,
		MFLR:     0.12,
		DPLR:     0.10,
		AdaRevLR: 0.3,

		LDASmall:  data.CorpusConfig{Docs: 60, Vocab: 50, Topics: 4, MeanDocLen: 25, Seed: 5},
		LDABig:    data.CorpusConfig{Docs: 150, Vocab: 80, Topics: 4, MeanDocLen: 25, Seed: 6},
		LDAPasses: 4,
		LDAAlpha:  0.5,
		LDABeta:   0.1,

		SLR: data.LogisticConfig{Samples: 300, Dim: 120, NNZPer: 8, Seed: 7},

		GBTFeatures: 8,

		Workers:          16,
		WorkerSweep:      []int{1, 2, 4, 8, 16},
		Cluster:          simCluster(4, 4),
		OrionLDAOverhead: 2.0,
	}
}

// Default returns the cmd/orion-bench scale: large enough for clear
// separations, small enough to run in minutes on a laptop.
func Default() Scale {
	return Scale{
		Name:     "default",
		MF:       data.RatingsConfig{Rows: 400, Cols: 300, NNZ: 30000, Rank: 16, Noise: 0.05, Skew: 1.1, Seed: 11},
		MFPasses: 20,
		MFLR:     0.06,
		DPLR:     0.05,
		AdaRevLR: 0.3,

		LDASmall:  data.CorpusConfig{Docs: 300, Vocab: 200, Topics: 10, MeanDocLen: 40, Seed: 5},
		LDABig:    data.CorpusConfig{Docs: 1000, Vocab: 400, Topics: 10, MeanDocLen: 40, Seed: 6},
		LDAPasses: 12,
		LDAAlpha:  0.5,
		LDABeta:   0.1,

		SLR: data.LogisticConfig{Samples: 3000, Dim: 2000, NNZPer: 12, Seed: 7},

		GBTFeatures: 16,

		Workers:          48,
		WorkerSweep:      []int{1, 2, 4, 8, 16, 32, 48},
		Cluster:          simCluster(12, 4),
		OrionLDAOverhead: 2.0,
	}
}

// simCluster builds a cost model where compute dominates communication
// at reduced dataset scale, matching the regime of the paper's testbed
// at full scale: deliberately slow cores, a fast low-latency network.
func simCluster(machines, workersPer int) cluster.Config {
	c := cluster.Default()
	c.Machines = machines
	c.WorkersPerMachine = workersPer
	c.FlopsPerSec = 1e6
	c.LatencySec = 1e-5
	return c
}
