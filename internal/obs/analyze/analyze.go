// Package analyze is the flight recorder's analytics engine: it turns
// merged traces, per-loop execution reports, and peer traffic counters
// into verdicts — which worker is the straggler, how skewed the loop's
// compute is, whether execution is rotation-bound and which ring link
// starves it — and into a measured per-worker WeightProfile the
// histogram partitioner can consume for feedback-driven re-planning
// (ROADMAP item 3). The diagnostics it emits (ORN401 compute skew,
// ORN402 rotation-bound) are the measured counterparts of orion-vet's
// static ORN107 rotation/compute prediction.
package analyze

import (
	"fmt"
	"sort"

	"orion/internal/diag"
	"orion/internal/obs"
)

// Options tunes the analysis thresholds.
type Options struct {
	// SkewThreshold flags a loop when max/median compute exceeds it
	// (default 1.5).
	SkewThreshold float64
	// RotationThreshold flags a loop as rotation-bound when measured
	// rotation-wait / compute exceeds it (default 0.5).
	RotationThreshold float64
	// StaticRatio, when > 0, is ORN107's statically predicted
	// rotation/compute byte ratio for this loop; ORN402 reports the
	// measurement against it.
	StaticRatio float64
}

func (o Options) withDefaults() Options {
	if o.SkewThreshold <= 0 {
		o.SkewThreshold = 1.5
	}
	if o.RotationThreshold <= 0 {
		o.RotationThreshold = 0.5
	}
	return o
}

// WorkerBreakdown is one worker's share of a loop.
type WorkerBreakdown struct {
	Worker    int     `json:"worker"`
	Blocks    int64   `json:"blocks"`
	Iters     int64   `json:"iters"`
	ComputeNs int64   `json:"compute_ns"`
	RotWaitNs int64   `json:"rot_wait_ns"`
	CommNs    int64   `json:"comm_ns"`
	BusyShare float64 `json:"busy_share"`  // compute / (compute+rot-wait+comm)
	NsPerIter float64 `json:"ns_per_iter"` // compute ns per iteration
}

// LinkStall attributes a worker's rotation wait to the peer link that
// feeds it: in the executor ring, worker w receives its next time
// partition from successor (w+1) mod n, and in an ordered loop's
// wavefront from predecessor (w-1) mod n, over their peer link, whose
// send-side counters carry the label "exec<feeder>/peer<w>".
type LinkStall struct {
	Worker    int    `json:"worker"` // the stalled worker
	Link      string `json:"link"`   // peer label of the feeding link
	RotWaitNs int64  `json:"rot_wait_ns"`
	BytesSent int64  `json:"bytes_sent"` // bytes the feeding link pushed
}

// Result is one loop's analysis.
type Result struct {
	Loop                 string            `json:"loop"`
	Workers              []WorkerBreakdown `json:"workers"`
	MedianComputeNs      int64             `json:"median_compute_ns"`
	MaxComputeNs         int64             `json:"max_compute_ns"`
	SkewIndex            float64           `json:"skew_index"` // max/median compute
	Straggler            int               `json:"straggler"`  // -1 when none
	RotationComputeRatio float64           `json:"rotation_compute_ratio"`
	StaticRatio          float64           `json:"static_ratio,omitempty"`
	Links                []LinkStall       `json:"links,omitempty"`
	Weights              *WeightProfile    `json:"weights,omitempty"`
	Diags                diag.List         `json:"diags,omitempty"`
}

// Loop analyzes one loop report. peers may be nil (link attribution is
// skipped then).
func Loop(r *obs.LoopReport, peers map[string]obs.PeerTraffic, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{Loop: r.Loop, Straggler: -1}
	if len(r.Workers) == 0 {
		return res
	}
	computes := make([]int64, 0, len(r.Workers))
	for _, w := range r.Workers {
		b := WorkerBreakdown{
			Worker: w.Worker, Blocks: w.Blocks, Iters: w.Iters,
			ComputeNs: w.ComputeNs, RotWaitNs: w.RotWaitNs, CommNs: w.CommNs,
		}
		if total := w.ComputeNs + w.RotWaitNs + w.CommNs; total > 0 {
			b.BusyShare = float64(w.ComputeNs) / float64(total)
		}
		if w.Iters > 0 {
			b.NsPerIter = float64(w.ComputeNs) / float64(w.Iters)
		}
		res.Workers = append(res.Workers, b)
		computes = append(computes, w.ComputeNs)
	}
	sort.Slice(computes, func(i, j int) bool { return computes[i] < computes[j] })
	res.MedianComputeNs = computes[len(computes)/2]
	res.MaxComputeNs = computes[len(computes)-1]
	if res.MedianComputeNs > 0 {
		res.SkewIndex = float64(res.MaxComputeNs) / float64(res.MedianComputeNs)
	}
	res.RotationComputeRatio = r.RotationComputeRatio()
	res.StaticRatio = opts.StaticRatio
	res.Weights = Weights(r)

	if res.SkewIndex >= opts.SkewThreshold && len(r.Workers) > 1 {
		// The straggler is the worker with the most compute time.
		for _, w := range res.Workers {
			if w.ComputeNs == res.MaxComputeNs {
				res.Straggler = w.Worker
				break
			}
		}
		res.Diags.Add(diag.Warningf(diag.CodeComputeSkew, diag.Pos{},
			"re-partition with the measured weight profile (orion-trace analyze -weights) to even the load",
			"loop %s: compute skew %.2fx — worker %d spent %s computing vs a fleet median of %s",
			r.Loop, res.SkewIndex, res.Straggler, fmtNs(res.MaxComputeNs), fmtNs(res.MedianComputeNs)))
	}
	if res.RotationComputeRatio >= opts.RotationThreshold {
		res.Links = linkStalls(res.Workers, peers, r.Ordered)
		msg := fmt.Sprintf("loop %s: rotation-bound — workers waited %.2fx their compute time for rotated partitions",
			r.Loop, res.RotationComputeRatio)
		if opts.StaticRatio > 0 {
			msg += fmt.Sprintf(" (static ORN107 estimate predicted a byte ratio of %.3f)", opts.StaticRatio)
		}
		if len(res.Links) > 0 {
			l := res.Links[0]
			msg += fmt.Sprintf("; worst link %s feeding worker %d (%s waiting, %d bytes shipped)",
				l.Link, l.Worker, fmtNs(l.RotWaitNs), l.BytesSent)
		}
		res.Diags.Add(diag.Warningf(diag.CodeRotationBound, diag.Pos{},
			"shrink the rotated arrays, batch more compute per step, or use served placement for the hot array", "%s", msg))
	}
	res.Diags.Sort()
	return res
}

// linkStalls ranks workers by rotation wait and attributes each wait
// to the link that feeds it (see LinkStall). Sorted worst-first.
func linkStalls(workers []WorkerBreakdown, peers map[string]obs.PeerTraffic, ordered bool) []LinkStall {
	n := len(workers)
	if n < 2 {
		return nil
	}
	step := 1 // the ring successor
	if ordered {
		step = n - 1 // the wavefront predecessor
	}
	out := make([]LinkStall, 0, n)
	for _, w := range workers {
		if w.RotWaitNs <= 0 {
			continue
		}
		label := fmt.Sprintf("exec%d/peer%d", (w.Worker+step)%n, w.Worker)
		ls := LinkStall{Worker: w.Worker, Link: label, RotWaitNs: w.RotWaitNs}
		if peers != nil {
			ls.BytesSent = peers[label].BytesSent
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RotWaitNs > out[j].RotWaitNs })
	return out
}

// Report analyzes every loop in a report document.
func Report(doc *obs.ReportDoc, opts Options) []*Result {
	out := make([]*Result, 0, len(doc.Loops))
	for _, r := range doc.Loops {
		out = append(out, Loop(r, doc.Peers, opts))
	}
	return out
}

// fmtNs renders nanoseconds as seconds with enough precision for
// diagnostics.
func fmtNs(ns int64) string { return fmt.Sprintf("%.3fs", float64(ns)/1e9) }
