package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"orion/internal/metrics"
)

// WorkerStats is one worker's accumulated time breakdown for a loop:
// where its wall-clock went while executing kernel blocks.
type WorkerStats struct {
	Worker    int   `json:"worker"`
	Blocks    int64 `json:"blocks"`      // kernel blocks executed
	Iters     int64 `json:"iters"`       // DSL iterations executed
	ComputeNs int64 `json:"compute_ns"`  // time inside the kernel function
	RotWaitNs int64 `json:"rot_wait_ns"` // blocked waiting for the rotated partition to arrive
	CommNs    int64 `json:"comm_ns"`     // serialization + sends (rotation send, prefetch, flush)
}

// add merges another sample into the stats.
func (w *WorkerStats) add(s WorkerStats) {
	w.Blocks += s.Blocks
	w.Iters += s.Iters
	w.ComputeNs += s.ComputeNs
	w.RotWaitNs += s.RotWaitNs
	w.CommNs += s.CommNs
}

// LoopReport is the per-loop execution breakdown the master assembles
// from executor BlockDone messages.
type LoopReport struct {
	Loop string `json:"loop"`
	// Ordered marks a loop that ran the wavefront schedule: each worker
	// is fed by its predecessor, not by its ring successor.
	Ordered bool          `json:"ordered,omitempty"`
	Workers []WorkerStats `json:"workers"` // sorted by Worker
}

// Add accumulates one worker sample into the report.
func (r *LoopReport) Add(s WorkerStats) {
	for i := range r.Workers {
		if r.Workers[i].Worker == s.Worker {
			r.Workers[i].add(s)
			return
		}
	}
	r.Workers = append(r.Workers, s)
	sort.Slice(r.Workers, func(i, j int) bool {
		return r.Workers[i].Worker < r.Workers[j].Worker
	})
}

// Merge folds another report's workers into this one (used to combine
// the reports of several ParallelFor passes over the same loop nest).
func (r *LoopReport) Merge(other *LoopReport) {
	if other == nil {
		return
	}
	r.Ordered = r.Ordered || other.Ordered
	for _, w := range other.Workers {
		r.Add(w)
	}
}

// Delta returns a new report holding this report's stats minus a
// baseline snapshot taken earlier (nil base returns a copy). Reports
// accumulate for a kernel's whole run, so per-segment analysis — e.g.
// the driver's adaptive re-planning deciding whether the *last*
// segment was skewed — subtracts the segment-entry snapshot first.
// Workers absent from base are included whole; negative components
// never appear as long as base is a genuine earlier snapshot.
func (r *LoopReport) Delta(base *LoopReport) *LoopReport {
	out := &LoopReport{Loop: r.Loop, Ordered: r.Ordered}
	for _, w := range r.Workers {
		d := w
		if base != nil {
			for _, b := range base.Workers {
				if b.Worker == w.Worker {
					d.Blocks -= b.Blocks
					d.Iters -= b.Iters
					d.ComputeNs -= b.ComputeNs
					d.RotWaitNs -= b.RotWaitNs
					d.CommNs -= b.CommNs
					break
				}
			}
		}
		out.Add(d)
	}
	return out
}

// Total returns the sum across workers.
func (r *LoopReport) Total() WorkerStats {
	var t WorkerStats
	for _, w := range r.Workers {
		t.add(w)
	}
	return t
}

// RotationComputeRatio returns total rotation-wait time over total
// compute time (0 when no compute was recorded). orion-vet's ORN107
// prediction can be compared against this measurement.
func (r *LoopReport) RotationComputeRatio() float64 {
	t := r.Total()
	if t.ComputeNs == 0 {
		return 0
	}
	return float64(t.RotWaitNs) / float64(t.ComputeNs)
}

func secs(ns int64) string { return fmt.Sprintf("%.4f", float64(ns)/1e9) }

func statsRow(label string, w WorkerStats) []string {
	busy := "-"
	itersPerSec := "-"
	if total := w.ComputeNs + w.RotWaitNs + w.CommNs; total > 0 {
		busy = fmt.Sprintf("%.1f%%", 100*float64(w.ComputeNs)/float64(total))
		itersPerSec = fmt.Sprintf("%.0f", float64(w.Iters)/(float64(total)/1e9))
	}
	return []string{
		label,
		fmt.Sprintf("%d", w.Blocks),
		fmt.Sprintf("%d", w.Iters),
		secs(w.ComputeNs),
		secs(w.RotWaitNs),
		secs(w.CommNs),
		busy,
		itersPerSec,
	}
}

// Render formats the report as an aligned table: one row per worker
// plus a TOTAL row. busy% is compute over (compute+rot-wait+comm).
func (r *LoopReport) Render() string {
	headers := []string{"worker", "blocks", "iters", "compute s", "rot-wait s", "comm s", "busy %", "iters/s"}
	var rows [][]string
	for _, w := range r.Workers {
		rows = append(rows, statsRow(fmt.Sprintf("%d", w.Worker), w))
	}
	rows = append(rows, statsRow("TOTAL", r.Total()))
	var b strings.Builder
	fmt.Fprintf(&b, "loop %s  (rotation/compute ratio %.3f)\n", r.Loop, r.RotationComputeRatio())
	b.WriteString(metrics.Table(headers, rows))
	return b.String()
}

// ReportDoc is the machine-readable run report: every loop's worker
// breakdown, per-peer link traffic, and the flight-recorder event log.
// orion-run -report-json writes it; orion-trace analyze and the
// /report HTTP endpoint consume it.
type ReportDoc struct {
	Loops  []*LoopReport          `json:"loops"`
	Peers  map[string]PeerTraffic `json:"peers,omitempty"`
	Flight []FlightEvent          `json:"flight,omitempty"`
}

// WriteFile writes the report document as indented JSON.
func (d *ReportDoc) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReportDoc loads a report document written by WriteFile.
func ReadReportDoc(path string) (*ReportDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d ReportDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
