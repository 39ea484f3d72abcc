package analyze

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orion/internal/diag"
	"orion/internal/obs"
	"orion/internal/sched"
)

// skewedReport builds a 4-worker report where worker 2 computes 3x the
// others over the same iteration count.
func skewedReport() *obs.LoopReport {
	r := &obs.LoopReport{Loop: "dsl-mf-1"}
	for w := 0; w < 4; w++ {
		compute := int64(100e6)
		if w == 2 {
			compute = 300e6
		}
		r.Add(obs.WorkerStats{Worker: w, Blocks: 4, Iters: 1000, ComputeNs: compute, RotWaitNs: 10e6, CommNs: 5e6})
	}
	return r
}

func hasCode(l diag.List, code string) *diag.Diagnostic {
	for i := range l {
		if l[i].Code == code {
			return &l[i]
		}
	}
	return nil
}

func TestLoopFlagsStraggler(t *testing.T) {
	res := Loop(skewedReport(), nil, Options{})
	if res.Straggler != 2 {
		t.Fatalf("straggler = %d, want 2", res.Straggler)
	}
	if res.SkewIndex < 2.9 || res.SkewIndex > 3.1 {
		t.Fatalf("skew index = %v, want ~3", res.SkewIndex)
	}
	d := hasCode(res.Diags, diag.CodeComputeSkew)
	if d == nil {
		t.Fatalf("ORN401 missing from %v", res.Diags)
	}
	if !strings.Contains(d.Message, "worker 2") {
		t.Fatalf("ORN401 names the wrong worker: %s", d.Message)
	}
	if hasCode(res.Diags, diag.CodeRotationBound) != nil {
		t.Fatalf("balanced rotation flagged ORN402: %v", res.Diags)
	}
}

func TestLoopBalancedIsClean(t *testing.T) {
	r := &obs.LoopReport{Loop: "even"}
	for w := 0; w < 4; w++ {
		r.Add(obs.WorkerStats{Worker: w, Iters: 1000, ComputeNs: 100e6, RotWaitNs: 5e6})
	}
	res := Loop(r, nil, Options{})
	if res.Straggler != -1 || len(res.Diags) != 0 {
		t.Fatalf("balanced loop flagged: straggler=%d diags=%v", res.Straggler, res.Diags)
	}
}

// TestLoopFlagsRotationBound: a rotation-bound loop is flagged ORN402
// and its worst wait is named on the link that feeds the worker — the
// ring successor's, or in an ordered loop, whose wavefront hands each
// worker its partition from its predecessor, the predecessor's. The
// ordering survives the Merge that copies a report out of the master.
func TestLoopFlagsRotationBound(t *testing.T) {
	peers := map[string]obs.PeerTraffic{
		"exec0/peer2": {BytesSent: 1000},
		"exec1/peer0": {BytesSent: 2000},
		"exec2/peer1": {BytesSent: 3000},
		"exec0/peer1": {BytesSent: 4000},
	}
	for _, tc := range []struct {
		ordered bool
		link    string // worker 1 waits hardest; this is its feed
		bytes   int64
	}{{false, "exec2/peer1", 3000}, {true, "exec0/peer1", 4000}} {
		r := &obs.LoopReport{Loop: "rot", Ordered: tc.ordered}
		waits := []int64{60e6, 90e6, 70e6}
		for w := 0; w < 3; w++ {
			r.Add(obs.WorkerStats{Worker: w, Iters: 500, ComputeNs: 100e6, RotWaitNs: waits[w], CommNs: 1e6})
		}
		merged := &obs.LoopReport{Loop: r.Loop}
		merged.Merge(r)
		res := Loop(merged, peers, Options{StaticRatio: 0.8})
		d := hasCode(res.Diags, diag.CodeRotationBound)
		if d == nil {
			t.Fatalf("ORN402 missing from %v", res.Diags)
		}
		if !strings.Contains(d.Message, "ORN107") {
			t.Fatalf("ORN402 does not cross-check the static estimate: %s", d.Message)
		}
		if len(res.Links) == 0 {
			t.Fatal("no link attribution")
		}
		worst := res.Links[0]
		if worst.Worker != 1 || worst.Link != tc.link || worst.BytesSent != tc.bytes {
			t.Errorf("ordered %v: worst link = %+v, want worker 1 fed by %s (%d bytes)", tc.ordered, worst, tc.link, tc.bytes)
		}
	}
}

func TestWeightsReweightFeedsHistogramPartitioner(t *testing.T) {
	res := Loop(skewedReport(), nil, Options{})
	p := res.Weights
	if p == nil {
		t.Fatal("no weight profile")
	}
	if got := p.CostOf(2); got < 2.9 || got > 3.1 {
		t.Fatalf("CostOf(2) = %v, want ~3", got)
	}

	// A uniform 64-coordinate space previously cut evenly across 4
	// workers (16 each). Re-weighting by the measured profile must hand
	// worker 2 a smaller range.
	const coords = 64
	uniform := make([]int64, coords)
	for i := range uniform {
		uniform[i] = 10
	}
	before := sched.NewHistogramPartitioner(uniform, 4)
	owner := func(coord int) int { return before.PartOf(int64(coord)) }
	reweighted := p.Reweight(uniform, owner)
	after := sched.NewHistogramPartitioner(reweighted, 4)

	lo0, hi0 := before.Bounds(2)
	lo1, hi1 := after.Bounds(2)
	if hi1-lo1 >= hi0-lo0 {
		t.Fatalf("straggler range did not shrink: before [%d,%d) after [%d,%d)", lo0, hi0, lo1, hi1)
	}
	// Every coordinate stays owned by someone.
	if after.Extent() != coords {
		t.Fatalf("extent changed: %d", after.Extent())
	}
}

func TestWeightProfileWriteFile(t *testing.T) {
	p := Weights(skewedReport())
	path := filepath.Join(t.TempDir(), "weights.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got WeightProfile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Loop != "dsl-mf-1" || len(got.Workers) != 4 {
		t.Fatalf("round-trip = %+v", got)
	}
}

func TestTopAggregatesSpans(t *testing.T) {
	events := []obs.TraceEvent{
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1},
		{Name: "exec.block", Ph: "X", Pid: 1, Tid: 1, Dur: 100},
		{Name: "exec.block", Ph: "X", Pid: 2, Tid: 2, Dur: 300},
		{Name: "exec.kernel", Ph: "X", Pid: 1, Tid: 1, Dur: 50},
		{Name: "marker", Ph: "i", Pid: 1, Tid: 1},
	}
	top := Top(events)
	if len(top) != 2 {
		t.Fatalf("top = %+v, want 2 entries", top)
	}
	if top[0].Name != "exec.block" || top[0].Count != 2 || top[0].TotalUs != 400 || top[0].Lanes != 2 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if pids := Pids(events); len(pids) != 2 || pids[0] != 1 || pids[1] != 2 {
		t.Fatalf("pids = %v", pids)
	}
}

func TestReportAnalyzesEveryLoop(t *testing.T) {
	doc := &obs.ReportDoc{Loops: []*obs.LoopReport{skewedReport(), {Loop: "empty"}}}
	results := Report(doc, Options{})
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].Straggler != 2 || results[1].Straggler != -1 {
		t.Fatalf("stragglers = %d, %d", results[0].Straggler, results[1].Straggler)
	}
}
