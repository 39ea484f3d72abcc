package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestNilTraceBufIsNoOp(t *testing.T) {
	var b *TraceBuf
	start := b.Begin()
	if !start.IsZero() {
		t.Fatalf("nil Begin returned non-zero time %v", start)
	}
	b.End("x", "cat", start)
	b.EndN("x", "cat", start, "k", 1)
	b.EndNN("x", "cat", start, "k", 1, "k2", 2)
	b.Instant("x", "cat")
}

// The disabled path must be allocation-free: this is the guard the
// steady-state executor loop relies on.
func TestDisabledPathAllocFree(t *testing.T) {
	var b *TraceBuf
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(200, func() {
		start := b.Begin()
		b.End("exec.kernel", "exec", start)
		b.EndN("exec.kernel", "exec", start, "iters", 128)
		c.Add(7)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates: %v allocs/op", allocs)
	}
}

// The enabled steady state must also be allocation-free — spans land
// in a preallocated ring and argument keys are static strings.
func TestEnabledPathAllocFree(t *testing.T) {
	tr := NewTracer()
	b := tr.NewBuf(1, "bench")
	c := &Counter{}
	h := &Histogram{}
	allocs := testing.AllocsPerRun(200, func() {
		start := b.Begin()
		b.EndNN("exec.kernel", "exec", start, "iters", 128, "misses", 3)
		c.Inc()
		h.Observe(1 << 20)
	})
	if allocs != 0 {
		t.Fatalf("enabled obs path allocates: %v allocs/op", allocs)
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	tr := NewTracer()
	tr.SetBufCap(4)
	b := tr.NewBuf(1, "small")
	for i := 0; i < 10; i++ {
		b.End(fmt.Sprintf("span%d", i), "t", b.Begin())
	}
	evs := tr.Events()
	var spans, droppedMarkers int
	for _, ev := range evs {
		if ev.Ph == "X" {
			spans++
		}
		if ev.Name == "spans_dropped" {
			droppedMarkers++
			if got := ev.Args["count"].(int64); got != 6 {
				t.Fatalf("dropped count = %v, want 6", got)
			}
		}
	}
	if spans != 4 {
		t.Fatalf("ring kept %d spans, want 4", spans)
	}
	if droppedMarkers != 1 {
		t.Fatalf("want one spans_dropped marker, got %d", droppedMarkers)
	}
	// The survivors must be the newest spans.
	for _, ev := range evs {
		if ev.Ph == "X" && ev.Name < "span6" {
			t.Fatalf("old span %q survived wrap", ev.Name)
		}
	}
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	b := tr.NewBuf(7, "exec1")
	start := b.Begin()
	time.Sleep(time.Millisecond)
	b.EndN("exec.block", "exec", start, "iters", 99)
	b.Instant("marker", "exec")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	var sawMeta, sawSpan, sawInstant bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
			if ev["name"] != "thread_name" {
				t.Fatalf("metadata event name = %v", ev["name"])
			}
		case "X":
			sawSpan = true
			if ev["name"] != "exec.block" || ev["pid"] != float64(7) {
				t.Fatalf("span fields wrong: %v", ev)
			}
			if ev["dur"].(float64) < 900 { // slept 1ms, dur is in µs
				t.Fatalf("span dur %v µs, want ≥ 900", ev["dur"])
			}
			args := ev["args"].(map[string]any)
			if args["iters"] != float64(99) {
				t.Fatalf("span args = %v", args)
			}
		case "i":
			sawInstant = true
		}
	}
	if !sawMeta || !sawSpan || !sawInstant {
		t.Fatalf("missing event kinds: meta=%v span=%v instant=%v", sawMeta, sawSpan, sawInstant)
	}
}

func TestGlobalTracerLifecycle(t *testing.T) {
	if Tracing() {
		t.Fatal("tracing unexpectedly on at test start")
	}
	if b := NewBuf(1, "off"); b != nil {
		t.Fatal("NewBuf returned non-nil with tracing off")
	}
	tr := StartTracing()
	defer StopTracing()
	if !Tracing() {
		t.Fatal("Tracing() false after StartTracing")
	}
	b := NewBuf(1, "on")
	if b == nil {
		t.Fatal("NewBuf returned nil with tracing on")
	}
	b.End("x", "t", b.Begin())
	got := StopTracing()
	if got != tr {
		t.Fatalf("StopTracing returned %p, want %p", got, tr)
	}
	if Tracing() {
		t.Fatal("Tracing() true after StopTracing")
	}
}

func TestHistogram(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d, want 1106", h.Sum())
	}
	if h.Mean() != 1106.0/7 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if q := h.Quantile(0.5); q < 2 || q > 3 {
		t.Fatalf("p50 = %d, want in [2,3]", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Fatalf("p100 = %d, want ≥ 1000", q)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("kernel.iterations").Add(500)
	r.GetHistogram("rotation.wait.ns").Observe(12345)
	p := r.GetPeer("exec1/peer0")
	p.MsgsSent.Add(10)
	p.BytesSent.Add(2048)

	// Same name returns the same metric.
	if r.GetCounter("kernel.iterations") != r.GetCounter("kernel.iterations") {
		t.Fatal("GetCounter not idempotent")
	}

	snap := r.Snapshot()
	if snap["kernel.iterations"] != int64(500) {
		t.Fatalf("counter snapshot = %v", snap["kernel.iterations"])
	}
	hist := snap["rotation.wait.ns"].(map[string]any)
	if hist["count"] != int64(1) {
		t.Fatalf("histogram snapshot = %v", hist)
	}
	peers := snap["peers"].(map[string]any)
	ring := peers["exec1/peer0"].(map[string]int64)
	if ring["msgs_sent"] != 10 || ring["bytes_sent"] != 2048 {
		t.Fatalf("peer snapshot = %v", ring)
	}

	names := r.Names()
	want := []string{"kernel.iterations", "rotation.wait.ns"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
}

func TestLoopReport(t *testing.T) {
	r := &LoopReport{Loop: "dsl-mf-1"}
	r.Add(WorkerStats{Worker: 1, Blocks: 2, Iters: 100, ComputeNs: 3e9, RotWaitNs: 1e9, CommNs: 0.5e9})
	r.Add(WorkerStats{Worker: 0, Blocks: 2, Iters: 100, ComputeNs: 4e9, RotWaitNs: 0, CommNs: 0.5e9})
	r.Add(WorkerStats{Worker: 1, Blocks: 2, Iters: 100, ComputeNs: 1e9, RotWaitNs: 1e9, CommNs: 0.5e9})

	if len(r.Workers) != 2 || r.Workers[0].Worker != 0 || r.Workers[1].Worker != 1 {
		t.Fatalf("workers = %+v", r.Workers)
	}
	if r.Workers[1].ComputeNs != 4e9 || r.Workers[1].Blocks != 4 {
		t.Fatalf("worker 1 not accumulated: %+v", r.Workers[1])
	}
	total := r.Total()
	if total.ComputeNs != 8e9 || total.Iters != 300 {
		t.Fatalf("total = %+v", total)
	}
	if got := r.RotationComputeRatio(); got != 0.25 {
		t.Fatalf("rotation/compute ratio = %v, want 0.25", got)
	}

	out := r.Render()
	for _, want := range []string{"dsl-mf-1", "worker", "rot-wait s", "TOTAL", "ratio 0.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}

	merged := &LoopReport{Loop: "all"}
	merged.Merge(r)
	merged.Merge(nil)
	if merged.Total() != total {
		t.Fatalf("merge total = %+v, want %+v", merged.Total(), total)
	}
}

func TestServeMetrics(t *testing.T) {
	Default.GetCounter("test.serve.metric").Add(3)
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	orion, ok := vars["orion"].(map[string]any)
	if !ok {
		t.Fatalf("expvar missing orion map: %v", vars)
	}
	if orion["test.serve.metric"] != float64(3) {
		t.Fatalf("orion map = %v", orion)
	}
	// pprof index must be wired.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}

	// Liveness probe.
	resp3, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp3.StatusCode)
	}

	// /report serves the registered LoopReports as JSON.
	SetReportSource(func() []*LoopReport {
		return []*LoopReport{{Loop: "unit", Workers: []WorkerStats{{Worker: 0, Iters: 7}}}}
	})
	defer SetReportSource(nil)
	resp4, err := http.Get("http://" + addr + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var doc ReportDoc
	if err := json.NewDecoder(resp4.Body).Decode(&doc); err != nil {
		t.Fatalf("/report not JSON: %v", err)
	}
	if len(doc.Loops) != 1 || doc.Loops[0].Loop != "unit" || doc.Loops[0].Workers[0].Iters != 7 {
		t.Fatalf("/report doc = %+v", doc)
	}

	// Close must release the listener: a second bind to the same
	// address succeeds afterwards.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := ServeMetrics(addr)
	if err != nil {
		t.Fatalf("rebind after Close failed: %v", err)
	}
	srv2.Close()
}

// StartUnixNs is the wall clock at tracer creation in unix nanoseconds.
// Remote span timestamps are aligned relative to it.
func (t *Tracer) StartUnixNs() int64 { return t.startUnix }

// SetBufCap changes the ring capacity used for buffers created after
// the call (tests shrink it to exercise wrap-around).
func (t *Tracer) SetBufCap(n int) {
	if n > 0 {
		t.bufCap = n
	}
}

// End records a complete span from start to now. start may also come
// from a plain time.Now() call — the runtime reuses the timestamps it
// already takes for the execution report.
func (b *TraceBuf) End(name, cat string, start time.Time) {
	if b == nil {
		return
	}
	b.endArgs(name, cat, start, "", 0, "", 0)
}

// Instant records a zero-duration marker event.
func (b *TraceBuf) Instant(name, cat string) {
	if b == nil {
		return
	}
	b.record(span{name: name, cat: cat, start: time.Since(b.tracer.start), instant: true})
}

// Names returns the sorted metric names currently registered
// (excluding peers).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
