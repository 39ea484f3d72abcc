// Package obs is Orion's zero-dependency observability layer: a
// low-overhead span tracer emitting Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing), a counters/histograms
// registry exported via expvar plus an optional HTTP endpoint with
// pprof wired in, and the per-loop execution report the runtime fills
// in (compute vs. rotation-wait vs. communication per worker).
//
// Tracing is disabled by default. The disabled path is nil-safe and
// allocation-free: components hold a *TraceBuf that is nil when no
// tracer is installed, and every TraceBuf method no-ops on a nil
// receiver — the steady-state executor loop pays nothing (guarded by
// testing.AllocsPerRun in obs_test.go). When enabled, each
// instrumented goroutine writes into its own fixed-capacity ring
// buffer of spans under an uncontended mutex, so tracing is race-clean
// by construction and never grows memory without bound.
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBufCap is the per-goroutine span ring capacity. At ~64 bytes
// per span this bounds each instrumented goroutine to ~1 MiB of trace
// memory; older spans are overwritten (and counted as dropped).
const DefaultBufCap = 1 << 14

// Tracer collects spans from a set of per-goroutine ring buffers and
// renders them as one Chrome trace-event JSON document. A tracer also
// carries a process-unique identity and its start wall clock so dumps
// shipped from other processes can be aligned onto its timeline (see
// Dump/Ingest in dump.go).
type Tracer struct {
	start     time.Time
	startUnix int64 // wall clock at start, unix nanoseconds
	id        int64
	bufCap    int

	mu     sync.Mutex
	tidSeq int
	bufs   []*TraceBuf
	remote []*remoteLane
}

// tracerSeq disambiguates tracers created in the same process; the pid
// component disambiguates across processes on one machine.
var tracerSeq atomic.Int64

// NewTracer creates an empty tracer. Timestamps in the emitted trace
// are microseconds since this call (monotonic clock).
func NewTracer() *Tracer {
	now := time.Now()
	return &Tracer{
		start:     now,
		startUnix: now.UnixNano(),
		id:        int64(os.Getpid())<<40 ^ now.UnixNano() ^ tracerSeq.Add(1),
		bufCap:    DefaultBufCap,
	}
}

// ID is the tracer's process-unique identity. Trace-collection uses it
// to recognise (and skip) a dump that came from the tracer itself —
// in-process executors share the master's tracer, so their spans are
// already local.
func (t *Tracer) ID() int64 { return t.id }

// global is the process-wide tracer, nil when tracing is disabled.
var global atomic.Pointer[Tracer]

// StartTracing installs a fresh global tracer. Components constructed
// afterwards (via NewBuf) record spans into it; components constructed
// before keep their nil no-op buffers.
func StartTracing() *Tracer {
	t := NewTracer()
	global.Store(t)
	return t
}

// StopTracing uninstalls and returns the global tracer (nil if tracing
// was not on). The returned tracer can still be exported.
func StopTracing() *Tracer { return global.Swap(nil) }

// Tracing reports whether a global tracer is installed.
func Tracing() bool { return global.Load() != nil }

// CurrentTracer returns the installed global tracer, nil when tracing
// is disabled.
func CurrentTracer() *Tracer { return global.Load() }

// NewBuf returns a span buffer registered with the global tracer for
// one goroutine (pid groups related buffers — e.g. one worker process —
// and name labels the thread track). Returns nil when tracing is
// disabled; all TraceBuf methods are nil-safe no-ops.
func NewBuf(pid int, name string) *TraceBuf {
	t := global.Load()
	if t == nil {
		return nil
	}
	return t.NewBuf(pid, name)
}

// NewBuf registers a span ring with this tracer.
func (t *Tracer) NewBuf(pid int, name string) *TraceBuf {
	if t == nil {
		return nil
	}
	b := &TraceBuf{tracer: t, pid: pid, name: name, evs: make([]span, t.bufCap)}
	t.mu.Lock()
	t.tidSeq++
	b.tid = t.tidSeq
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// span is one recorded event. Argument keys must be static strings —
// the recording path never allocates.
type span struct {
	name    string
	cat     string
	argKey  string
	argVal  int64
	arg2Key string
	arg2Val int64
	start   time.Duration // since tracer start
	dur     time.Duration
	instant bool
}

// TraceBuf is one goroutine's span ring. A single goroutine records
// into it; the mutex only serializes recording against export.
type TraceBuf struct {
	tracer *Tracer
	pid    int
	tid    int
	name   string

	mu      sync.Mutex
	evs     []span
	head    int   // next write slot
	n       int   // live span count
	total   int64 // spans ever recorded (monotonic)
	dumped  int64 // spans already exported by Dump (sequence number)
	dropped int64
}

// Begin returns the start timestamp for a span, or the zero time when
// tracing is off (so callers can pass it straight to End).
func (b *TraceBuf) Begin() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndN records a span carrying one integer argument.
func (b *TraceBuf) EndN(name, cat string, start time.Time, key string, val int64) {
	if b == nil {
		return
	}
	b.endArgs(name, cat, start, key, val, "", 0)
}

// EndNN records a span carrying two integer arguments.
func (b *TraceBuf) EndNN(name, cat string, start time.Time, k1 string, v1 int64, k2 string, v2 int64) {
	if b == nil {
		return
	}
	b.endArgs(name, cat, start, k1, v1, k2, v2)
}

func (b *TraceBuf) endArgs(name, cat string, start time.Time, k1 string, v1 int64, k2 string, v2 int64) {
	if start.IsZero() {
		// The span began before tracing was enabled on this buffer.
		start = b.tracer.start
	}
	b.record(span{
		name: name, cat: cat,
		argKey: k1, argVal: v1, arg2Key: k2, arg2Val: v2,
		start: start.Sub(b.tracer.start), dur: time.Since(start),
	})
}

func (b *TraceBuf) record(s span) {
	b.mu.Lock()
	b.evs[b.head] = s
	b.head = (b.head + 1) % len(b.evs)
	b.total++
	if b.n < len(b.evs) {
		b.n++
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// event renders a span that starts ts nanoseconds into the tracer's
// timeline, in lane (pid, tid).
func (s span) event(ts int64, pid, tid int) TraceEvent {
	ev := TraceEvent{Name: s.name, Cat: s.cat, Ph: "X", Ts: float64(ts) / 1e3, Dur: float64(s.dur) / 1e3, Pid: pid, Tid: tid}
	if s.instant {
		ev.Ph, ev.Dur, ev.Scope = "i", 0, "t"
	}
	if s.argKey != "" {
		ev.Args = map[string]any{s.argKey: s.argVal}
		if s.arg2Key != "" {
			ev.Args[s.arg2Key] = s.arg2Val
		}
	}
	return ev
}

// TraceEvent is one entry of the Chrome trace-event format ("X"
// complete spans, "i" instants, "M" metadata).
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds since trace start
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Events snapshots every buffer's spans — local rings and ingested
// remote lanes alike — as trace events sorted by timestamp (metadata
// thread-name events first).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	bufs := append([]*TraceBuf(nil), t.bufs...)
	// Snapshot lane slice headers under the lock: Ingest appends under
	// the same lock, so the [0,len) prefix captured here is immutable.
	remote := make([]remoteLane, len(t.remote))
	for i, l := range t.remote {
		remote[i] = *l
	}
	t.mu.Unlock()

	// The local rings render as lanes too, ahead of the remote ones.
	var lanes []remoteLane
	for _, b := range bufs {
		b.mu.Lock()
		l := remoteLane{pid: b.pid, tid: b.tid, name: b.name, dropped: b.dropped}
		for i := 0; i < b.n; i++ {
			s := b.evs[(b.head-b.n+i+len(b.evs))%len(b.evs)]
			l.spans = append(l.spans, s.event(int64(s.start), b.pid, b.tid))
		}
		b.mu.Unlock()
		lanes = append(lanes, l)
	}
	var out []TraceEvent
	for _, l := range append(lanes, remote...) {
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
			Args: map[string]any{"name": l.name},
		})
		out = append(out, l.spans...)
		if l.dropped > 0 {
			out = append(out, TraceEvent{
				Name: "spans_dropped", Ph: "i", Ts: float64(time.Since(t.start)) / 1e3,
				Pid: l.pid, Tid: l.tid, Scope: "t",
				Args: map[string]any{"count": l.dropped},
			})
		}
	}
	SortEvents(out)
	return out
}

// SortEvents orders a trace for rendering: metadata ("M") events
// first so viewers name lanes before drawing spans, then by timestamp.
// The sort is stable, so equal-timestamp spans keep insertion order.
func SortEvents(evs []TraceEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ph == "M" != (evs[j].Ph == "M") {
			return evs[i].Ph == "M"
		}
		return evs[i].Ts < evs[j].Ts
	})
}

// WriteJSON emits the Chrome trace-event document
// ({"traceEvents": [...]}), loadable at ui.perfetto.dev.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile writes the trace document to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
