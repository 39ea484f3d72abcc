package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-owned interval around a call into a layer's public
// function. parent is the id of the span open when this one began (0
// for none); ids start at 1.
type span struct {
	id, parent int
	name       string
	phase      string
	start, end time.Duration // since the recorder was created
}

// recorder keeps spans in memory until the run ends. The harness is
// single-goroutine, so the open-span stack needs no lock. A nil
// recorder times calls without recording them: the end-to-end phase
// runs with spans off.
type recorder struct {
	t0       time.Time
	workload string
	phase    string
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

func (r *recorder) setPhase(phase string) {
	if r != nil {
		r.phase = phase
	}
}

// do times f and, when recording, wraps it in a span.
func (r *recorder) do(name string, f func() error) (time.Duration, error) {
	if r == nil {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, phase: r.phase, start: time.Since(r.t0)})
	r.open = append(r.open, id)
	err := f()
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.end = time.Since(r.t0)
	return s.end - s.start, err
}

// traceEvent is one Chrome trace-event record (the subset Perfetto
// needs: complete spans and thread-name metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// events renders the spans with one lane (tid) per phase.
func (r *recorder) events() []traceEvent {
	lanes := map[string]int{}
	var out []traceEvent
	for _, s := range r.spans {
		tid, ok := lanes[s.phase]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.phase] = tid
			out = append(out, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.phase},
			})
		}
		out = append(out, traceEvent{
			Name: s.name, Cat: s.phase, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": r.workload},
		})
	}
	return out
}

// writeFile writes the trace to dir/<workload>.trace.json.
func (r *recorder) writeFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.workload+".trace.json")
	raw, err := json.Marshal(traceDoc{TraceEvents: r.events(), DisplayTimeUnit: "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
