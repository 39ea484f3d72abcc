package obs

// The flight recorder is an always-on bounded ring of structured
// lifecycle events — plan cache hits, guard demotions, checkpoint
// writes/restores, worker loss and rejoin, fleet changes. Events
// carry the (loop, pass, step) the runtime was executing plus the
// master's loop clock, so they correlate with trace spans (clock.step
// and exec.block spans carry the same keys as span args). The ring is
// cheap enough to leave on in production runs and is flushed to disk
// as JSONL on demand — orion-run registers a deferred flush so the log
// survives aborts and panics.

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultFlightCap bounds the event ring; older events are overwritten
// and counted as dropped.
const DefaultFlightCap = 4096

// FlightKind names what a flight event records.
type FlightKind string

// The flight-event kinds, every one a recorder may log: DESIGN.md's
// "Kinds" table documents exactly this set (the docs lint holds it to
// these constants).
const (
	FlightPlanCacheHit  FlightKind = "plan.cache.hit"
	FlightPlanCacheMiss FlightKind = "plan.cache.miss"
	FlightIterShip      FlightKind = "iterspace.ship"
	FlightIterReuse     FlightKind = "iterspace.reuse"
	FlightArrayShip     FlightKind = "array.ship"
	FlightArrayReuse    FlightKind = "array.reuse"
	FlightArrayFetch    FlightKind = "array.fetch"
	FlightGuardDemoted  FlightKind = "guard.demoted"
	FlightPlanRecut     FlightKind = "plan.recut"
	FlightCkptWrite     FlightKind = "ckpt.write"
	FlightCkptRestore   FlightKind = "ckpt.restore"
	FlightWorkerLost    FlightKind = "worker.lost"
	FlightWorkerRejoin  FlightKind = "worker.rejoin"
	FlightFleetGrow     FlightKind = "fleet.grow"
	FlightFleetShrink   FlightKind = "fleet.shrink"
	FlightLinkCorrupt   FlightKind = "link.corrupt"
)

// FlightEvent is one lifecycle event. Worker is -1 when the event is
// not tied to a specific worker; Pass/Step are -1 when the event is
// outside any loop step.
type FlightEvent struct {
	UnixNs int64      `json:"t_ns"`
	Clock  int64      `json:"clock"`
	Kind   FlightKind `json:"kind"`
	Loop   string     `json:"loop,omitempty"`
	Pass   int        `json:"pass"`
	Step   int        `json:"step"`
	Worker int        `json:"worker"`
	Detail string     `json:"detail,omitempty"`
}

// EventLog is a bounded, mutex-guarded ring of flight events.
type EventLog struct {
	mu      sync.Mutex
	evs     []FlightEvent
	head    int
	n       int
	dropped int64
}

// NewEventLog creates a ring holding at most capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &EventLog{evs: make([]FlightEvent, capacity)}
}

// flight is the process-wide recorder, always on.
var flight = NewEventLog(DefaultFlightCap)

// Flight returns the process-wide flight recorder.
func Flight() *EventLog { return flight }

// Record appends an event, stamping UnixNs if the caller left it zero.
// The recording path does not allocate (the ring is pre-sized).
func (l *EventLog) Record(ev FlightEvent) {
	if l == nil {
		return
	}
	if ev.UnixNs == 0 {
		ev.UnixNs = time.Now().UnixNano()
	}
	l.mu.Lock()
	l.evs[l.head] = ev
	l.head = (l.head + 1) % len(l.evs)
	if l.n < len(l.evs) {
		l.n++
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// Events snapshots the ring oldest-first.
func (l *EventLog) Events() []FlightEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]FlightEvent, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.evs[(l.head-l.n+i+len(l.evs))%len(l.evs)])
	}
	return out
}

// Dropped reports how many events were overwritten before export.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Reset clears the ring (tests isolate themselves with it).
func (l *EventLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.head, l.n, l.dropped = 0, 0, 0
	l.mu.Unlock()
}

// WriteJSONL writes the ring oldest-first, one JSON object per line.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range l.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FlushFile writes the ring to path as JSONL, replacing any previous
// contents. Safe to call from a deferred abort path.
func (l *EventLog) FlushFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
