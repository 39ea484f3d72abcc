package obs

// Cross-process trace shipping. A worker process exports its tracer's
// span rings as a TraceDump (the runtime frames it field by field);
// the master ingests each dump into its own tracer, shifting remote
// timestamps by the clock offset estimated during the trace-sync
// handshake. Dumps are incremental — each span is shipped at most once
// even when the master collects at every loop boundary — and ingest is
// idempotent per (tracer, buffer) lane, so repeated collections extend
// existing Perfetto lanes instead of duplicating them.

import "time"

// SpanRec is the wire form of one recorded span. StartNs is
// nanoseconds since the *owning* tracer's start; the receiver
// re-anchors it using the dump's StartUnixNs and the estimated clock
// offset.
type SpanRec struct {
	Name    string
	Cat     string
	K1      string
	V1      int64
	K2      string
	V2      int64
	StartNs int64
	DurNs   int64
	Instant bool
}

// BufDump is one span ring's not-yet-shipped suffix.
type BufDump struct {
	Pid     int
	Tid     int // tid in the source tracer; the receiver renumbers
	Name    string
	Spans   []SpanRec
	Dropped int64
}

// TraceDump is everything one process's tracer has recorded since the
// previous dump.
type TraceDump struct {
	TracerID    int64
	StartUnixNs int64
	Bufs        []BufDump
}

// Dump exports every span recorded since the previous Dump call and
// advances the per-buffer cursor. Buffers with nothing new are elided.
func (t *Tracer) Dump() *TraceDump {
	t.mu.Lock()
	bufs := append([]*TraceBuf(nil), t.bufs...)
	t.mu.Unlock()

	d := &TraceDump{TracerID: t.id, StartUnixNs: t.startUnix}
	for _, b := range bufs {
		b.mu.Lock()
		// Sequence numbers: the ring currently holds spans
		// [total-n, total). Ship those at or past the dump cursor;
		// anything between the cursor and total-n was overwritten
		// before it could be shipped (already counted in dropped).
		from := b.total - int64(b.n)
		if b.dumped > from {
			from = b.dumped
		}
		bd := BufDump{Pid: b.pid, Tid: b.tid, Name: b.name, Dropped: b.dropped}
		for seq := from; seq < b.total; seq++ {
			i := (b.head - int(b.total-seq) + len(b.evs)) % len(b.evs)
			s := b.evs[i]
			bd.Spans = append(bd.Spans, SpanRec{
				Name: s.name, Cat: s.cat,
				K1: s.argKey, V1: s.argVal, K2: s.arg2Key, V2: s.arg2Val,
				StartNs: int64(s.start), DurNs: int64(s.dur), Instant: s.instant,
			})
		}
		b.dumped = b.total
		b.mu.Unlock()
		if len(bd.Spans) > 0 || bd.Dropped > 0 {
			d.Bufs = append(d.Bufs, bd)
		}
	}
	return d
}

// remoteLane holds ingested spans from one remote buffer, already
// converted to clock-aligned trace events on this tracer's timeline.
type remoteLane struct {
	tracerID int64
	srcTid   int
	pid      int
	tid      int
	name     string
	dropped  int64
	spans    []TraceEvent
}

// Ingest merges a remote dump into this tracer. offsetNs is the
// estimated remote-minus-local clock offset in nanoseconds (midpoint
// method): a remote span's wall time on the local clock is
// StartUnixNs + StartNs − offsetNs. Dumps carrying this tracer's own
// ID are skipped — the spans are already local (in-process executors
// share the master's tracer).
func (t *Tracer) Ingest(d *TraceDump, offsetNs int64) {
	if t == nil || d == nil || d.TracerID == t.id {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range d.Bufs {
		l := t.lane(d.TracerID, b)
		for _, s := range b.Spans {
			sp := span{name: s.Name, cat: s.Cat, argKey: s.K1, argVal: s.V1, arg2Key: s.K2, arg2Val: s.V2,
				dur: time.Duration(s.DurNs), instant: s.Instant}
			l.spans = append(l.spans, sp.event(d.StartUnixNs+s.StartNs-offsetNs-t.startUnix, l.pid, l.tid))
		}
		if b.Dropped > l.dropped {
			l.dropped = b.Dropped
		}
	}
}

// lane finds or creates the ingest lane for one remote buffer. Lanes
// are keyed by (source tracer, source tid) so incremental dumps from
// the same worker keep extending one Perfetto track; tids are
// renumbered from this tracer's sequence to avoid colliding with local
// buffers.
func (t *Tracer) lane(tracerID int64, b BufDump) *remoteLane {
	for _, l := range t.remote {
		if l.tracerID == tracerID && l.srcTid == b.Tid {
			return l
		}
	}
	t.tidSeq++
	l := &remoteLane{
		tracerID: tracerID, srcTid: b.Tid,
		pid: b.Pid, tid: t.tidSeq, name: b.Name,
	}
	t.remote = append(t.remote, l)
	return l
}

// RemoteLanes reports how many remote buffers have been ingested (tests
// use it to confirm cross-process collection).
//
//lint:ignore reach a test hook the driver's TCP trace test shares
func (t *Tracer) RemoteLanes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.remote)
}
