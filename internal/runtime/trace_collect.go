package runtime

// Distributed trace collection. When tracing is on, the master pulls
// every executor's span rings at loop boundaries and at shutdown:
// first a short clock-sync handshake (three MsgTraceSync pings, the
// offset taken from the lowest-RTT exchange by the midpoint method),
// then a MsgTraceDump request answered with the executor's
// not-yet-shipped spans. The master ingests each dump into its own
// tracer, shifted onto its timeline, so one Chrome trace file carries
// a clock-aligned Perfetto lane per worker process. Collection is
// strictly best-effort: every wait is bounded, so a severed worker can
// stall it for at most traceCollectTimeout and never deadlocks the
// recovery path.

import (
	"time"

	"orion/internal/obs"
)

// traceCollectTimeout bounds each wait for a sync or dump reply.
const traceCollectTimeout = 5 * time.Second

// traceSyncPings is the number of clock-sync round trips per worker;
// the estimate with the smallest RTT wins.
const traceSyncPings = 3

// CollectTraces pulls every live executor's spans into the installed
// global tracer and returns how many executors answered. A no-op (0)
// when tracing is off. Failures are per-executor: a dead or silent
// worker is skipped after a bounded wait and the rest still ship.
func (m *Master) CollectTraces() int {
	tr := obs.CurrentTracer()
	if tr == nil {
		return 0
	}
	start := m.trace.Begin()
	collected := 0
	for id, c := range m.conns {
		if c == nil {
			continue
		}
		if m.collectTrace(tr, id, c) {
			collected++
		}
	}
	m.trace.EndN("trace.collect", "master", start, "workers", int64(collected))
	return collected
}

func (m *Master) collectTrace(tr *obs.Tracer, id int, c *codec) bool {
	offset, ok := m.syncClock(id, c)
	if !ok {
		return false
	}
	if err := c.send(&Msg{Kind: MsgTraceDump, TracerID: tr.ID()}); err != nil {
		return false
	}
	resp, ok := m.awaitTrace(MsgTraceDump, id, 0)
	if !ok {
		return false
	}
	if resp.Dump == nil {
		return false // an executor that never enabled tracing has nothing
	}
	// Ingest skips a dump of the master's own tracer, which in-process
	// executors share: their spans are already local.
	tr.Ingest(resp.Dump, offset)
	return true
}

// syncClock estimates executor id's clock offset (its wall clock minus
// the master's) in nanoseconds via the midpoint method: for each ping,
// offset = T1 − (t0+t2)/2; the exchange with the smallest round trip
// gives the tightest bound and wins.
func (m *Master) syncClock(id int, c *codec) (int64, bool) {
	var offset int64
	best := int64(1) << 62
	for i := 0; i < traceSyncPings; i++ {
		t0 := time.Now().UnixNano()
		if err := c.send(&Msg{Kind: MsgTraceSync, T0: t0}); err != nil {
			return 0, false
		}
		resp, ok := m.awaitTrace(MsgTraceSync, id, t0)
		if !ok {
			return 0, false
		}
		t2 := time.Now().UnixNano()
		if rtt := t2 - t0; rtt < best {
			best = rtt
			offset = resp.T1 - (t0+t2)/2
		}
	}
	return offset, true
}

// traceDump builds the reply to a MsgTraceDump request: the spans this
// process's tracer recorded since the previous dump. Its Dump is nil
// when tracing is off here, and carries no spans when this executor
// shares the requesting tracer (in-process fleets) — then the spans are
// already in the master's rings and shipping them would duplicate
// every lane.
func (e *Executor) traceDump(masterTracer int64) *Msg {
	out := &Msg{Kind: MsgTraceDump}
	if tr := obs.CurrentTracer(); tr != nil && tr.ID() == masterTracer {
		out.Dump = &obs.TraceDump{TracerID: tr.ID()}
	} else if tr != nil {
		out.Dump = tr.Dump()
	}
	return out
}

// awaitTrace waits for executor id's reply of the given kind, dropping
// stale responses from earlier timed-out collections. On an executor
// error it re-queues the error for the next barrier (collection must
// not swallow loss signals) and gives up on this executor.
func (m *Master) awaitTrace(kind MsgKind, id int, t0 int64) (*Msg, bool) {
	deadline := time.After(traceCollectTimeout)
	for {
		select {
		case msg := <-m.ch.traceCh:
			if msg.Kind != kind {
				continue
			}
			if kind == MsgTraceSync && msg.T0 != t0 {
				continue // stale ping reply
			}
			if kind == MsgTraceDump && msg.ExecutorID != id {
				continue // stale dump from an earlier timeout
			}
			return msg, true
		case err := <-m.ch.execErr:
			select {
			case m.ch.execErr <- err:
			default:
			}
			return nil, false
		case <-deadline:
			return nil, false
		}
	}
}
