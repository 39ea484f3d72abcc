package runtime

// Distributed trace collection. When tracing is on, the master pulls
// every executor's span rings at loop boundaries and at shutdown:
// first a short clock-sync handshake (traceSyncPings rounds of
// MsgTraceSync, the offset taken from each executor's lowest-RTT
// exchange by the midpoint method), then a MsgTraceDump round answered
// with each executor's not-yet-shipped spans. Each round is a request
// to every executor and one await, so collection waits on the fleet as
// every other exchange does: it fails on the first executor error, and
// a fleet whose earlier wait failed is not asked at all. The master
// ingests each dump into its own tracer, shifted onto its timeline, so
// one Chrome trace file carries a clock-aligned Perfetto lane per
// worker process.

import (
	"time"

	"orion/internal/obs"
)

// traceSyncPings is the number of clock-sync round trips per worker;
// the estimate with the smallest RTT wins.
const traceSyncPings = 3

// CollectTraces pulls every executor's spans into the installed global
// tracer. A no-op when tracing is off; otherwise it fails as any wait on
// the fleet does.
func (m *Master) CollectTraces() error {
	tr := obs.CurrentTracer()
	if tr == nil {
		return nil
	}
	start := m.trace.Begin()
	collected := 0
	defer func() { m.trace.EndN("trace.collect", "master", start, "workers", int64(collected)) }()
	// Executor id's clock offset (its wall clock minus the master's, in
	// nanoseconds) is T1 − (t0+t2)/2 for the exchange with the smallest
	// round trip, which gives the tightest bound. The master keeps t0.
	t0, rtt, offset := make([]int64, m.n), make([]int64, m.n), make([]int64, m.n)
	ping := func(id int) *Msg {
		t0[id] = time.Now().UnixNano()
		return &Msg{Kind: MsgTraceSync}
	}
	for i := 0; i < traceSyncPings; i++ {
		err := m.round("clock sync", ping, MsgTraceSync, func(msg *Msg) error {
			id, t2 := msg.ExecutorID, time.Now().UnixNano()
			if i == 0 || t2-t0[id] < rtt[id] {
				rtt[id], offset[id] = t2-t0[id], msg.T1-(t0[id]+t2)/2
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	dump := &Msg{Kind: MsgTraceDump, TracerID: tr.ID()}
	return m.round("trace dump", func(int) *Msg { return dump }, MsgTraceDump, func(msg *Msg) error {
		if msg.Dump != nil { // nil: an executor that never enabled tracing has nothing
			// Ingest skips a dump of the master's own tracer, which
			// in-process executors share: their spans are already local.
			tr.Ingest(msg.Dump, offset[msg.ExecutorID])
			collected++
		}
		return nil
	})
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
