package runtime

import (
	"fmt"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
)

// CheckpointSpec configures coordinated checkpointing for one
// ParallelFor: at qualifying step barriers the master gathers the
// listed arrays and accumulators — every executor is idle at the
// barrier, so the snapshot is consistent — and commits them with the
// loop clock and the plan-artifact fingerprint into a versioned
// manifest under Dir (§4.3's DistArray-to-disk checkpointing, made
// automatic and consistent).
type CheckpointSpec struct {
	// Dir is the checkpoint directory (created if needed).
	Dir string
	// Every writes a checkpoint whenever clock%Every == 0 (in completed
	// global steps). <= 0 checkpoints at pass boundaries only.
	Every int64
	// Arrays are the DistArray names snapshotted (the loop's gathered
	// set). Accums are accumulator names whose running sums are saved;
	// AccumBase holds contributions from before the last restore so a
	// chain of recoveries never drops or double-counts.
	Arrays    []string
	Accums    []string
	AccumBase map[string]float64
	// Fingerprint is the plan artifact's content hash; a resume
	// validates it so state is never restored into a different program
	// (ORN303 on mismatch).
	Fingerprint string
	// Keep bounds how many committed checkpoints remain on disk
	// (default dsm.DefaultKeep).
	Keep int
}

// checkpointDue decides whether a checkpoint follows the step that
// just completed.
func (m *Master) checkpointDue(def LoopDef, step, steps int) bool {
	spec := def.Checkpoint
	if spec == nil || spec.Dir == "" {
		return false
	}
	if spec.Every <= 0 {
		return step == steps-1 // pass boundary
	}
	return m.clock.Load()%spec.Every == 0
}

// writeCheckpoint gathers the spec's arrays and accumulators at a step
// barrier and commits them as one manifest. pass/step name the step
// that just completed; the manifest records the position the resumed
// run should start from.
func (m *Master) writeCheckpoint(def LoopDef, pass, step, steps int) error {
	spec := def.Checkpoint
	start := m.trace.Begin()
	// The span must close on every path — including failed gathers —
	// so the trace shows how long a checkpoint attempt took before it
	// died. bytes stays 0 unless the write succeeds.
	var bytes int64
	defer func() { m.trace.EndN("ckpt.write", "master", start, "bytes", bytes) }()
	arrays := make([]*dsm.DistArray, 0, len(spec.Arrays))
	for _, name := range spec.Arrays {
		a, err := m.Gather(name)
		if err != nil {
			return fmt.Errorf("gathering %q: %w", name, err)
		}
		arrays = append(arrays, a)
	}
	accums := make(map[string]float64, len(spec.Accums))
	for _, name := range spec.Accums {
		v, err := m.AccumSum(name)
		if err != nil {
			return fmt.Errorf("aggregating %q: %w", name, err)
		}
		accums[name] = v + spec.AccumBase[name]
	}
	resumePass, resumeStep := pass, step+1
	if resumeStep == steps {
		resumePass, resumeStep = pass+1, 0
	}
	man := &dsm.Manifest{
		Clock:       m.clock.Load(),
		ResumePass:  resumePass,
		ResumeStep:  resumeStep,
		Workers:     m.n,
		Loop:        def.Kernel,
		Fingerprint: spec.Fingerprint,
		Accums:      accums,
	}
	written, err := dsm.WriteCheckpoint(spec.Dir, man, arrays, spec.Keep)
	if err != nil {
		return err
	}
	bytes = written
	obs.GetCounter("checkpoint.writes").Inc()
	obs.GetCounter("checkpoint.bytes").Add(bytes)
	obs.Flight().Record(obs.FlightEvent{
		Kind: "ckpt.write", Clock: man.Clock,
		Loop: def.Kernel, Pass: resumePass, Step: resumeStep, Worker: -1,
		Detail: fmt.Sprintf("%d bytes", bytes),
	})
	return nil
}

// RecordRecovery emits a recovery span on the master's trace buffer:
// start is when the driver began rebuilding the fleet, pass/step the
// position the resumed run restarts from.
func (m *Master) RecordRecovery(start time.Time, pass, step int) {
	m.trace.EndNN("recovery", "master", start, "pass", int64(pass), "step", int64(step))
}

// Abort tears every executor connection down *without* the shutdown
// handshake: in-process executors unwind and exit, while external
// workers running with -rejoin treat the lost master connection as a
// cue to reconnect. Recovery calls this before re-forming the fleet;
// it is idempotent.
func (m *Master) Abort() {
	m.closed.Store(true)
	m.mu.Lock()
	m.aborts++ // whatever fleet comes next holds none of what this one did
	m.mu.Unlock()
	for _, c := range m.conns {
		if c != nil {
			c.close()
		}
	}
	if m.ln != nil {
		m.ln.Close()
	}
}

// Relisten re-opens the master's endpoint for a fresh generation of n
// executors after Abort. Follow with WaitForExecutors (fixed fleet
// size — the in-process recovery path) or use Reform (flexible size —
// the TCP rejoin path). State accumulated for gather bookkeeping and
// reports survives; barrier channels are replaced so nothing from the
// dead generation can leak into the next.
func (m *Master) Relisten(n int) error {
	if n <= 0 {
		return fmt.Errorf("runtime: relisten with %d executors", n)
	}
	ln, err := m.t.Listen(m.addr)
	if err != nil {
		return fmt.Errorf("runtime: recovery re-listen on %s: %w", m.addr, err)
	}
	m.ln = ln
	m.n = n
	m.conns = make([]*codec, n)
	m.peers = make([]string, n)
	m.ch = newMasterChans(n)
	m.lastSeen = freshSeen(n)
	m.closed.Store(false)
	return nil
}

// Reform rebuilds the fleet from whichever workers reconnect: it
// accepts registrations at the original address until `want` have
// joined or `wait` elapses, then proceeds if at least `min` made it —
// the survivors adopt fresh contiguous ids (shipped in their setup
// messages), so a shrunken fleet stays a valid ring. Returns the new
// fleet size.
//
// Call Abort first; the caller is responsible for redistributing
// arrays and iteration space onto the new fleet before running loops.
func (m *Master) Reform(want, min int, wait time.Duration) (int, error) {
	if min <= 0 {
		min = 1
	}
	if want < min {
		want = min
	}
	ln, err := m.t.Listen(m.addr)
	if err != nil {
		return 0, fmt.Errorf("runtime: recovery re-listen on %s: %w", m.addr, err)
	}
	type joiner struct {
		c        *codec
		peerAddr string
	}
	joinCh := make(chan joiner, want)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c := newCodec(conn)
			hello, err := c.recv()
			if err != nil || hello.Kind != MsgHello {
				c.close()
				continue
			}
			select {
			case joinCh <- joiner{c, hello.PeerAddr}:
			default:
				// Fleet already full — latecomer is turned away.
				c.close()
			}
		}
	}()
	var joined []joiner
	deadline := time.After(wait)
collect:
	for len(joined) < want {
		select {
		case j := <-joinCh:
			joined = append(joined, j)
		case <-deadline:
			break collect
		}
	}
	ln.Close()
	if len(joined) < min {
		for _, j := range joined {
			j.c.close()
		}
		return 0, fmt.Errorf("runtime: recovery: only %d of %d workers rejoined within %v: %w",
			len(joined), want, wait, ErrWorkerLost)
	}
	n := len(joined)
	if n < want {
		obs.Flight().Record(obs.FlightEvent{
			Kind: "fleet.shrink", Clock: m.clock.Load(),
			Pass: -1, Step: -1, Worker: -1,
			Detail: fmt.Sprintf("%d of %d workers rejoined", n, want),
		})
	}
	m.n = n
	m.conns = make([]*codec, n)
	m.peers = make([]string, n)
	m.ch = newMasterChans(n)
	m.lastSeen = freshSeen(n)
	m.closed.Store(false)
	for id, j := range joined {
		j.c.stats = obs.Peer(fmt.Sprintf("master/exec%d", id))
		m.conns[id] = j.c
		m.peers[id] = j.peerAddr
		obs.Flight().Record(obs.FlightEvent{
			Kind: "worker.rejoin", Clock: m.clock.Load(),
			Pass: -1, Step: -1, Worker: id,
			Detail: j.peerAddr,
		})
	}
	for id, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgSetup, ExecutorID: id, Peers: m.peers, Trace: obs.Tracing()}); err != nil {
			return 0, fmt.Errorf("runtime: recovery setup to executor %d: %w", id, err)
		}
		go m.handleConn(id, c, m.ch, m.lastSeen[id])
	}
	return n, nil
}
