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
		Kind: obs.FlightCkptWrite, Clock: man.Clock,
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
// cue to reconnect. The listen address stays bound, so they dial the
// same endpoint. Recovery calls this before re-forming the fleet; it is
// idempotent.
func (m *Master) Abort() {
	m.gen.end()
	m.mu.Lock()
	m.aborts++ // whatever fleet comes next holds none of what this one did
	m.mu.Unlock()
	for _, c := range m.conns {
		if c != nil {
			c.close()
		}
	}
}

// Reform forms the next fleet after Abort from the executors that dial
// in — respawned in-process, reconnecting over TCP, or brand-new for a
// grow: it admits exactly want of them, or fails once wait elapses
// naming how many joined. The caller redistributes arrays and the
// iteration space onto it before running loops; gather bookkeeping and
// reports survive.
func (m *Master) Reform(want int, wait time.Duration) error {
	return m.admit(want, wait)
}
