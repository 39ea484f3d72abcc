// Fleet reconfiguration: one quiesce → re-cut → re-place → resume
// loop (runReconfigurable) with three ways to change shape between
// attempts. recover rebuilds a dead fleet and restores the newest
// checkpoint; recut re-cuts the partitions from measured per-worker
// cost at a loop boundary; resize re-forms the fleet at a larger (or
// the same) size at a boundary — an elastic grow. Every resumption
// lands at an exact (pass, step) position with array placement
// reproduced for it.
package driver

import (
	"errors"
	"fmt"
	"time"

	"orion/internal/check"
	"orion/internal/diag"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// resumePos is a loop position: the first (pass, step) still to run.
type resumePos struct {
	pass, step int
}

// reconfigState is the bookkeeping one ParallelFor's reconfiguration
// loop threads through its attempts.
type reconfigState struct {
	// entryClock is the master clock at loop entry; checkpoints at or
	// before it belong to earlier loops and are never restored.
	entryClock int64
	// floor is the position the driver's array copies correspond to
	// (wrote): loop-entry state at first, then the last restored
	// checkpoint or the last quiesced segment boundary.
	floor resumePos
	// segBase snapshots the loop's execution report at segment entry,
	// so the adaptive trigger can judge the segment alone (reports
	// accumulate for the kernel's whole run).
	segBase *obs.LoopReport
	// restarts counts crash recoveries spent (bounded by maxRestarts).
	restarts int
}

// runReconfigurable drives one ParallelFor to completion through
// worker losses and planned reconfigurations. Each attempt distributes
// state for its resume position and executes up to a stop boundary;
// while an adaptive or grow trigger is armed, execution proceeds one
// pass per segment so every boundary is a reconfiguration point. A
// worker loss aborts the fleet, rebuilds it at the same size (respawn
// for local sessions, rejoin for TCP fleets), restores the newest usable
// checkpoint, and retries from there. Without a checkpoint directory
// (or once maxRestarts attempts are spent) a loss fails fast — the
// ORN301 path callers already render, naming the arrays whose unfetched
// updates went with the fleet.
func (s *Session) runReconfigurable(e *compiledLoop, kernel string, passes int, attempt func(start resumePos, stopPass int) error) error {
	if passes <= 0 {
		passes = 1
	}
	rc := &reconfigState{entryClock: s.master.Clock()}
	start := resumePos{}
	// A checkpoint directory keeps the driver's copies current at every
	// boundary (here, and wrote after each attempt): a recovery with no
	// checkpoint of this call to restore restarts from them, the floor.
	if s.checkpointDir != "" {
		if err := s.fetch("checkpoint-armed"); err != nil {
			return err
		}
	}
	for {
		stopPass := s.segmentStop(start.pass, passes)
		if s.adaptEnabled {
			rc.segBase = s.master.Report(kernel)
		}
		err := attempt(start, stopPass)
		if err == nil {
			// Loop boundary: pull remote span rings while every worker
			// is idle, so a later crash cannot take their history down
			// with it; a no-op unless tracing. A failed collection ends
			// the fleet generation: the next wait returns its error, and
			// recovery, if armed, starts there.
			_ = s.master.CollectTraces()
			if stopPass >= passes {
				return nil
			}
			// Quiesced at an interior boundary: a recut moves what it
			// re-keys by way of the driver and a resize fetches everything
			// first, without a checkpoint round-trip.
			boundary := resumePos{pass: stopPass}
			if s.adaptEnabled {
				if err := s.recut(e, kernel, s.master.Report(kernel).Delta(rc.segBase), boundary); err != nil {
					return err
				}
			}
			if want := s.growTarget; want > 0 {
				s.growTarget = 0
				if err := s.resize(e, kernel, want, boundary); err != nil {
					return err
				}
			}
			start = boundary
			rc.floor = start
			continue
		}
		if !errors.Is(err, runtime.ErrWorkerLost) || s.checkpointDir == "" || rc.restarts >= s.maxRestarts {
			return s.lost(err)
		}
		rc.restarts++
		pos, rerr := s.recover(e, kernel, rc, err)
		if rerr != nil {
			return rerr
		}
		start = pos
	}
}

// segmentStop picks the pass boundary the next attempt runs to: the
// next boundary while a reconfiguration trigger is armed (so the
// trigger gets its quiesce point), the loop's end otherwise — the
// zero-overhead path when nothing is armed.
func (s *Session) segmentStop(startPass, passes int) int {
	if (s.adaptEnabled || s.growTarget > 0) && startPass+1 < passes {
		return startPass + 1
	}
	return passes
}

// resize re-forms the fleet at want workers (never fewer than it has)
// at a quiesced position: accumulator contributions fold into the
// driver's base while the old executors are still alive (the new fleet
// starts from zero) and what only they hold is fetched, then the fleet
// is torn down and brought up at the target size. The caller's next
// attempt re-distributes arrays and iteration space onto it; a grown
// fleet outruns the artifact's cuts and is balanced afresh there.
func (s *Session) resize(e *compiledLoop, kernel string, want int, at resumePos) error {
	if err := s.foldAccumulators(e); err != nil {
		return err
	}
	if err := s.fetch("reconfigure"); err != nil {
		return err
	}
	oldN := s.n
	if err := s.rebuildFleet(want); err != nil {
		return err
	}
	obs.Flight().Record(obs.FlightEvent{
		Kind: obs.FlightFleetGrow, Clock: s.master.Clock(),
		Loop: kernel, Pass: at.pass, Step: at.step, Worker: -1,
		Detail: fmt.Sprintf("%d -> %d workers", oldN, s.n),
	})
	return nil
}

// foldAccumulators adds the live executors' accumulator contributions
// to the driver's base, for a fleet about to be replaced.
func (s *Session) foldAccumulators(e *compiledLoop) error {
	for _, name := range lang.Accumulators(e.loop) {
		v, err := s.master.AccumSum(name)
		if err != nil {
			return err
		}
		s.accumBase[name] += v
	}
	return nil
}

// recover rebuilds the fleet after the worker loss cause and restores
// the newest usable checkpoint; it returns the position the next
// attempt resumes from.
func (s *Session) recover(e *compiledLoop, kernel string, rc *reconfigState, cause error) (resumePos, error) {
	recStart := time.Now()
	if rerr := s.rebuildFleet(s.n); rerr != nil {
		return resumePos{}, fmt.Errorf("driver: recovery failed (%v) after %w", rerr, cause)
	}
	pos, restored, rerr := s.restoreLatest(e, kernel, rc.entryClock)
	if rerr != nil {
		return resumePos{}, rerr
	}
	if restored {
		rc.floor = pos
		obs.Flight().Record(obs.FlightEvent{
			Kind: obs.FlightCkptRestore, Clock: s.master.Clock(),
			Loop: kernel, Pass: pos.pass, Step: pos.step, Worker: -1,
		})
	}
	s.recoveries.Add(1)
	obs.GetCounter("runtime.recoveries").Inc()
	s.master.RecordRecovery(recStart, rc.floor.pass, rc.floor.step)
	return rc.floor, nil
}

// rejoinWait is how long a re-forming fleet waits for all its
// executors to dial in before the re-form fails.
const rejoinWait = 10 * time.Second

// rebuildFleet tears the current fleet down (there is none yet when a
// local session starts) and forms a fresh generation of exactly want
// executors with Master.Reform. A local session drains the old
// executors — they unwind when the master connection drops — and
// spawns the full target complement alongside; a TCP session waits for
// reconnecting (or brand-new, for a grow) workers, and fails at
// rejoinWait if fewer than want have joined.
func (s *Session) rebuildFleet(want int) error {
	s.master.Abort()
	s.generation.Add(1)
	for _, d := range s.execDone {
		<-d
	}
	s.execDone = nil
	spawned := make(chan error, 1)
	go func() {
		for i := 0; s.spawnExec != nil && i < want; i++ {
			done, err := s.spawnExec(i)
			if err != nil {
				spawned <- err
				return
			}
			s.execDone = append(s.execDone, done)
		}
		spawned <- nil
	}()
	err := s.master.Reform(want, rejoinWait)
	if serr := <-spawned; serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	s.n = want
	return nil
}

// restoreLatest loads the newest checkpoint usable for this loop on
// the current fleet: written during this call (clock beyond the loop's
// entry clock), fingerprint-compatible with the plan artifact (ORN303
// otherwise), and — for mid-pass snapshots — cut for exactly the
// current fleet size. Restored arrays replace the driver copies and
// accumulator bases are adopted; reports whether anything was restored.
func (s *Session) restoreLatest(e *compiledLoop, kernel string, entryClock int64) (resumePos, bool, error) {
	mans, err := dsm.ListCheckpoints(s.checkpointDir)
	if err != nil {
		return resumePos{}, false, err
	}
	for _, man := range mans {
		if man.Loop != kernel || man.Clock <= entryClock {
			continue
		}
		if d := check.CheckResume(man.Loop, e.art.ContentHash, man.Fingerprint, diag.Pos{}); d != nil {
			s.lastDiags.Add(*d)
			return resumePos{}, false, fmt.Errorf("driver: [%s] %s: %w", d.Code, d.Message, check.ErrResumeMismatch)
		}
		if man.ResumeStep != 0 && man.Workers != s.n {
			continue
		}
		restored, err := dsm.RestoreCheckpoint(s.checkpointDir, man)
		if err != nil {
			return resumePos{}, false, err
		}
		for _, a := range restored {
			s.RegisterArray(a)
		}
		for name, v := range man.Accums {
			s.accumBase[name] = v
		}
		return resumePos{pass: man.ResumePass, step: man.ResumeStep}, true, nil
	}
	return resumePos{}, false, nil
}

// checkpointSpec assembles the runtime checkpoint policy for one loop:
// nil when checkpointing is off.
func (s *Session) checkpointSpec(e *compiledLoop, arrays []string) *runtime.CheckpointSpec {
	if s.checkpointDir == "" {
		return nil
	}
	spec := &runtime.CheckpointSpec{
		Dir:         s.checkpointDir,
		Every:       s.checkpointEvery,
		Arrays:      arrays,
		Accums:      lang.Accumulators(e.loop),
		Fingerprint: e.art.ContentHash,
	}
	if len(s.accumBase) > 0 {
		spec.AccumBase = make(map[string]float64, len(s.accumBase))
		for k, v := range s.accumBase {
			spec.AccumBase[k] = v
		}
	}
	return spec
}
