package driver

import (
	"errors"
	"testing"
	"time"

	"orion/internal/obs"
	"orion/internal/runtime"
)

// TestChaosTraceCollectionAndFlightLog severs a worker mid-run with
// tracing enabled: recovery must complete the loop, trace collection
// must not deadlock on the re-formed (or dead) connections, the
// surviving spans must still be in the timeline, and the flight log
// must record the loss and the rejoin in clock order.
func TestChaosTraceCollectionAndFlightLog(t *testing.T) {
	obs.Flight().Reset()
	tracer := obs.StartTracing()
	defer obs.StopTracing()

	sess, chaos, _ := chaosLocalSession(t, 3, 42)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("recovery did not complete the loop: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}

	closeBounded(t, sess)
	obs.StopTracing()

	// The severed worker's pre-fault spans and the survivors' spans are
	// all still on the timeline (in-process executors share the
	// tracer, so the question is that collection didn't wedge or wipe).
	evs := tracer.Events()
	if n := countSpans(evs, "clock.step"); n == 0 {
		t.Fatal("no clock.step spans survived the faulted run")
	}
	if n := countSpans(evs, "exec.block"); n == 0 {
		t.Fatal("no exec.block spans survived the faulted run")
	}

	// Flight log: the loss, the checkpoint restore, and the rejoin all
	// recorded, in clock order.
	flight := obs.Flight().Events()
	lost := firstKind(flight, "worker.lost")
	if lost == nil {
		t.Fatalf("no worker.lost event in flight log: %+v", flight)
	}
	if lost.Clock < 5 {
		t.Fatalf("worker.lost at clock %d, but the fault fired at clock 5", lost.Clock)
	}
	rejoin := firstKind(flight, "worker.rejoin")
	if rejoin == nil {
		t.Fatalf("no worker.rejoin event in flight log: %+v", flight)
	}
	if rejoin.Clock < lost.Clock {
		t.Fatalf("rejoin at clock %d precedes loss at clock %d", rejoin.Clock, lost.Clock)
	}
	if restore := firstKind(flight, "ckpt.restore"); restore == nil {
		t.Fatalf("no ckpt.restore event in flight log: %+v", flight)
	}
}

// TestChaosTraceCloseWithDeadConnDoesNotDeadlock aborts a run without
// recovery (no checkpoint dir) and closes the session while one
// connection is severed: the close-time trace collection must fail
// on the generation the severed link ended instead of hanging.
func TestChaosTraceCloseWithDeadConnDoesNotDeadlock(t *testing.T) {
	tracer := obs.StartTracing()
	defer obs.StopTracing()

	sess, chaos, _ := chaosLocalSession(t, 2, 9)
	chaos.Schedule(runtime.FaultEvent{Clock: 2, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(2)); !errors.Is(err, runtime.ErrWorkerLost) {
		t.Fatalf("expected ErrWorkerLost without a checkpoint dir, got %v", err)
	}
	closeBounded(t, sess)
	obs.StopTracing()
	if n := countSpans(tracer.Events(), "clock.step"); n == 0 {
		t.Fatal("pre-fault spans lost")
	}
}

// closeBounded closes the session in a goroutine and fails the test if
// it does not return promptly — Close collects traces from every
// connection, so a hang here means a wait on a dead link that its loss
// did not end.
func closeBounded(t *testing.T, sess *Session) {
	t.Helper()
	done := make(chan struct{})
	go func() { sess.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked collecting traces from a severed fleet")
	}
}

func countSpans(evs []obs.TraceEvent, name string) int {
	n := 0
	for _, ev := range evs {
		if ev.Ph == "X" && ev.Name == name {
			n++
		}
	}
	return n
}

func firstKind(evs []obs.FlightEvent, kind obs.FlightKind) *obs.FlightEvent {
	for i := range evs {
		if evs[i].Kind == kind {
			return &evs[i]
		}
	}
	return nil
}
