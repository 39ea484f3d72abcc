package driver

import (
	"math"
	"testing"
	"time"

	"orion/internal/obs"
	"orion/internal/obs/analyze"
	"orion/internal/runtime"
)

// identityProfile returns an adapt-profile hook whose every worker has
// cost factor 1.0: Reweight becomes the identity, so a forced recut
// re-materializes exactly the cuts the artifact already carries. Runs
// with it exercise the full quiesce → recut → re-place → resume
// machinery while remaining bit-comparable to an uninterrupted run.
func identityProfile(n int) func(string, *obs.LoopReport) *analyze.WeightProfile {
	return func(kernel string, delta *obs.LoopReport) *analyze.WeightProfile {
		p := &analyze.WeightProfile{Loop: kernel}
		for i := 0; i < n; i++ {
			p.Workers = append(p.Workers, analyze.WorkerCost{Worker: i, CostFactor: 1})
		}
		return p
	}
}

// flightKinds counts flight-recorder events of one kind for one loop
// ("" matches any loop).
func flightKinds(kind, loop string) int {
	n := 0
	for _, ev := range obs.Flight().Events() {
		if ev.Kind == kind && (loop == "" || ev.Loop == loop) {
			n++
		}
	}
	return n
}

// TestChaosAdaptIdentityRecutMFBitwiseInProc: with adaptive
// re-planning armed at a threshold every segment trips (skew index is
// always >= 1) and an identity weight profile injected, every pass
// boundary quiesces, re-cuts the artifact, gathers and redistributes
// every array, and resumes — and because the identity profile recuts
// identical partitions, the result must match a plain uninterrupted
// run bit for bit. This proves the reconfiguration path itself is
// lossless: state migration through gather/redistribute changes
// nothing.
func TestChaosAdaptIdentityRecutMFBitwiseInProc(t *testing.T) {
	want, wantErr := mfReference(t, 3, 4)

	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetAdapt(0.5) // skew >= 1 always: force a recut at every boundary
	sess.SetAdaptProfile(identityProfile(3))
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("adaptive run did not complete: %v", err)
	}

	trail := sess.AdaptTrail()
	if len(trail) != 3 {
		t.Fatalf("adapt trail has %d decisions, want 3 (one per interior boundary)", len(trail))
	}
	for _, d := range trail {
		if !d.Recut {
			t.Fatalf("boundary at pass %d did not recut (skew %.2f)", d.Pass, d.SkewIndex)
		}
	}
	if got := flightKinds("plan.recut", trail[0].Loop); got < 3 {
		t.Fatalf("flight recorder has %d plan.recut events for %s, want >= 3", got, trail[0].Loop)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))

	gotErr, err := sess.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotErr-wantErr) > 1e-9*math.Abs(wantErr) {
		t.Fatalf("accumulator drifted across recuts: %v, want %v", gotErr, wantErr)
	}
}

// TestChaosAdaptIdentityRecutLDABitwiseInProc repeats the identity
// recut check for LDA, whose kernel draws from rand(): the per-(loop,
// executor, pass, step) reseeding must make segmented execution draw
// the same sequences as an uninterrupted run, so even the sampled
// topic assignments match bit for bit across recut boundaries.
func TestChaosAdaptIdentityRecutLDABitwiseInProc(t *testing.T) {
	const topics = 4
	arrays := []string{"z", "doc_topic", "word_topic", "totals"}

	ref, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCheckpointDir(t.TempDir())
	fillLDA(t, ref, topics)
	if _, err := ref.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatal(err)
	}
	want := snapshotBits(ref, arrays...)
	ref.Close()

	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetAdapt(0.5)
	sess.SetAdaptProfile(identityProfile(3))
	fillLDA(t, sess, topics)
	if _, err := sess.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatalf("adaptive LDA run did not complete: %v", err)
	}
	if got := len(sess.AdaptTrail()); got != 2 {
		t.Fatalf("adapt trail has %d decisions, want 2", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, arrays...))
}

// TestChaosAdaptIdentityRecutMFBitwiseTCP runs the identity-recut
// check over real TCP sockets: segment boundaries gather through the
// wire codec and redistribute onto live socket connections, and the
// result still matches the in-process fault-free run bit for bit.
func TestChaosAdaptIdentityRecutMFBitwiseTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	want, _ := mfReference(t, 2, 4)

	sess, err := NewLocalSessionOver(runtime.TCP{}, "127.0.0.1:0", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetAdapt(0.5)
	sess.SetAdaptProfile(identityProfile(2))
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("adaptive TCP run did not complete: %v", err)
	}
	if got := len(sess.AdaptTrail()); got != 3 {
		t.Fatalf("adapt trail has %d decisions, want 3", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosAdaptGenuineRecutReducesSkew fabricates a straggler with a
// synthetic per-iteration delay on worker 0 and lets the real measured
// weight profile drive the recut: the triggering segment's skew index
// must drop by at least 30% once the recut hands the slow worker a
// smaller range — the ISSUE 9 acceptance bar, asserted end to end.
// Every worker sleeps per iteration, worker 0 ten times as long: the
// skew index is max/median compute, and a median made of microseconds of
// real compute moves tenfold with host scheduling.
func TestChaosAdaptGenuineRecutReducesSkew(t *testing.T) {
	runtime.SetBlockDelay(func(execID, iters int) time.Duration {
		if execID == 0 {
			return time.Duration(iters) * 200 * time.Microsecond
		}
		return time.Duration(iters) * 20 * time.Microsecond
	})
	defer runtime.SetBlockDelay(nil)

	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetAdapt(2.0)
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(5)); err != nil {
		t.Fatalf("skewed adaptive run did not complete: %v", err)
	}

	trail := sess.AdaptTrail()
	first := -1
	for i, d := range trail {
		if d.Recut {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("no recut despite a synthetic straggler; trail: %+v", trail)
	}
	if first == len(trail)-1 {
		t.Fatalf("recut only at the last boundary; no post-recut segment to judge (trail %+v)", trail)
	}
	pre := trail[first].SkewIndex
	post := trail[len(trail)-1].SkewIndex
	if post > pre*0.7 {
		t.Fatalf("recut did not reduce skew by >= 30%%: %.2fx -> %.2fx (trail %+v)", pre, post, trail)
	}
	if mfLoss(sess) <= 0 {
		t.Fatal("training produced a degenerate model")
	}
}

// growReferenceMF composes the expected result of an n -> m grow at
// the first pass boundary from two uninterrupted runs: n workers for
// the first pass, then a fresh m-worker session over the carried-over
// parameters for the rest. The MF kernel draws nothing from rand(), so
// the grown run must match this composition bit for bit — both derive
// their m-way cuts from the same raw iteration counts.
func growReferenceMF(t *testing.T, n, m, passes int) (map[string]map[string]uint64, float64) {
	t.Helper()
	a, err := NewLocalSession(n)
	if err != nil {
		t.Fatal(err)
	}
	fillMF(t, a)
	if _, err := a.ParallelFor(mfSrc, Passes(1)); err != nil {
		t.Fatal(err)
	}
	errA, err := a.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewLocalSession(m)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	fillMF(t, b)
	for _, name := range []string{"W", "H"} {
		dst := b.Array(name)
		a.Array(name).ForEach(func(idx []int64, v float64) {
			dst.SetAt(v, idx...)
		})
	}
	a.Close()
	if _, err := b.ParallelFor(mfSrc, Passes(passes-1)); err != nil {
		t.Fatal(err)
	}
	errB, err := b.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	return snapshotBits(b, "W", "H"), errA + errB
}

// TestChaosGrowMFBitwiseInProc grows the fleet 2 -> 3 at the first
// pass boundary of a live loop: accumulators fold down, the fleet
// re-forms at the larger size, partitions re-cut onto it, and the
// final parameters match the composed two-session reference bit for
// bit.
func TestChaosGrowMFBitwiseInProc(t *testing.T) {
	const passes = 4
	want, wantErr := growReferenceMF(t, 2, 3, passes)

	sess, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fillMF(t, sess)
	if err := sess.Grow(3); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ParallelFor(mfSrc, Passes(passes)); err != nil {
		t.Fatalf("grown run did not complete: %v", err)
	}
	if got := sess.Workers(); got != 3 {
		t.Fatalf("fleet = %d workers after grow, want 3", got)
	}
	if got := flightKinds("fleet.grow", ""); got < 1 {
		t.Fatal("no fleet.grow flight event recorded")
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))

	gotErr, err := sess.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotErr-wantErr) > 1e-9*math.Abs(wantErr) {
		t.Fatalf("accumulator drifted across the grow: %v, want %v", gotErr, wantErr)
	}
}

// TestChaosGrowReformLDABitwiseInProc exercises the full grow
// machinery — quiesce, accumulator fold, fleet teardown, re-listen,
// respawn, redistribution — at the same fleet size (Grow(n) is a
// rolling re-form). LDA's rand()-drawing kernel is the sharpest
// detector: the re-formed fleet's executors must reproduce the exact
// per-(loop, executor, pass, step) draw sequences, so the result
// matches an undisturbed run bit for bit.
func TestChaosGrowReformLDABitwiseInProc(t *testing.T) {
	const topics = 4
	arrays := []string{"z", "doc_topic", "word_topic", "totals"}

	ref, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	fillLDA(t, ref, topics)
	if _, err := ref.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatal(err)
	}
	want := snapshotBits(ref, arrays...)
	ref.Close()

	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fillLDA(t, sess, topics)
	if err := sess.Grow(3); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatalf("reform-grow run did not complete: %v", err)
	}
	if got := sess.Workers(); got != 3 {
		t.Fatalf("fleet = %d workers, want 3", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, arrays...))
}

// TestChaosGrowTCPAdmitsNewWorker grows a real-socket fleet 2 -> 3
// mid-run: the two original workers are orion-worker-style rejoin
// loops, the third dials a master that is not listening yet and is
// admitted when the grow re-forms the fleet. The result matches the
// composed in-process reference bit for bit (the wire codec
// round-trips float64 exactly).
func TestChaosGrowTCPAdmitsNewWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and rejoin waits")
	}
	const passes = 4
	want, _ := growReferenceMF(t, 2, 3, passes)

	sess, err := NewTCPSession("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	startWorker := func(id int) {
		go func() {
			cur := id
			for {
				var e *runtime.Executor
				var err error
				for attempt := 0; attempt < 200; attempt++ {
					e, err = runtime.NewExecutor(runtime.TCP{}, sess.Addr(), "127.0.0.1:0", cur)
					if err == nil {
						break
					}
					time.Sleep(50 * time.Millisecond)
				}
				if err != nil {
					return
				}
				if err := <-e.Start(); err == nil {
					return
				}
				cur = -1 // slots renumber on re-form; let the master assign
			}
		}()
	}
	startWorker(0)
	startWorker(1)
	if err := sess.WaitForWorkers(); err != nil {
		t.Fatal(err)
	}
	// The newcomer: dials until the grow re-opens the listener.
	startWorker(-1)

	fillMF(t, sess)
	if err := sess.Grow(3); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ParallelFor(mfSrc, Passes(passes)); err != nil {
		t.Fatalf("TCP grow did not complete: %v", err)
	}
	if got := sess.Workers(); got != 3 {
		t.Fatalf("fleet = %d workers after grow, want 3", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}
