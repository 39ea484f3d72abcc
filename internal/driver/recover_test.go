package driver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"orion/internal/data"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// fillMF populates a session with the same MF problem as setupMF
// (identical seeds), usable on sessions built over arbitrary
// transports.
func fillMF(t *testing.T, sess *Session) {
	t.Helper()
	const rows, cols, rank = 40, 30, 6
	ds := data.NewRatings(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 600, Rank: rank, Noise: 0.05, Seed: 3})
	ratings := sess.CreateArray("ratings", false, rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(1))
	sess.CreateArray("W", true, rank, rows).FillRandn(rng, 1.0/rank)
	sess.CreateArray("H", true, rank, cols).FillRandn(rng, 1.0)
	sess.SetGlobal("step_size", 0.05)
	sess.SetGlobal("err", 0)
}

// fillLDA populates a session with the ldaFixture corpus (identical
// seeds and round-robin initialization).
func fillLDA(t *testing.T, sess *Session, topics int) {
	t.Helper()
	const docs, vocab = 40, 30
	c := data.NewCorpus(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: topics, MeanDocLen: 20, Seed: 4})
	tokens := sess.CreateArray("tokens", false, docs, vocab)
	z := sess.CreateArray("z", false, docs, vocab)
	dt := sess.CreateArray("doc_topic", true, int64(topics), docs)
	wt := sess.CreateArray("word_topic", true, int64(topics), vocab)
	totals := sess.CreateArray("totals", true, int64(topics))
	if err := sess.CreateBuffer("tot_buf", "totals"); err != nil {
		t.Fatal(err)
	}
	i := 0
	for d, words := range c.Words {
		seen := map[int64]bool{}
		for _, w := range words {
			if seen[w] {
				continue
			}
			seen[w] = true
			tokens.SetAt(1, int64(d), w)
			topic := int64(i%topics) + 1
			z.SetAt(float64(topic), int64(d), w)
			dt.AddAt(1, topic-1, int64(d))
			wt.AddAt(1, topic-1, w)
			totals.AddAt(1, topic-1)
			i++
		}
	}
	sess.SetGlobal("K", float64(topics))
	sess.SetGlobal("alpha", 0.5)
	sess.SetGlobal("beta", 0.1)
	sess.SetGlobal("vbeta", 0.1*float64(vocab))
}

// snapshotBits captures the exact float64 bit patterns of the named
// arrays, keyed by index, for bitwise comparisons across runs.
func snapshotBits(s *Session, names ...string) map[string]map[string]uint64 {
	out := map[string]map[string]uint64{}
	for _, name := range names {
		m := map[string]uint64{}
		s.Array(name).ForEach(func(idx []int64, v float64) {
			m[fmt.Sprint(idx)] = math.Float64bits(v)
		})
		out[name] = m
	}
	return out
}

func assertBitwiseEqual(t *testing.T, want, got map[string]map[string]uint64) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d entries, want %d", name, len(g), len(w))
		}
		diffs := 0
		for idx, bits := range w {
			if g[idx] != bits {
				diffs++
				if diffs <= 3 {
					t.Errorf("%s%s = %x, want %x", name, idx, g[idx], bits)
				}
			}
		}
		if diffs > 0 {
			t.Fatalf("%s: %d of %d elements differ from the fault-free run", name, diffs, len(w))
		}
	}
}

// chaosLocalSession builds an in-process session whose every connection
// runs through a seeded fault injector driven by the master's clock.
func chaosLocalSession(t *testing.T, n int, seed int64) (*Session, *runtime.Chaos, *runtime.InProc) {
	t.Helper()
	tr := runtime.NewInProc()
	chaos := runtime.NewChaos(tr, seed)
	sess, err := NewLocalSessionOver(chaos, "", "", n)
	if err != nil {
		t.Fatal(err)
	}
	sess.SetClockHook(chaos.Advance)
	return sess, chaos, tr
}

// mfReference runs MF fault-free (checkpointing enabled, so the two
// runs execute identical code paths) and returns the final parameter
// bits plus the accumulated squared error.
func mfReference(t *testing.T, n, passes int) (map[string]map[string]uint64, float64) {
	t.Helper()
	ref, err := NewLocalSession(n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.SetCheckpointDir(t.TempDir())
	fillMF(t, ref)
	if _, err := ref.ParallelFor(mfSrc, Passes(passes)); err != nil {
		t.Fatal(err)
	}
	errSum, err := ref.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	return snapshotBits(ref, "W", "H"), errSum
}

// TestChaosRecoveryMFBitwiseInProc is the tentpole acceptance check: a
// worker killed mid-loop at a scripted clock, the fleet re-formed, the
// loop resumed from the latest coordinated checkpoint — and the final
// DistArrays are byte-identical to a run that never faulted.
func TestChaosRecoveryMFBitwiseInProc(t *testing.T) {
	want, wantErr := mfReference(t, 3, 4)

	sess, chaos, _ := chaosLocalSession(t, 3, 42)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	// Kill executor 1's master link mid-pass-1 (clocks 0-2 are pass 0;
	// the pass-boundary checkpoint at clock 3 already exists).
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("recovery did not complete the loop: %v", err)
	}
	if got := chaos.Applied(); got != 1 {
		t.Fatalf("applied faults = %d, want 1", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))

	// The accumulator survives the recovery chain exactly: checkpointed
	// passes contribute through the saved base, re-executed passes
	// contribute live. (Summation grouping differs, so compare to a
	// relative tolerance rather than bitwise.)
	gotErr, err := sess.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotErr-wantErr) > 1e-9*math.Abs(wantErr) {
		t.Fatalf("accumulator drifted across recovery: %v, want %v", gotErr, wantErr)
	}
}

// TestChaosRecoveryMFMidPassResumeBitwise checkpoints every clock and
// severs mid-pass: recovery resumes at the exact step after the last
// checkpoint, with rotated arrays redistributed at the faulted run's
// ring phase — still bitwise identical to fault-free.
func TestChaosRecoveryMFMidPassResumeBitwise(t *testing.T) {
	want, _ := mfReference(t, 3, 4)

	sess, chaos, _ := chaosLocalSession(t, 3, 7)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetCheckpointEvery(1)
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: sess.Addr(), Conn: 2, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("mid-pass recovery did not complete the loop: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosRecoveryLDABitwiseInProc repeats the acceptance check for
// LDA, whose kernel draws from rand(): the per-(loop, executor, pass,
// step) reseeding makes the recovered replay draw the fault-free
// sequence, so even the sampled topic assignments match bit for bit.
func TestChaosRecoveryLDABitwiseInProc(t *testing.T) {
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

	sess, chaos, _ := chaosLocalSession(t, 3, 13)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 4, Addr: sess.Addr(), Conn: 0, Kind: runtime.FaultSever})
	fillLDA(t, sess, topics)
	if _, err := sess.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatalf("LDA recovery did not complete: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, arrays...))
}

// TestChaosRecoveryMFBitwiseTCP runs the acceptance check over real
// TCP sockets: the fault injector wraps the TCP transport, the lost
// worker's replacement re-registers through the re-opened listener, and
// the result still matches the fault-free run bit for bit.
func TestChaosRecoveryMFBitwiseTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	want, _ := mfReference(t, 2, 4)

	chaos := runtime.NewChaos(runtime.TCP{}, 21)
	sess, err := NewLocalSessionOver(chaos, "127.0.0.1:0", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetClockHook(chaos.Advance)
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 3, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("TCP recovery did not complete: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosWorkerLostFailsFastAndLeaksNothing: without a checkpoint
// directory a worker loss surfaces promptly as ErrWorkerLost (the
// ORN301 path orion-run renders) instead of recovering — and after the
// aborted session closes, every connection ever dialed through the
// transport has been released.
func TestChaosWorkerLostFailsFastAndLeaksNothing(t *testing.T) {
	sess, chaos, tr := chaosLocalSession(t, 3, 9)
	chaos.Schedule(runtime.FaultEvent{Clock: 2, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	_, err := sess.ParallelFor(mfSrc, Passes(2))
	if !errors.Is(err, runtime.ErrWorkerLost) {
		t.Fatalf("err = %v, want ErrWorkerLost fail-fast", err)
	}
	if got := sess.Recoveries(); got != 0 {
		t.Fatalf("recovered without a checkpoint directory (%d times)", got)
	}
	sess.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tr.OpenConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection ends still open after abort + close", tr.OpenConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMidRotationSeveranceTCPFailsFast severs a ring link (not a
// master link) over TCP mid-loop: the executor blocked on the rotation
// surfaces the loss, the master maps it to ErrWorkerLost, and without a
// checkpoint the loop fails fast.
func TestChaosMidRotationSeveranceTCPFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	chaos := runtime.NewChaos(runtime.TCP{}, 17)
	sess, err := NewLocalSessionOver(chaos, "127.0.0.1:0", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetClockHook(chaos.Advance)
	// Executor 1 ships rotated partitions to executor 0's ring endpoint;
	// severing that link breaks the rotation itself.
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 1, Addr: ring, Conn: 0, Kind: runtime.FaultSever})
	fillMF(t, sess)
	_, err = sess.ParallelFor(mfSrc, Passes(2))
	if !errors.Is(err, runtime.ErrWorkerLost) {
		t.Fatalf("mid-rotation severance: err = %v, want ErrWorkerLost", err)
	}
}

// TestChaosMidRotationSeveranceRecoversBitwise severs a ring link —
// the connection that carries rotated partitions as pooled raw frames
// — mid-flight while checkpoints exist: the in-flight pooled-buffer
// rotation is torn down, the fleet re-forms, the partitions are
// redistributed, and the result is still bitwise identical to the
// fault-free run. This is the recovery counterpart of the fail-fast
// ring-severance test, and it proves a half-received pooled frame
// can never leak into the recovered state.
func TestChaosMidRotationSeveranceRecoversBitwise(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 19)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	// Executor 1 ships rotated partitions to executor 0's ring endpoint;
	// severing that link kills a rotation in flight, not a master link.
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: ring, Conn: 0, Kind: runtime.FaultSever})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("mid-rotation recovery did not complete: %v", err)
	}
	if got := chaos.Applied(); got != 1 {
		t.Fatalf("applied faults = %d, want 1", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosDropRecoveredViaHeartbeat blackholes a worker's master link:
// the connection stays open, so only heartbeat staleness can detect the
// loss. With a checkpoint the loop recovers and the result is still
// bitwise fault-free.
func TestChaosDropRecoveredViaHeartbeat(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 23)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetHeartbeat(1500 * time.Millisecond)
	chaos.Schedule(runtime.FaultEvent{Clock: 3, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultDrop})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("drop recovery did not complete: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosRecoverySLRConverges covers the served-array (parameter
// server) path: a 1D loop with sharded weights loses a worker and
// recovers from the pass-boundary checkpoint. Served updates from
// concurrent executors land in nondeterministic order, so the check is
// convergence and exact recovery accounting, not bitwise equality.
func TestChaosRecoverySLRConverges(t *testing.T) {
	sess, chaos, _ := chaosLocalSession(t, 2, 31)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 1, Addr: sess.Addr(), Conn: 0, Kind: runtime.FaultSever})

	const n, dim = 300, 64
	samples := sess.CreateArray("samples", false, n)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < n; i++ {
		samples.SetAt(rng.Float64()*0.98+0.01, i)
	}
	sess.CreateArray("weights", true, dim)
	if err := sess.CreateBuffer("w_buf", "weights"); err != nil {
		t.Fatal(err)
	}
	sess.SetGlobal("step_size", 0.1)

	if _, err := sess.ParallelFor(slrSrc, Passes(3)); err != nil {
		t.Fatalf("SLR recovery did not complete: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	var moved bool
	sess.Array("weights").ForEach(func(_ []int64, v float64) {
		if v != 0 {
			moved = true
		}
	})
	if !moved {
		t.Fatal("weights never moved across the recovery")
	}
}

// startTCPWorker runs an executor against a TCP session's master in the
// background. With rejoin it mimics orion-worker -rejoin: on a lost
// master it re-registers and lets the master assign the slot.
func startTCPWorker(master string, id int, tr runtime.Transport, rejoin bool) {
	go func() {
		cur := id
		for {
			var e *runtime.Executor
			var err error
			for attempt := 0; attempt < 100; attempt++ {
				e, err = runtime.NewExecutor(tr, master, "127.0.0.1:0", cur)
				if err == nil {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if err != nil {
				return
			}
			if err := <-e.Start(); err == nil || !rejoin {
				return
			}
			cur = -1
		}
	}()
}

// TestChaosTCPShrinkRecovery loses a worker that never comes back: the
// fleet re-forms from the two survivors (SetRejoin), the artifact's
// materialized cuts are coalesced onto them, and training completes on
// the shrunken ring.
func TestChaosTCPShrinkRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and rejoin waits")
	}
	sess, err := NewTCPSession("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	chaos := runtime.NewChaos(runtime.TCP{}, 11)
	sess.SetClockHook(chaos.Advance)
	sess.SetCheckpointDir(t.TempDir())
	sess.SetRejoin(2, 2*time.Second)

	// Workers 0 and 1 mimic orion-worker -rejoin; worker 2 dials through
	// the fault injector and stays dead once severed.
	startWorker := func(id int, tr runtime.Transport, rejoin bool) { startTCPWorker(sess.Addr(), id, tr, rejoin) }
	startWorker(0, runtime.TCP{}, true)
	startWorker(1, runtime.TCP{}, true)
	startWorker(2, chaos, false)
	if err := sess.WaitForWorkers(); err != nil {
		t.Fatal(err)
	}
	chaos.Schedule(runtime.FaultEvent{Clock: 4, Addr: sess.Addr(), Conn: 0, Kind: runtime.FaultSever})

	fillMF(t, sess)
	before := mfLoss(sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("shrink recovery failed: %v", err)
	}
	if got := sess.Workers(); got != 2 {
		t.Fatalf("fleet = %d workers, want the 2 survivors", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	if after := mfLoss(sess); after >= before*0.7 {
		t.Fatalf("training on the shrunken fleet did not converge: %v -> %v", before, after)
	}
}

// TestChaosOrderedWavefrontMidPassResumeBitwise kills a worker in the
// middle of an ordered pass, with a checkpoint every five clocks: the
// recovery resumes at the step after the last one with H's time
// partitions placed where the wavefront had them (sched.Schedule.Holder)
// — on all three executors, one of them handing off to a successor that
// is not its ring predecessor — and ends bit for bit where the
// fault-free run and the serial interpreter do.
func TestChaosOrderedWavefrontMidPassResumeBitwise(t *testing.T) {
	const n, passes = 3, 2
	ref, err := NewLocalSession(n)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCheckpointDir(t.TempDir())
	fillMF(t, ref)
	if _, err := ref.ParallelFor(mfSrc, Passes(passes), Ordered()); err != nil {
		t.Fatal(err)
	}
	want := snapshotBits(ref, "W", "H")
	ref.Close()
	assertBitwiseEqual(t, serialMFLexicographic(t, passes), want)

	sess, chaos, _ := chaosLocalSession(t, n, 29)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	sess.SetCheckpointEvery(5)
	// 24 time parts: 26 steps a pass. Clock 41 is pass 1, step 15; the
	// newest checkpoint, at clock 40, resumes at step 14.
	chaos.Schedule(runtime.FaultEvent{Clock: 41, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	fillMF(t, sess)
	obs.Flight().Reset()
	if _, err := sess.ParallelFor(mfSrc, Passes(passes), Ordered()); err != nil {
		t.Fatalf("recovery did not complete the ordered loop: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	restored := false
	for _, ev := range obs.Flight().Events() {
		restored = restored || ev.Kind == "ckpt.restore" && ev.Pass == 1 && ev.Step == 14
	}
	if !restored {
		t.Error("the recovery did not resume mid-pass at pass 1, step 14")
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosLossFoundAtShipRecovers: a worker dies between two calls and
// the next one finds out when it ships an array the driver wrote in
// between — a send fails, not a step. That is a worker loss like any
// other: with a checkpoint directory set the call recovers and ends bit
// for bit where a fault-free session does.
func TestChaosLossFoundAtShipRecovers(t *testing.T) {
	call := func(s *Session) {
		t.Helper()
		if _, err := s.ParallelFor(mfSrc, Passes(2)); err != nil {
			t.Fatalf("a call after the worker loss: %v", err)
		}
	}
	ref, err := NewLocalSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sess, chaos, _ := chaosLocalSession(t, 2, 31)
	defer sess.Close()
	for _, s := range []*Session{ref, sess} {
		s.SetCheckpointDir(t.TempDir())
		fillMF(t, s)
		call(s)
		s.Array("W").Vec(3)[1] += 0.5
	}
	chaos.Schedule(runtime.FaultEvent{Clock: sess.Clock(), Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultSever})
	chaos.Advance(sess.Clock())
	call(ref)
	obs.Flight().Reset()
	call(sess)
	if got := sess.Recoveries(); got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	// The first attempt's ship of W failed; the recovered one ships both.
	want := []string{"ship:W mutated", "ship:H fleet", armedH, armedW}
	if got := arrayDecisions(); !slices.Equal(got, want) {
		t.Errorf("model arrays %v, want %v", got, want)
	}
	assertBitwiseEqual(t, snapshotBits(ref, "W", "H"), snapshotBits(sess, "W", "H"))
}
