package driver

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"orion/internal/runtime"
)

// The chaos soak: seeded random fault schedules mixing all seven fault
// kinds against full training runs, asserting the one invariant the
// whole robustness layer exists for — whatever a hostile network does
// short of partitioning the fleet forever, the final model is bitwise
// identical to a run over a perfect network.
//
// Fault placement is constrained to schedules the runtime guarantees
// it can detect:
//   - drop and reorder target master links only: the worker's
//     heartbeat keeps bytes (and the reorder release vehicle) flowing,
//     so staleness or a sequence check always fires. On a ring link a
//     held or blackholed rotation frame may never be followed by
//     another write, which only the step-stall bound would catch.
//   - corrupt targets ring links with a payload-biased offset (past
//     the frame header), so the CRC trailer detects it on the very
//     next rotation instead of wedging a desynced stream.
//   - sever, delay, truncate, and duplicate land anywhere.
func scheduleSoakFaults(rng *rand.Rand, sess *Session, chaos *runtime.Chaos, faults int, maxClock int64) {
	rings := sess.master.PeerAddrs()
	kinds := []runtime.FaultKind{
		runtime.FaultSever, runtime.FaultDrop, runtime.FaultDelay,
		runtime.FaultCorrupt, runtime.FaultTruncate,
		runtime.FaultDuplicate, runtime.FaultReorder,
	}
	for i := 0; i < faults; i++ {
		ev := runtime.FaultEvent{
			Clock: 1 + rng.Int63n(maxClock),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
		switch ev.Kind {
		case runtime.FaultDrop, runtime.FaultReorder:
			ev.Addr, ev.Conn = sess.Addr(), rng.Intn(sess.Workers())
		case runtime.FaultCorrupt:
			ev.Addr, ev.Conn = rings[rng.Intn(len(rings))], 0
			ev.Offset = 8 * (32 + rng.Int63n(64))
		default:
			if rng.Intn(2) == 0 {
				ev.Addr, ev.Conn = sess.Addr(), rng.Intn(sess.Workers())
			} else {
				ev.Addr, ev.Conn = rings[rng.Intn(len(rings))], 0
			}
		}
		chaos.Schedule(ev)
	}
}

// soakSession builds a 2-worker chaos session hardened for arbitrary
// fault schedules: per-clock checkpoints (so any recovery replays
// bitwise), an armed heartbeat (so drops and wedged links are
// detected), and a restart budget far above any schedule's fault
// count.
func soakSession(t *testing.T, seed int64) (*Session, *runtime.Chaos) {
	t.Helper()
	sess, chaos, _ := chaosLocalSession(t, 2, seed)
	sess.SetCheckpointDir(t.TempDir())
	sess.SetCheckpointEvery(1)
	sess.SetHeartbeat(1200 * time.Millisecond)
	sess.maxRestarts = 64
	return sess, chaos
}

func soakMF(t *testing.T, seed int64, faults int, want map[string]map[string]uint64, wantErr float64) {
	t.Helper()
	const passes = 4
	sess, chaos := soakSession(t, seed)
	defer sess.Close()
	fillMF(t, sess)
	rng := rand.New(rand.NewSource(seed))
	scheduleSoakFaults(rng, sess, chaos, faults, int64(passes*2-2))
	if _, err := sess.ParallelFor(mfSrc, Passes(passes)); err != nil {
		t.Fatalf("seed %d: soak run did not complete: %v", seed, err)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
	gotErr, err := sess.Accumulate("err")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotErr-wantErr) > 1e-9*math.Abs(wantErr) {
		t.Fatalf("seed %d: accumulator drifted across the soak: %v, want %v", seed, gotErr, wantErr)
	}
	t.Logf("seed %d: %d/%d faults applied, %d recoveries, bitwise clean",
		seed, chaos.Applied(), faults, sess.Recoveries())
}

func soakLDA(t *testing.T, seed int64, faults int, want map[string]map[string]uint64) {
	t.Helper()
	const topics, passes = 4, 3
	arrays := []string{"z", "doc_topic", "word_topic", "totals"}
	sess, chaos := soakSession(t, seed)
	defer sess.Close()
	fillLDA(t, sess, topics)
	rng := rand.New(rand.NewSource(seed))
	scheduleSoakFaults(rng, sess, chaos, faults, int64(passes*2-2))
	if _, err := sess.ParallelFor(ldaDSL, Passes(passes)); err != nil {
		t.Fatalf("seed %d: LDA soak run did not complete: %v", seed, err)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, arrays...))
	t.Logf("seed %d: %d/%d faults applied, %d recoveries, bitwise clean",
		seed, chaos.Applied(), faults, sess.Recoveries())
}

func ldaReference(t *testing.T, n, passes, topics int) map[string]map[string]uint64 {
	t.Helper()
	ref, err := NewLocalSession(n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.SetCheckpointDir(t.TempDir())
	ref.SetCheckpointEvery(1)
	fillLDA(t, ref, topics)
	if _, err := ref.ParallelFor(ldaDSL, Passes(passes)); err != nil {
		t.Fatal(err)
	}
	return snapshotBits(ref, "z", "doc_topic", "word_topic", "totals")
}

// TestChaosSoakMFBounded is the always-on slice of the soak: two
// seeded random schedules over the MF run. The full sweep runs under
// ORION_SOAK=1 (make soak).
func TestChaosSoakMFBounded(t *testing.T) {
	want, wantErr := mfReference(t, 2, 4)
	for _, seed := range []int64{101, 202} {
		soakMF(t, seed, 2, want, wantErr)
	}
}

// TestChaosSoakLDABounded runs one seeded random schedule over the LDA
// run, covering the served-array (parameter server) update path under
// hostile delivery.
func TestChaosSoakLDABounded(t *testing.T) {
	want := ldaReference(t, 2, 3, 4)
	soakLDA(t, 303, 2, want)
}

// TestChaosSoakFull is the long randomized sweep: denser fault
// schedules across many seeds, MF and LDA. Gated behind ORION_SOAK=1
// because drop/stall detection makes some schedules take seconds each.
func TestChaosSoakFull(t *testing.T) {
	if os.Getenv("ORION_SOAK") == "" {
		t.Skip("set ORION_SOAK=1 (or run make soak) for the full randomized sweep")
	}
	want, wantErr := mfReference(t, 2, 4)
	for seed := int64(1000); seed < 1012; seed++ {
		soakMF(t, seed, 4, want, wantErr)
	}
	ldaWant := ldaReference(t, 2, 3, 4)
	for seed := int64(2000); seed < 2006; seed++ {
		soakLDA(t, seed, 4, ldaWant)
	}
}
