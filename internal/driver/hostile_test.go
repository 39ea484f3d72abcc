package driver

import (
	"strings"
	"testing"

	"orion/internal/obs"
	"orion/internal/runtime"
)

// corruptPayloadBit aims a FaultCorrupt at byte 64 of the next frame —
// safely past any raw-rotation header (tag, sequence, name, dims,
// count all fit well under 32 bytes for the test kernels) and inside
// the float64 payload, so the flip damages parameter data the CRC
// trailer must catch before the partition is adopted.
const corruptPayloadBit = 8 * 64

// frameCorruptCount reads the global corrupt-frame detection counter.
func frameCorruptCount() int64 {
	return obs.GetCounter("runtime.frame_corrupt").Value()
}

// TestChaosCorruptRotationMFBitwiseInProc is the hostile-network
// acceptance check: one bit of a rotated partition flips in flight on
// a ring link. The receiving codec's CRC trailer must detect it — the
// damaged payload can never reach a DistArray — the link is condemned
// like a lost worker, and checkpoint recovery replays to a result
// bitwise identical to a run that never saw the flip.
func TestChaosCorruptRotationMFBitwiseInProc(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 37)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	// Executor 1 ships rotated partitions to executor 0's ring
	// endpoint; flip one payload bit of the next frame on that link.
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: ring, Conn: 0, Kind: runtime.FaultCorrupt, Offset: corruptPayloadBit})
	fillMF(t, sess)

	detectedBefore := frameCorruptCount()
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("corrupt-frame recovery did not complete: %v", err)
	}
	if got := chaos.Applied(); got != 1 {
		t.Fatalf("applied faults = %d, want 1", got)
	}
	if got := frameCorruptCount() - detectedBefore; got < 1 {
		t.Fatalf("runtime.frame_corrupt advanced by %d, want >= 1 (corruption must be detected, not silently applied)", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosCorruptRotationLDABitwiseInProc repeats the corruption
// check for LDA: the flipped bit lands in a rotated word_topic
// partition, and the per-(loop, executor, pass, step) kernel reseeding
// makes the recovered replay draw the fault-free sample sequence, so
// even the topic assignments match bit for bit.
func TestChaosCorruptRotationLDABitwiseInProc(t *testing.T) {
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

	sess, chaos, _ := chaosLocalSession(t, 3, 41)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 4, Addr: ring, Conn: 0, Kind: runtime.FaultCorrupt, Offset: corruptPayloadBit})
	fillLDA(t, sess, topics)

	detectedBefore := frameCorruptCount()
	if _, err := sess.ParallelFor(ldaDSL, Passes(3)); err != nil {
		t.Fatalf("LDA corrupt-frame recovery did not complete: %v", err)
	}
	if got := frameCorruptCount() - detectedBefore; got < 1 {
		t.Fatalf("runtime.frame_corrupt advanced by %d, want >= 1", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, arrays...))
}

// TestChaosCorruptRotationMFBitwiseTCP runs the corruption acceptance
// check over real TCP sockets: the bit flips inside a kernel-buffered
// socket write, the CRC fires on the far side of a genuine network
// read, and recovery still reproduces the fault-free bits.
func TestChaosCorruptRotationMFBitwiseTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	want, _ := mfReference(t, 2, 4)

	chaos := runtime.NewChaos(runtime.TCP{}, 43)
	sess, err := NewLocalSessionOver(chaos, "127.0.0.1:0", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.master.SetClockHook(chaos.Advance)
	sess.SetCheckpointDir(t.TempDir())
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: ring, Conn: 0, Kind: runtime.FaultCorrupt, Offset: corruptPayloadBit})
	fillMF(t, sess)

	detectedBefore := frameCorruptCount()
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("TCP corrupt-frame recovery did not complete: %v", err)
	}
	if got := frameCorruptCount() - detectedBefore; got < 1 {
		t.Fatalf("runtime.frame_corrupt advanced by %d, want >= 1", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosCorruptRecordsLinkEvent: a detected corruption leaves a
// link.corrupt event in the flight recorder so post-mortems can tell a
// poisoned link from a plain crash.
func TestChaosCorruptRecordsLinkEvent(t *testing.T) {
	sess, chaos, _ := chaosLocalSession(t, 2, 47)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 3, Addr: ring, Conn: 0, Kind: runtime.FaultCorrupt, Offset: corruptPayloadBit})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(3)); err != nil {
		t.Fatalf("recovery did not complete: %v", err)
	}
	found := false
	for _, ev := range obs.Flight().Events() {
		if ev.Kind == "link.corrupt" && strings.Contains(ev.Detail, "checksum") {
			found = true
		}
	}
	if !found {
		t.Fatal("no link.corrupt flight event with a checksum detail was recorded")
	}
}

// TestChaosDuplicateFrameRejectedRecoversBitwise replays a master-link
// write: the repeated frame carries an already-consumed sequence
// number, the codec condemns the link instead of processing the replay
// twice, and checkpoint recovery restores a bitwise fault-free result.
func TestChaosDuplicateFrameRejectedRecoversBitwise(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 53)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 3, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultDuplicate})
	fillMF(t, sess)

	detectedBefore := frameCorruptCount()
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("duplicate-frame recovery did not complete: %v", err)
	}
	if got := frameCorruptCount() - detectedBefore; got < 1 {
		t.Fatalf("runtime.frame_corrupt advanced by %d, want >= 1 (replay must be rejected)", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosReorderFrameRejectedRecoversBitwise swaps two master-link
// writes: the successor arrives bearing a sequence number one ahead of
// the expected stream position, the codec condemns the link, and the
// loop recovers bitwise. (The worker's 500ms heartbeat guarantees a
// successor write exists to release the held frame.)
func TestChaosReorderFrameRejectedRecoversBitwise(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 59)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	chaos.Schedule(runtime.FaultEvent{Clock: 3, Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultReorder})
	fillMF(t, sess)

	detectedBefore := frameCorruptCount()
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("reordered-frame recovery did not complete: %v", err)
	}
	if got := frameCorruptCount() - detectedBefore; got < 1 {
		t.Fatalf("runtime.frame_corrupt advanced by %d, want >= 1 (out-of-order delivery must be rejected)", got)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestChaosTruncateRecoversBitwise kills a ring link halfway through a
// rotation frame — the receiver sees a clean prefix then EOF, exactly
// a peer dying mid-write. The half-frame must never be adopted and the
// loop must recover bitwise from the checkpoint.
func TestChaosTruncateRecoversBitwise(t *testing.T) {
	want, _ := mfReference(t, 2, 4)

	sess, chaos, _ := chaosLocalSession(t, 2, 61)
	defer sess.Close()
	sess.SetCheckpointDir(t.TempDir())
	ring := sess.master.PeerAddrs()[0]
	chaos.Schedule(runtime.FaultEvent{Clock: 5, Addr: ring, Conn: 0, Kind: runtime.FaultTruncate})
	fillMF(t, sess)
	if _, err := sess.ParallelFor(mfSrc, Passes(4)); err != nil {
		t.Fatalf("truncated-frame recovery did not complete: %v", err)
	}
	if got := sess.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	assertBitwiseEqual(t, want, snapshotBits(sess, "W", "H"))
}

// TestShrinkArmingGuards pins Grow's arming contract: a fleet never
// shrinks, so Grow below the current size is refused, while Grow to
// the current size (a rolling re-form) or above it is armed.
func TestShrinkArmingGuards(t *testing.T) {
	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Grow(2); err == nil {
		t.Fatal("Grow below the current size accepted")
	}
	for _, m := range []int{3, 5} {
		if err := sess.Grow(m); err != nil {
			t.Fatalf("Grow(%d) rejected: %v", m, err)
		}
	}
}
