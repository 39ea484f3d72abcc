package engine

import (
	"math"
	"math/rand"
	"testing"

	"orion/internal/dsm"
	"orion/internal/ir"
	"orion/internal/optim"
)

// storeApp is a minimal two-table app for store-level tests.
type storeApp struct {
	opt optim.Optimizer
}

func (a *storeApp) Name() string             { return "store-test" }
func (a *storeApp) IterDims() (int64, int64) { return 4, 4 }
func (a *storeApp) NumSamples() int          { return 0 }
func (a *storeApp) SampleAt(int) Sample      { return Sample{} }
func (a *storeApp) Tables() []TableSpec {
	return []TableSpec{
		{Name: "local", Rows: 4, Width: 2, IndexedBy: ByRow, Optimizer: a.opt},
		{Name: "shared", Rows: 4, Width: 2, IndexedBy: ByCol, Optimizer: a.opt},
	}
}
func (a *storeApp) Init(int64) []*dsm.DistArray {
	l := dsm.NewDense("local", 2, 4)
	s := dsm.NewDense("shared", 2, 4)
	for r := int64(0); r < 4; r++ {
		l.Vec(r)[0] = float64(r)
		s.Vec(r)[0] = float64(10 * r)
	}
	return []*dsm.DistArray{l, s}
}
func (a *storeApp) Process(Sample, Store, *rand.Rand) {}
func (a *storeApp) Loss([]*dsm.DistArray) float64     { return 0 }
func (a *storeApp) FlopsPerSample() float64           { return 1 }
func (a *storeApp) LoopSpec() *ir.LoopSpec            { return nil }

func snapshotFixture(opt optim.Optimizer) (*MasterStore, *SnapshotStore) {
	master := NewMasterStore(&storeApp{opt: opt}, 1)
	fresh := []bool{true, false}
	snap := []*dsm.DistArray{nil, master.Tables()[1].Clone()}
	return master, NewSnapshotStore(master, snap, fresh)
}

func TestMasterStoreImmediate(t *testing.T) {
	master := NewMasterStore(&storeApp{opt: optim.NewIdentity()}, 1)
	master.Update(0, 2, []float64{5, 5})
	got := master.Read(0, 2)
	if got[0] != 7 || got[1] != 5 {
		t.Fatalf("master read = %v", got)
	}
}

func TestSnapshotFreshTableWritesThrough(t *testing.T) {
	master, st := snapshotFixture(optim.NewIdentity())
	st.Update(0, 1, []float64{1, 0})
	if master.Read(0, 1)[0] != 2 {
		t.Fatal("fresh-table update must hit the master immediately")
	}
	if st.Read(0, 1)[0] != 2 {
		t.Fatal("fresh-table read must see the master")
	}
	if st.PendingRows() != 0 {
		t.Fatal("fresh-table writes must not buffer")
	}
}

func TestSnapshotSharedTableIsStale(t *testing.T) {
	master, st := snapshotFixture(optim.NewIdentity())
	st.Update(1, 2, []float64{7, 0})
	// Master unchanged until flush; reads see the stale snapshot (not
	// read-your-own-writes: Bösen-style caches refresh at sync).
	if master.Read(1, 2)[0] != 20 {
		t.Fatal("shared update leaked to master before flush")
	}
	if st.Read(1, 2)[0] != 20 {
		t.Fatalf("shared read should be the snapshot, got %v", st.Read(1, 2))
	}
	if st.PendingRows() != 1 || st.PendingBytes() != 16 {
		t.Fatalf("pending = %d rows, %d bytes", st.PendingRows(), st.PendingBytes())
	}
	bytes := st.Flush()
	if bytes != 16 {
		t.Fatalf("flush bytes = %d", bytes)
	}
	if master.Read(1, 2)[0] != 27 {
		t.Fatalf("master after flush = %v", master.Read(1, 2))
	}
	if st.PendingRows() != 0 {
		t.Fatal("flush must clear the buffer")
	}
}

func TestSnapshotAccumulatesDeltas(t *testing.T) {
	master, st := snapshotFixture(optim.NewIdentity())
	st.Update(1, 0, []float64{1, 0})
	st.Update(1, 0, []float64{2, 1})
	st.Flush()
	got := master.Read(1, 0)
	if got[0] != 3 || got[1] != 1 {
		t.Fatalf("accumulated deltas wrong: %v", got)
	}
}

func TestFlushTopKRefreshesRows(t *testing.T) {
	master, st := snapshotFixture(optim.NewIdentity())
	st.Update(1, 0, []float64{0.1, 0})
	st.Update(1, 3, []float64{9, 0})
	bytes := st.FlushTopK(1)
	if bytes != 32 { // 16 up + 16 down
		t.Fatalf("topk bytes = %d", bytes)
	}
	// Row 3 (largest magnitude) applied and refreshed.
	if master.Read(1, 3)[0] != 39 {
		t.Fatalf("master row 3 = %v", master.Read(1, 3))
	}
	if st.Read(1, 3)[0] != 39 {
		t.Fatalf("refreshed read = %v, want the fresh master value", st.Read(1, 3))
	}
	// Row 0 still pending and stale.
	if st.PendingRows() != 1 {
		t.Fatalf("pending = %d", st.PendingRows())
	}
	if st.Read(1, 0)[0] != 0 {
		t.Fatalf("row 0 should still read the snapshot, got %v", st.Read(1, 0))
	}
}

func TestBacklogReachesAdaRev(t *testing.T) {
	// Two workers update the same shared row; the second flush must see
	// the first's gradient as backlog, shrinking its step.
	opt := optim.NewAdaRev(1.0)
	master := NewMasterStore(&storeApp{opt: opt}, 1)
	fresh := []bool{true, false}
	snap := []*dsm.DistArray{nil, master.Tables()[1].Clone()}
	w1 := NewSnapshotStore(master, snap, fresh)
	w2 := NewSnapshotStore(master, snap, fresh)

	w1.Update(1, 1, []float64{1, 0})
	w2.Update(1, 1, []float64{1, 0})
	before := master.Read(1, 1)[0]
	w1.Flush()
	afterFirst := master.Read(1, 1)[0]
	w2.Flush()
	afterSecond := master.Read(1, 1)[0]
	step1 := before - afterFirst
	step2 := afterFirst - afterSecond
	if step1 <= 0 || step2 <= 0 {
		t.Fatalf("steps = %v, %v", step1, step2)
	}
	// Without backlog, AdaRev == AdaGrad: second identical gradient
	// steps 1/sqrt(2) of the first. With backlog, strictly less.
	noBacklogStep2 := step1 / math.Sqrt2
	if !(step2 < noBacklogStep2-1e-12) {
		t.Fatalf("backlog correction missing: step2 %v, AdaGrad would be %v", step2, noBacklogStep2)
	}
}

func TestSnapshotStoreDeterministicFlushOrder(t *testing.T) {
	run := func() []float64 {
		master, st := snapshotFixture(optim.NewAdaRev(0.5))
		for r := int64(3); r >= 0; r-- {
			st.Update(1, r, []float64{float64(r + 1), 0})
		}
		st.Flush()
		var out []float64
		for r := int64(0); r < 4; r++ {
			out = append(out, master.Read(1, r)[0])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("flush order is not deterministic")
		}
	}
}

// PendingRows returns the number of rows with buffered gradients.
func (s *SnapshotStore) PendingRows() int { return len(s.deltas) }

// PendingBytes returns the wire size of the buffered gradients.
func (s *SnapshotStore) PendingBytes() int64 {
	var b int64
	for _, d := range s.deltas {
		b += int64(len(d)) * 8
	}
	return b
}
