package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orion/internal/dsm"
	"orion/internal/obs"
)

// loneExecutor is an executor that never connects to a master: it owns
// the first ownLast coordinates of the served rank-1 array "w" (all of
// it when ownLast == extent) and reaches the rest at peers[1].
func loneExecutor(tr Transport, extent, ownLast int64, peers ...string) *Executor {
	e := &Executor{id: 0, shards: newShardSet(tr, 0),
		mPrefHit: obs.GetCounter("prefetch.hit"), mPrefMiss: obs.GetCounter("prefetch.miss")}
	e.ctx = &Ctx{exec: e, served: map[string]*ServedArray{}}
	e.shards.peers = peers
	w := dsm.NewDense("w", extent)
	for i := int64(0); i < extent; i++ {
		w.SetAt(float64(i)*0.25-1, i)
	}
	var cuts []int64
	if ownLast < extent {
		cuts = []int64{ownLast}
	}
	e.shards.install("w", []int64{extent}, cuts, w.ExtractRange(0, 0, ownLast))
	return e
}

// mapServed is the served-array semantics the slot table replaced, kept
// as plain maps: read-your-own-writes, an absolute write supersedes a
// pending delta, a delta after it adds on top, one fetch per distinct
// unprefetched offset per block.
type mapServed struct {
	shard                       map[int64]float64 // what the owner holds
	fetched, missed             map[int64]float64
	deltas, sets                map[int64]float64
	updOffs, setOffs            []int64
	hits, misses, fetchOneCalls int64
}

func (m *mapServed) beginBlock(prefetch []int64) {
	m.fetched, m.missed = map[int64]float64{}, map[int64]float64{}
	m.deltas, m.sets, m.updOffs, m.setOffs = map[int64]float64{}, map[int64]float64{}, nil, nil
	for _, off := range prefetch {
		m.fetched[off] = m.shard[off]
	}
}

func (m *mapServed) read(off int64) float64 {
	if v, ok := m.sets[off]; ok {
		if d, ok := m.deltas[off]; ok {
			return v + d
		}
		return v
	}
	base := m.deltas[off]
	if v, ok := m.fetched[off]; ok {
		m.hits++
		return v + base
	}
	if v, ok := m.missed[off]; ok {
		m.hits++
		return v + base
	}
	m.misses++
	m.fetchOneCalls++
	m.missed[off] = m.shard[off]
	return m.shard[off] + base
}

func (m *mapServed) update(off int64, d float64) {
	if _, ok := m.deltas[off]; !ok {
		m.updOffs = append(m.updOffs, off)
	}
	m.deltas[off] += d
}

func (m *mapServed) set(off int64, v float64) {
	if _, ok := m.sets[off]; !ok {
		m.setOffs = append(m.setOffs, off)
	}
	m.sets[off] = v
	if _, ok := m.deltas[off]; ok {
		delete(m.deltas, off)
		m.updOffs = slices.DeleteFunc(m.updOffs, func(o int64) bool { return o == off })
	}
}

// flush returns the batches the block ships — absolute writes, then
// deltas — and applies them to the owner's copy.
func (m *mapServed) flush(epoch int64) []stagedUpdate {
	var out []stagedUpdate
	for _, b := range []struct {
		offs     []int64
		vals     map[int64]float64
		absolute bool
	}{{m.setOffs, m.sets, true}, {m.updOffs, m.deltas, false}} {
		if len(b.offs) == 0 {
			continue
		}
		u := stagedUpdate{epoch: epoch, absolute: b.absolute}
		for _, off := range b.offs {
			u.offs, u.vals = append(u.offs, off), append(u.vals, b.vals[off])
			if b.absolute {
				m.shard[off] = b.vals[off]
			} else {
				m.shard[off] += b.vals[off]
			}
		}
		out = append(out, u)
	}
	return out
}

// TestServedSlotTableEqualsMapModel drives a ServedArray and the map
// model with the same seeded sequences of reads, deltas and absolute
// writes over prefetched offsets, unprefetched ones (miss reads,
// write-only offsets) and blocks that prefetch nothing at all, across
// many begin/flush cycles: every value read, every flushed batch (its
// offsets, their order, the value bits, the absolute flag), the hit and
// miss counts and the number of slow-path fetches are the model's.
func TestServedSlotTableEqualsMapModel(t *testing.T) {
	const extent = 48
	bits := math.Float64bits
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := loneExecutor(nil, extent, extent)
		table := e.shards.table("w")
		model := &mapServed{shard: map[int64]float64{}}
		for off := int64(0); off < extent; off++ {
			model.shard[off] = table.at(off)
		}
		sa := e.ctx.Served("w")
		for block := 1; block <= 30; block++ {
			e.ctx.stepEpoch = int64(block)
			var prefetch []int64
			if rng.Intn(4) > 0 { // every fourth block: the empty table of a prefetch-less kernel
				for n := rng.Intn(24); n > 0; n-- {
					prefetch = append(prefetch, rng.Int63n(extent))
				}
				slices.Sort(prefetch)
				prefetch = slices.Compact(prefetch)
			}
			sa.beginBlock(prefetchIndex{})
			if len(prefetch) > 0 {
				if err := e.bulkFetch(sa, newPrefetchIndex("", prefetch)); err != nil {
					t.Fatal(err)
				}
			}
			model.beginBlock(prefetch)
			for op := rng.Intn(120); op > 0; op-- {
				off := rng.Int63n(extent)
				if len(prefetch) > 0 && rng.Intn(3) > 0 {
					off = prefetch[rng.Intn(len(prefetch))]
				}
				switch v := math.Round(rng.NormFloat64()*8) / 4; rng.Intn(4) { // quarters: cancelling deltas, ±0
				case 0:
					sa.Update(off, v)
					model.update(off, v)
				case 1:
					sa.Set(off, v)
					model.set(off, v)
				default:
					if got, want := sa.Read(off), model.read(off); bits(got) != bits(want) {
						t.Fatalf("seed %d block %d: read of w[%d] = %v, the map model reads %v", seed, block, off, got, want)
					}
				}
			}
			if sa.hits != model.hits || sa.misses != model.misses || sa.misses != model.fetchOneCalls {
				t.Fatalf("seed %d block %d: %d hits, %d misses; the map model counts %d and %d, with %d slow-path fetches",
					seed, block, sa.hits, sa.misses, model.hits, model.misses, model.fetchOneCalls)
			}
			sa.hits, sa.misses, model.hits, model.misses, model.fetchOneCalls = 0, 0, 0, 0, 0
			if err := e.flushServed(sa, sa.setSlots, sa.set, true); err != nil {
				t.Fatal(err)
			}
			if err := e.flushServed(sa, sa.updSlots, sa.delta, false); err != nil {
				t.Fatal(err)
			}
			// The single owner staged the batches as they arrived; the next
			// block's first read folds them.
			got, want := table.pending, model.flush(int64(block))
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].absolute == want[i].absolute && got[i].epoch == want[i].epoch && slices.Equal(got[i].offs, want[i].offs) &&
					slices.EqualFunc(got[i].vals, want[i].vals, func(a, b float64) bool { return bits(a) == bits(b) })
			}
			if !same {
				t.Fatalf("seed %d block %d: flushed %+v, the map model flushes %+v", seed, block, got, want)
			}
			table.fold(0)
		}
		for off, want := range model.shard {
			if got := table.at(off); bits(got) != bits(want) {
				t.Fatalf("seed %d: the owner holds w[%d] = %v, the map model %v", seed, off, got, want)
			}
		}
	}
}

// TestServedTableAccessAllocFree: reads, deltas and absolute writes of
// prefetched offsets — one at a time, and reads a column at once —
// resolve through the block's index and touch only slices.
func TestServedTableAccessAllocFree(t *testing.T) {
	e := loneExecutor(nil, 64, 64)
	sa := e.ctx.Served("w")
	e.ctx.stepEpoch = 1
	if err := e.bulkFetch(sa, newPrefetchIndex("", []int64{2, 8, 9, 10, 11, 40})); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 4)
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		sum += sa.Read(2)
		sa.Update(8, 0.5)
		sa.Set(40, sum)
		sa.Update(40, 1)
		sum += sa.Read(40)
		if !sa.ReadRun(8, col) {
			t.Fatal("a prefetched column was refused as a run")
		}
	})
	if allocs != 0 {
		t.Errorf("served accesses of prefetched offsets allocate %v times per round, want 0", allocs)
	}
	if sa.ReadRun(9, col) || sa.ReadRun(2, col[:2]) || sa.ReadRun(39, col[:2]) || len(sa.extra) != 0 {
		t.Error("a run the block did not prefetch whole was served, or left a slot behind")
	}
}

// TestServedCountersFlushPerBlock: prefetch.hit and prefetch.miss reach
// the registry once per block, and total what counting every access
// counted: the two-worker SLR run's 80 reads all hit with the prefetch
// function; without one each worker's block misses its ten distinct
// offsets once and hits them once.
func TestServedCountersFlushPerBlock(t *testing.T) {
	hit, miss := obs.GetCounter("prefetch.hit"), obs.GetCounter("prefetch.miss")
	for _, c := range []struct {
		kernel       string
		hits, misses int64
	}{{"rt_slr_pf", 80, 0}, {"rt_slr", 40, 40}} {
		h0, m0 := hit.Value(), miss.Value()
		_, masterMisses := runSLR(t, c.kernel, 2)
		if h, m := hit.Value()-h0, miss.Value()-m0; h != c.hits || m != c.misses || masterMisses != c.misses {
			t.Errorf("%s: prefetch.hit +%d, prefetch.miss +%d, Master.Misses %d; want +%d, +%d, %d",
				c.kernel, h, m, masterMisses, c.hits, c.misses, c.misses)
		}
	}
}

// TestPrefetchAnswerOfWrongLengthRejected: a shard owner's answer
// carries values only, so the requester must hold it to the count it
// asked for — on the bulk path and on the single-offset miss path.
func TestPrefetchAnswerOfWrongLengthRejected(t *testing.T) {
	for _, extra := range []int{-1, 0, 1} {
		tr := NewInProc()
		addr := fmt.Sprintf("wrong-length-owner-%d", extra)
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c := newCodec(conn)
			var in, out Msg
			for c.recvInto(&in) == nil {
				out = Msg{Kind: MsgPrefetchResp, Array: in.Array, Values: make([]float64, len(in.Offsets)+extra)}
				if c.send(&out) != nil {
					return
				}
			}
		}()
		e := loneExecutor(tr, 16, 8, "", addr)
		bulk := e.bulkFetch(e.ctx.Served("w"), newPrefetchIndex("", []int64{3, 9, 12}))
		_, one := e.fetchOne("w", 9)
		switch {
		case extra == 0 && (bulk != nil || one != nil):
			t.Errorf("an answer of the right length was refused: %v, %v", bulk, one)
		case extra != 0 && (bulk == nil || !strings.Contains(bulk.Error(), fmt.Sprintf("answered %d of 2", 2+extra))):
			t.Errorf("bulk fetch accepted %+d values: %v", extra, bulk)
		case extra != 0 && one == nil:
			t.Errorf("single fetch accepted %+d values", extra)
		}
		e.shards.closeAll()
		ln.Close()
		<-done
	}
}
