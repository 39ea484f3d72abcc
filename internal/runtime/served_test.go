package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
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
	e.shards.install(cuts, w.ExtractRange(0, 0, ownLast))
	return e
}

// mapServed is the served-array semantics the slot table replaced, kept
// as plain maps: read-your-own-writes, an absolute write supersedes a
// pending delta, a delta after it adds on top, a value with no delta
// pending is read exactly as fetched, one fetch per distinct
// unprefetched offset per block.
type mapServed struct {
	shard                       map[int64]float64 // what the owner holds
	fetched, missed             map[int64]float64
	deltas, sets                map[int64]float64
	hits, misses, fetchOneCalls int64
}

func (m *mapServed) beginBlock(prefetch []int64) {
	m.fetched, m.missed = map[int64]float64{}, map[int64]float64{}
	m.deltas, m.sets = map[int64]float64{}, map[int64]float64{}
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
	v, ok := m.fetched[off]
	if !ok {
		v, ok = m.missed[off]
	}
	if ok {
		m.hits++
	} else {
		m.misses++
		m.fetchOneCalls++
		v = m.shard[off]
		m.missed[off] = v
	}
	if d, ok := m.deltas[off]; ok {
		return v + d
	}
	return v
}

func (m *mapServed) update(off int64, d float64) { m.deltas[off] += d }

func (m *mapServed) set(off int64, v float64) {
	m.sets[off] = v
	delete(m.deltas, off)
}

// flush returns the batches the block ships — absolute writes, then
// deltas, each in ascending offset order — and applies them to the
// owner's copy. A batch holds each offset once, and folding it sets or
// adds to each of those elements alone, so no order inside a batch can
// change a folded bit: ascending is the order a served frame carries.
func (m *mapServed) flush(epoch int64) []stagedUpdate {
	var out []stagedUpdate
	for _, b := range []struct {
		vals     map[int64]float64
		absolute bool
	}{{m.sets, true}, {m.deltas, false}} {
		if len(b.vals) == 0 {
			continue
		}
		u := stagedUpdate{epoch: epoch, absolute: b.absolute}
		for off := range b.vals {
			u.offs = append(u.offs, off)
		}
		slices.Sort(u.offs)
		for _, off := range u.offs {
			u.vals = append(u.vals, b.vals[off])
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
// model with the same seeded sequences of reads, run reads, deltas and
// absolute writes over prefetched offsets, unprefetched ones (miss
// reads, write-only offsets) and blocks that prefetch nothing at all,
// across many begin/flush cycles: every value read, every flushed batch (its
// offsets, their order, the value bits, the absolute flag), the hit and
// miss counts and the number of slow-path fetches are the model's. The
// seeded blocks index their prefetch both ways, direct and hashed.
func TestServedSlotTableEqualsMapModel(t *testing.T) {
	const extent = 48
	bits := math.Float64bits
	forms := map[bool]int{}
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
				idx := newPrefetchIndex("", prefetch)
				forms[idx.idx.Direct()]++
				if err := e.bulkFetch(sa, idx); err != nil {
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
				case 2:
					if got, want := sa.Read(off), model.read(off); bits(got) != bits(want) {
						t.Fatalf("seed %d block %d: read of w[%d] = %v, the map model reads %v", seed, block, off, got, want)
					}
				default:
					// A run read of prefetched offsets side by side: one copy
					// while the block holds no pending write, else per slot.
					if len(prefetch) == 0 {
						continue
					}
					j, n := rng.Intn(len(prefetch)), 1
					for j+n < len(prefetch) && prefetch[j+n] == prefetch[j]+int64(n) && n < 4 {
						n++
					}
					run := make([]float64, n)
					if !sa.ReadRun(prefetch[j], run) {
						t.Fatalf("seed %d block %d: the prefetched run w[%d:+%d] was refused", seed, block, prefetch[j], n)
					}
					for k, got := range run {
						if want := model.read(prefetch[j] + int64(k)); bits(got) != bits(want) {
							t.Fatalf("seed %d block %d: run read of w[%d] = %v, the map model reads %v", seed, block, prefetch[j]+int64(k), got, want)
						}
					}
				}
			}
			if sa.hits != model.hits || sa.misses != model.misses || sa.misses != model.fetchOneCalls {
				t.Fatalf("seed %d block %d: %d hits, %d misses; the map model counts %d and %d, with %d slow-path fetches",
					seed, block, sa.hits, sa.misses, model.hits, model.misses, model.fetchOneCalls)
			}
			sa.hits, sa.misses, model.hits, model.misses, model.fetchOneCalls = 0, 0, 0, 0, 0
			if err := e.flushServed(sa, true); err != nil {
				t.Fatal(err)
			}
			if err := e.flushServed(sa, false); err != nil {
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
	if forms[true] == 0 || forms[false] == 0 {
		t.Errorf("the seeded blocks indexed %d prefetches directly and hashed %d, want both forms", forms[true], forms[false])
	}
}

// TestServedTableAccessAllocFree: reads, deltas and absolute writes of
// prefetched offsets — one at a time, and reads a column at once —
// resolve through the block's index, direct or hashed, and touch only
// slices.
func TestServedTableAccessAllocFree(t *testing.T) {
	for _, offs := range [][]int64{{2, 8, 9, 10, 11, 13}, {2, 8, 9, 10, 11, 40}} {
		idx := newPrefetchIndex("", offs)
		last := offs[len(offs)-1]
		t.Run(fmt.Sprintf("direct=%v", idx.idx.Direct()), func(t *testing.T) {
			if idx.idx.Direct() != (last == 13) {
				t.Fatalf("offsets %v: direct = %v", offs, idx.idx.Direct())
			}
			e := loneExecutor(nil, 64, 64)
			sa := e.ctx.Served("w")
			e.ctx.stepEpoch = 1
			if err := e.bulkFetch(sa, idx); err != nil {
				t.Fatal(err)
			}
			col := make([]float64, 4)
			var sum float64
			allocs := testing.AllocsPerRun(100, func() {
				sum += sa.Read(2)
				sa.Update(8, 0.5)
				sa.Set(last, sum)
				sa.Update(last, 1)
				sum += sa.Read(last)
				if !sa.ReadRun(8, col) {
					t.Fatal("a prefetched column was refused as a run")
				}
			})
			if allocs != 0 {
				t.Errorf("served accesses of prefetched offsets allocate %v times per round, want 0", allocs)
			}
			if sa.ReadRun(9, col) || sa.ReadRun(2, col[:2]) || sa.ReadRun(last-1, col[:2]) || len(sa.extra) != 0 {
				t.Error("a run the block did not prefetch whole was served, or left a slot behind")
			}
		})
	}
}

// TestServedRoundTripAllocs: a steady-state served round — a bulk fetch
// of n offsets, half from the local shard and half from a peer's over
// InProc, a flush of n deltas, and the next epoch's fetch that folds
// them on both owners — allocates the same at n = 64 as at n = 4096,
// and only a few times: nothing per element on either side of the link.
func TestServedRoundTripAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int64{64, 4096} {
		tr := NewInProc()
		addr := fmt.Sprintf("round-trip-owner-%d", n)
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		owner := loneExecutor(tr, 2*n, n)
		owner.id, owner.shards.selfID = 1, 1
		w := dsm.NewDense("w", 2*n)
		owner.shards.install([]int64{n}, w.ExtractRange(0, n, 2*n))
		done := make(chan struct{})
		go func() {
			defer close(done)
			if conn, err := ln.Accept(); err == nil {
				owner.servePeer(newCodec(conn))
			}
		}()
		e := loneExecutor(tr, 2*n, n, "", addr)
		sa := e.ctx.Served("w")
		offs := make([]int64, 2*n)
		for i := range offs {
			offs[i] = int64(i)
		}
		idx := newPrefetchIndex("", offs)
		round := func() {
			e.ctx.stepEpoch++
			if err := e.bulkFetch(sa, idx); err != nil {
				t.Fatal(err)
			}
			for _, off := range offs {
				sa.Update(off, 0.25)
			}
			if err := e.flushServed(sa, false); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			round()
		}
		allocs = append(allocs, testing.AllocsPerRun(20, round))
		// The block reads the earlier rounds' deltas, folded, and its own.
		if got, want := sa.Read(0), -1+0.25*float64(e.ctx.stepEpoch); got != want {
			t.Errorf("n=%d: w[0] reads %v after %d rounds, want %v", n, got, e.ctx.stepEpoch, want)
		}
		e.shards.closeAll()
		ln.Close()
		<-done
	}
	if allocs[0] != allocs[1] || allocs[0] > 8 {
		t.Errorf("a served round allocates %v times at n = 64 and %v at n = 4096, want the same few", allocs[0], allocs[1])
	}
	t.Logf("allocations per served round: %v", allocs)
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
				out = Msg{Kind: MsgPrefetchResp, Values: make([]float64, len(in.Offsets)+extra)}
				if c.send(&out) != nil {
					return
				}
			}
		}()
		e := loneExecutor(tr, 16, 8, "", addr)
		e.ctx.stepEpoch = 1
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

// peerLinkCounter is a Transport that counts the bytes both ways on
// every connection dialed to an executor: the shard and ring links, not
// the master's.
type peerLinkCounter struct {
	Transport
	master string
	bytes  atomic.Int64
}

func (c *peerLinkCounter) Dial(addr string) (net.Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err != nil || addr == c.master {
		return conn, err
	}
	return byteConn{conn, &c.bytes}, nil
}

// byteConn counts the bytes crossing a connection in both directions.
// Write counts p before it writes: on a synchronous pipe the reader may
// act on the last byte before Write returns.
type byteConn struct {
	net.Conn
	n *atomic.Int64
}

func (c byteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c byteConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n - len(p)))
	return n, err
}

// TestServedWireBytesPinned counts, not times, what a served pass puts on
// the wire: the executor-to-executor bytes of the second of two one-pass
// calls of the two-worker toy SLR are an exact number, the same in three
// runs. Each worker's block reads and updates offsets 0..9 of the
// 16 weights, and each owns 8 of them, so per pass executor 0 reads and
// updates w[8:10) at executor 1, and executor 1 w[0:8) at executor 0.
// Every frame opens with its sequence number and kind and ends in a
// 4-byte trailer, 6 bytes, and the schema rows (schema.go) fill it in,
// every uvarint one byte here: a read is the epoch, the name's length
// and "weights", the offset count and one gap per offset (10 + n);
// an answer the value count and 8 bytes per value (3 + 8n); an update
// the sender, epoch, absolute flag, name, offset count, gaps, value
// count and values (15 + 9n); an ack nothing (ackFrame bytes).
//
//	executor 0 -> 1: read 6+10+2 = 18, answer 6+1+2*8 = 23, update 6+13+2*9 = 37, ack
//	executor 1 -> 0: read 6+10+8 = 24, answer 6+1+8*8 = 71, update 6+13+8*9 = 91, ack
func TestServedWireBytesPinned(t *testing.T) {
	const ackFrame = 6
	const want = 18 + 23 + 37 + 24 + 71 + 91 + 2*ackFrame
	acks := captureFrames(func(c *codec) {
		for range 2 {
			c.send(&Msg{Kind: MsgAck})
		}
	})
	if len(acks[1]) != ackFrame {
		t.Fatalf("a MsgAck frames to %d bytes, want %d", len(acks[1]), ackFrame)
	}
	weights, samples := servedFixture()
	for run := 0; run < 3; run++ {
		tr := &peerLinkCounter{Transport: NewInProc(), master: "wire-pin-master"}
		m, _, stop := startFleetOver(t, tr, tr.master, func(i int) string { return fmt.Sprintf("wire-pin-%d", i) }, 2, runtimeLoops.compile, nil)
		if err := m.DistributeServed(weights); err != nil {
			t.Fatal(err)
		}
		if err := m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), 2)); err != nil {
			t.Fatal(err)
		}
		if err := m.DefineLoop(&Msg{LoopName: "rt_slr_pf"}); err != nil {
			t.Fatal(err)
		}
		var pass [2]int64
		for i := range pass {
			before := tr.bytes.Load()
			if err := m.ParallelFor(LoopDef{Kernel: "rt_slr_pf", TimeDim: -1, Passes: 1}); err != nil {
				t.Fatal(err)
			}
			pass[i] = tr.bytes.Load() - before
		}
		stop()
		if pass[1] != want {
			t.Errorf("run %d: pass 2 moved %d bytes between the executors, want %d (pass 1: %d)", run, pass[1], want, pass[0])
		}
	}
}

// TestShardAddressesByFlatOffset: an owner of the last-dimension range
// [5, 8) of a 3×8 array, dense or sparse, folds additive and absolute
// updates into and reads back the elements the full array holds at the
// same flattened offsets, and refuses an offset below its range.
func TestShardAddressesByFlatOffset(t *testing.T) {
	for _, full := range []*dsm.DistArray{dsm.NewDense("w", 3, 8), dsm.NewSparse("w", 3, 8)} {
		for off := int64(0); off < 24; off += 2 {
			full.SetFlat(off, float64(off))
		}
		s := newShardSet(nil, 1)
		s.install([]int64{5}, full.ExtractRange(1, 5, 8))
		offs := []int64{15, 16, 19, 23}
		if err := s.serveUpdate("w", 0, offs, []float64{1, -16, 0.5, 2}, false, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.serveUpdate("w", 0, []int64{19}, []float64{7}, true, 2); err != nil {
			t.Fatal(err)
		}
		for i, d := range []float64{1, -16, 0.5, 2} {
			full.SetFlat(offs[i], full.AtFlat(offs[i])+d)
		}
		full.SetFlat(19, 7)
		all := []int64{15, 16, 17, 18, 19, 20, 21, 22, 23}
		got, err := s.serveRead(nil, "w", all, 3)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := 0
		for i, off := range all {
			want := full.AtFlat(off)
			if got[i] != want {
				t.Errorf("dense=%v: w at offset %d reads %v, want %v", full.IsDense(), off, got[i], want)
			}
			if want != 0 {
				nonzero++
			}
		}
		if err := s.serveUpdate("w", 0, []int64{14}, []float64{1}, false, 3); err == nil {
			t.Errorf("dense=%v: an update of offset 14, outside [15, 24), was staged", full.IsDense())
		}
		// The delta that cancels w[16] drops its sparse entry.
		if local := s.gatherLocal("w").Local; !local.IsDense() && local.Len() != nonzero {
			t.Errorf("sparse: the shard stores %d entries, want its %d nonzeros", local.Len(), nonzero)
		}
	}
}
