package driver

import (
	"math"
	"math/rand"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/obs/analyze"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// The resident iteration space (exec.go): a ParallelFor whose iteration
// array, space dimension and space cuts are what the executors already
// hold ships no samples. These tests walk what must and must not
// invalidate that, each row asserting the ship/no-ship decision from
// the flight log and the result bit for bit against a reference session
// that makes the same calls with residency defeated — it re-registers a
// clone of the iteration array before every call, so it always ships,
// which is what every call did before there was anything resident.

// residentStep is one ParallelFor call of a script.
type residentStep struct {
	what string
	// before runs ahead of the call on both sessions; fault only on the
	// session under test (the reference stays fault-free).
	before func(t *testing.T, s *Session)
	fault  func(t *testing.T, s *Session)
	src    string // mfSrc when empty
	opts   []Option
	// want lists the call's iteration-space decisions in order: "reuse",
	// or "ship:<reason>". A call has one per attempt.
	want []string
}

func iterspaceDecisions() []string {
	var out []string
	for _, ev := range obs.Flight().Events() {
		switch ev.Kind {
		case "iterspace.reuse":
			out = append(out, "reuse")
		case "iterspace.ship":
			out = append(out, "ship:"+ev.Detail)
		}
	}
	return out
}

// runResidentScript runs the steps on sess and, with residency
// defeated, on ref; iter names the iteration array and arrays what to
// compare at the end.
func runResidentScript(t *testing.T, sess, ref *Session, iter string, steps []residentStep, arrays ...string) {
	t.Helper()
	ship, reuse := obs.GetCounter("driver.iterspace_ship"), obs.GetCounter("driver.iterspace_reuse")
	for i, st := range steps {
		src := st.src
		if src == "" {
			src = mfSrc
		}
		for _, s := range []*Session{sess, ref} {
			if st.before != nil {
				st.before(t, s)
			}
			if s == ref {
				s.RegisterArray(s.Array(iter).Clone())
			} else if st.fault != nil {
				st.fault(t, s)
			}
			obs.Flight().Reset()
			ship0, reuse0 := ship.Value(), reuse.Value()
			if _, err := s.ParallelFor(src, st.opts...); err != nil {
				t.Fatalf("call %d (%s): %v", i+1, st.what, err)
			}
			got := iterspaceDecisions()
			if s == ref {
				if slices.Contains(got, "reuse") {
					t.Fatalf("call %d (%s): the reference session reused: %v", i+1, st.what, got)
				}
				continue
			}
			if !slices.Equal(got, st.want) {
				t.Errorf("call %d (%s): iteration space %v, want %v", i+1, st.what, got, st.want)
			}
			ships, reuses := 0, 0
			for _, d := range got {
				if d == "reuse" {
					reuses++
				} else {
					ships++
				}
			}
			if ds, dr := ship.Value()-ship0, reuse.Value()-reuse0; ds != int64(ships) || dr != int64(reuses) {
				t.Errorf("call %d (%s): driver.iterspace_ship +%d, driver.iterspace_reuse +%d; the flight log says %d and %d",
					i+1, st.what, ds, dr, ships, reuses)
			}
		}
	}
	assertBitwiseEqual(t, snapshotBits(ref, arrays...), snapshotBits(sess, arrays...))
}

func localPair(t *testing.T, n int, fill func(*testing.T, *Session)) (sess, ref *Session) {
	t.Helper()
	var out [2]*Session
	for i := range out {
		s, err := NewLocalSession(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		fill(t, s)
		out[i] = s
	}
	return out[0], out[1]
}

var (
	first   = []string{"ship:first"}
	reuse   = []string{"reuse"}
	mutated = []string{"ship:mutated"}
)

// TestResidentSparseIterSpace: an unchanged sparse iteration array hits
// from the second call on; every way the session's copy of it can come
// to hold something else misses once.
func TestResidentSparseIterSpace(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	dir := map[*Session]string{sess: t.TempDir(), ref: t.TempDir()}
	for s, d := range dir {
		if err := s.Checkpoint(d, "ratings"); err != nil {
			t.Fatal(err)
		}
	}
	someRating := func(s *Session) []int64 {
		idx, _ := s.Array("ratings").Entries()
		return idx[17]
	}
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "first call", want: first},
		{what: "unchanged", want: reuse},
		{what: "unchanged", want: reuse},
		{what: "SetAt", want: mutated, before: func(t *testing.T, s *Session) {
			s.Array("ratings").SetAt(4.5, someRating(s)...)
		}},
		{what: "unchanged", want: reuse},
		{what: "SetAt of a new coordinate", want: mutated, before: func(t *testing.T, s *Session) {
			s.Array("ratings").SetAt(1.25, 39, 29)
		}},
		{what: "AddAt", want: mutated, before: func(t *testing.T, s *Session) {
			s.Array("ratings").AddAt(-0.5, someRating(s)...)
		}},
		{what: "Map", want: mutated, before: func(t *testing.T, s *Session) {
			s.Array("ratings").Map(func(v float64) float64 { return v * 0.5 })
		}},
		{what: "unchanged", want: reuse},
		{what: "Restore", want: mutated, before: func(t *testing.T, s *Session) {
			if err := s.Restore(dir[s], "ratings"); err != nil {
				t.Fatal(err)
			}
		}},
		{what: "unchanged", want: reuse},
		{what: "Randomize", want: mutated, before: func(t *testing.T, s *Session) {
			if _, err := s.Randomize(7, ArrayDim{"ratings", 0}, ArrayDim{"W", 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{what: "unchanged", want: reuse},
		{what: "RegisterArray of a copy", want: mutated, before: func(t *testing.T, s *Session) {
			s.RegisterArray(s.Array("ratings").Clone())
		}},
		{what: "unchanged", want: reuse},
	}, "W", "H")
}

const slrDenseSrc = `
for (key, v) in samples
    idx = floor(v * scale) + 1
    w = weights[idx]
    g = sigmoid(w) - v
    w_buf[idx] += 0 - step_size * g
end
`

// fillSLR declares the served SLR problem with a dense iteration array.
func fillSLR(t *testing.T, s *Session) {
	t.Helper()
	const n, dim = 300, 64
	samples := s.CreateArray("samples", true, n)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < n; i++ {
		samples.SetAt(rng.Float64()*0.98+0.01, i)
	}
	s.CreateArray("weights", true, dim)
	if err := s.CreateBuffer("w_buf", "weights"); err != nil {
		t.Fatal(err)
	}
	s.SetGlobal("step_size", 0.1)
	s.SetGlobal("scale", dim)
}

// TestResidentDenseIterSpace: a dense iteration array hands out live
// views, so it is compared bit for bit against what was shipped: writes
// through Vec and DenseData miss, a write that changes no bit does not.
func TestResidentDenseIterSpace(t *testing.T) {
	sess, ref := localPair(t, 2, fillSLR)
	slr := func(st residentStep) residentStep { st.src = slrDenseSrc; return st }
	runResidentScript(t, sess, ref, "samples", []residentStep{
		slr(residentStep{what: "first call", want: first}),
		slr(residentStep{what: "unchanged", want: reuse}),
		slr(residentStep{what: "unchanged", want: reuse}),
		slr(residentStep{what: "a write through Vec", want: mutated, before: func(t *testing.T, s *Session) {
			s.Array("samples").Vec()[40] = 0.75
		}}),
		slr(residentStep{what: "unchanged", want: reuse}),
		slr(residentStep{what: "a write through DenseData", want: mutated, before: func(t *testing.T, s *Session) {
			d, _ := s.Array("samples").DenseData()
			d[7] = 0.125
		}}),
		slr(residentStep{what: "a write of the bits already there", want: reuse, before: func(t *testing.T, s *Session) {
			d, _ := s.Array("samples").DenseData()
			d[7] = math.Float64frombits(math.Float64bits(d[7]))
			s.Array("samples").SetAt(0.125, 7)
		}}),
	}, "weights")
	if m := sess.Misses(); m != 0 {
		t.Errorf("%d prefetch misses", m)
	}
}

// TestResidentOrderedThenUnordered: an ordered and an unordered loop cut
// the same resident samples the same way, so the second reuses what the
// first shipped — and must run it in shipped order, not in the order
// the ordered loop's blocks were sorted into.
func TestResidentOrderedThenUnordered(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "ordered", opts: []Option{Ordered()}, want: first},
		{what: "unordered after ordered", want: reuse},
		{what: "ordered again", opts: []Option{Ordered()}, want: reuse},
		{what: "unordered, two passes", opts: []Option{Passes(2)}, want: reuse},
	}, "W", "H")
}

// colScaleSrc is a 1D loop over ratings cut along its second dimension.
const colScaleSrc = `
for (key, rv) in ratings
    H[:, key[2]] = H[:, key[2]] * 0.999
end
`

// TestResidentOtherLoopAndForeignShip: a loop that cuts the same array
// along another dimension takes the slot, and so does whoever ships
// through the master directly — the epoch moves without the session
// being told.
func TestResidentOtherLoopAndForeignShip(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	recut := []string{"ship:recut"}
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "MF", want: first},
		{what: "MF", want: reuse},
		{what: "a loop with another space dimension", src: colScaleSrc, want: recut},
		{what: "the same loop again", src: colScaleSrc, want: reuse},
		{what: "MF again", want: recut},
		{what: "MF", want: reuse},
		{what: "after a raw Master.DistributeIterSpace", want: []string{"ship:foreign-ship"}, before: func(t *testing.T, s *Session) {
			if err := s.master.DistributeIterSpace(nil, 0, sched.NewRangePartitioner(40, s.n)); err != nil {
				t.Fatal(err)
			}
		}},
		{what: "MF", want: reuse},
	}, "W", "H")
}

// TestChaosResidentSurvivesReconfiguration: after hits, every way the
// fleet changes under a call re-ships — a worker killed mid-pass (the
// faulted session equals the fault-free reference), a grow, a planned
// shrink, and an adaptive recut that moves the cuts.
func TestChaosResidentSurvivesReconfiguration(t *testing.T) {
	fleet := []string{"reuse", "ship:fleet"}
	for _, tc := range []struct {
		name    string
		workers int
		last    residentStep
	}{
		{"killed worker", 2, residentStep{what: "a worker killed mid-pass", opts: []Option{Passes(2)}, want: fleet,
			fault: func(t *testing.T, s *Session) {
				chaosOf[s].Schedule(runtime.FaultEvent{Clock: s.Clock() + 1, Addr: s.Addr(), Conn: 1, Kind: runtime.FaultSever})
			}}},
		{"grow", 2, residentStep{what: "a grow at the pass boundary", opts: []Option{Passes(2)}, want: fleet,
			before: func(t *testing.T, s *Session) {
				if err := s.Grow(3); err != nil {
					t.Fatal(err)
				}
			}}},
		{"shrink", 3, residentStep{what: "a planned shrink", want: []string{"ship:fleet"},
			before: func(t *testing.T, s *Session) {
				if err := s.Shrink(2); err != nil {
					t.Fatal(err)
				}
			}}},
		{"adaptive recut", 2, residentStep{what: "a recut at the pass boundary", opts: []Option{Passes(2)}, want: []string{"reuse", "ship:recut"},
			before: func(t *testing.T, s *Session) {
				s.SetAdapt(0.5) // skew >= 1 always: recut at the boundary
				s.SetAdaptProfile(func(kernel string, _ *obs.LoopReport) *analyze.WeightProfile {
					return &analyze.WeightProfile{Loop: kernel, Workers: []analyze.WorkerCost{
						{Worker: 0, CostFactor: 4}, {Worker: 1, CostFactor: 1}}}
				})
			}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pair [2]*Session
			for i := range pair {
				s, chaos, _ := chaosLocalSession(t, tc.workers, 42)
				t.Cleanup(s.Close)
				s.SetCheckpointDir(t.TempDir())
				fillMF(t, s)
				chaosOf[s] = chaos
				pair[i] = s
			}
			runResidentScript(t, pair[0], pair[1], "ratings", []residentStep{
				{what: "first call", want: first},
				{what: "unchanged", want: reuse},
				tc.last,
				{what: "unchanged, on the new fleet", want: reuse},
			}, "W", "H")
			if tc.last.fault != nil && pair[0].Recoveries() != 1 {
				t.Errorf("%d recoveries, want 1", pair[0].Recoveries())
			}
		})
	}
}

// chaosOf finds a chaos session's fault injector from a step's hooks.
var chaosOf = map[*Session]*runtime.Chaos{}

// TestChaosResidentTCPReform: a TCP fleet loses a worker for good after
// hits and re-forms from the two survivors; the call re-ships onto them.
// The reference loses the same worker at the same clock.
func TestChaosResidentTCPReform(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and a rejoin wait")
	}
	var pair [2]*Session
	for i := range pair {
		s, err := NewTCPSession("127.0.0.1:0", 3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		chaos := runtime.NewChaos(runtime.TCP{}, 11)
		s.SetClockHook(chaos.Advance)
		s.SetCheckpointDir(t.TempDir())
		s.SetRejoin(2, 500*time.Millisecond)
		// Workers 0 and 1 rejoin when the master goes away; worker 2 dials
		// through the injector and stays dead once severed.
		startTCPWorker(s.Addr(), 0, runtime.TCP{}, true)
		startTCPWorker(s.Addr(), 1, runtime.TCP{}, true)
		startTCPWorker(s.Addr(), 2, chaos, false)
		if err := s.WaitForWorkers(); err != nil {
			t.Fatal(err)
		}
		fillMF(t, s)
		chaosOf[s] = chaos
		pair[i] = s
	}
	runResidentScript(t, pair[0], pair[1], "ratings", []residentStep{
		{what: "first call", want: first},
		{what: "unchanged", want: reuse},
		{what: "a worker lost for good", opts: []Option{Passes(2)}, want: []string{"reuse", "ship:fleet"},
			before: func(t *testing.T, s *Session) {
				chaosOf[s].Schedule(runtime.FaultEvent{Clock: s.Clock() + 1, Addr: s.Addr(), Conn: 0, Kind: runtime.FaultSever})
			}},
		// The recovered attempt ran on the 3-worker artifact's cuts
		// merged onto 2; the next call plans for 2 workers and cuts anew.
		{what: "the first call planned for the survivors", want: []string{"ship:recut"}},
		{what: "unchanged", want: reuse},
	}, "W", "H")
	if got := pair[0].Workers(); got != 2 {
		t.Errorf("fleet = %d workers, want the 2 survivors", got)
	}
}

// TestPrefetchIndexCacheFollowsGlobals: the executors' cached prefetch
// indices survive a new value of a global the slice does not read and
// are dropped for one it does — with no read missing either way.
func TestPrefetchIndexCacheFollowsGlobals(t *testing.T) {
	sess, ref := localPair(t, 2, fillSLR)
	idxReuse := obs.GetCounter("exec.prefetch_index_reuse")
	for i, st := range []struct {
		what   string
		set    func(s *Session)
		reused int64 // blocks that reused their indices, of 2 per pass
	}{
		{"first call, three passes", func(*Session) {}, 4},
		{"unchanged", func(*Session) {}, 6},
		{"SetGlobal of a global the slice does not read", func(s *Session) { s.SetGlobal("step_size", 0.05) }, 6},
		{"SetGlobal of the global the subscript reads", func(s *Session) { s.SetGlobal("scale", 32) }, 4},
		{"unchanged", func(*Session) {}, 6},
	} {
		for _, s := range []*Session{ref, sess} {
			st.set(s)
			if s == ref {
				s.RegisterArray(s.Array("samples").Clone())
			}
			before := idxReuse.Value()
			if _, err := s.ParallelFor(slrDenseSrc, Passes(3)); err != nil {
				t.Fatal(err)
			}
			if got := idxReuse.Value() - before; s == sess && got != st.reused {
				t.Errorf("call %d (%s): exec.prefetch_index_reuse +%d, want +%d", i+1, st.what, got, st.reused)
			}
		}
	}
	if m := sess.Misses(); m != 0 {
		t.Errorf("%d prefetch misses", m)
	}
	assertBitwiseEqual(t, snapshotBits(ref, "weights"), snapshotBits(sess, "weights"))
}

// TestChaosServedSLRBitwiseReproducible: two workers' same-step update
// batches reach a shard owner in whichever order the links deliver
// them. Two runs with opposite links delayed — so the batches arrive in
// opposite orders — gather bit-identical weights, because owners fold
// by (epoch, sender) and not by arrival.
func TestChaosServedSLRBitwiseReproducible(t *testing.T) {
	run := func(slow int) map[string]map[string]uint64 {
		sess, chaos, _ := chaosLocalSession(t, 2, 9)
		defer sess.Close()
		fillSLR(t, sess)
		// A 1D loop is one step per pass. The shard-RPC links are dialed
		// during the first, so delays scheduled from clock 1 on land on
		// them: every flush to the slow owner arrives after the owner's
		// own, every flush from it after the other owner's own.
		for clock := int64(1); clock < 5; clock++ {
			chaos.Schedule(runtime.FaultEvent{Clock: clock, Addr: sess.master.PeerAddrs()[slow], Conn: -1,
				Kind: runtime.FaultDelay, Delay: 15 * time.Millisecond})
		}
		if _, err := sess.ParallelFor(slrDenseSrc, Passes(5)); err != nil {
			t.Fatal(err)
		}
		if chaos.Applied() == 0 {
			t.Fatal("no delay was injected")
		}
		return snapshotBits(sess, "weights")
	}
	assertBitwiseEqual(t, run(0), run(1))
}

// countedConn counts the bytes crossing a connection in both directions.
type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// masterLinkCounter is a Transport that counts the bytes on every
// connection dialed to the master.
type masterLinkCounter struct {
	runtime.Transport
	master string
	bytes  atomic.Int64
}

func (c *masterLinkCounter) Dial(addr string) (net.Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err != nil || addr != c.master {
		return conn, err
	}
	return countedConn{conn, &c.bytes}, nil
}

// TestResidentSecondCallShipsAQuarter: the second of two identical MF
// calls moves at most a quarter of the first's bytes over the master
// links — the model arrays, the loop and the barrier traffic, not the
// ratings.
func TestResidentSecondCallShipsAQuarter(t *testing.T) {
	tr := &masterLinkCounter{Transport: runtime.NewInProc(), master: "resident-bytes-master"}
	sess, err := NewLocalSessionOver(tr, tr.master, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const rows, cols, rank = 300, 200, 4
	ds := data.NewRatings(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 20000, Rank: rank, Noise: 0.05, Seed: 3})
	ratings := sess.CreateArray("ratings", false, rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(1))
	sess.CreateArray("W", true, rank, rows).FillRandn(rng, 1.0/rank)
	sess.CreateArray("H", true, rank, cols).FillRandn(rng, 1.0)
	sess.SetGlobal("step_size", 0.01)
	sess.SetGlobal("err", 0)

	var calls [2]int64
	for i := range calls {
		before := tr.bytes.Load()
		if _, err := sess.ParallelFor(mfSrc); err != nil {
			t.Fatal(err)
		}
		calls[i] = tr.bytes.Load() - before
	}
	t.Logf("master-link bytes: call 1 %d, call 2 %d (%.1f%%)", calls[0], calls[1], 100*float64(calls[1])/float64(calls[0]))
	if calls[1] == 0 || 4*calls[1] > calls[0] {
		t.Errorf("call 2 moved %d bytes over the master links, call 1 %d: want at most a quarter", calls[1], calls[0])
	}
}

// TestIterSamplesAllocsIndependentOfCount: flattening the iteration
// space allocates the sample slice, one backing array for every key and
// the walk's bookkeeping — the same number of times for 200 ratings as
// for 20000.
func TestIterSamplesAllocsIndependentOfCount(t *testing.T) {
	sess, err := NewLocalSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var allocs []float64
	for _, nnz := range []int{200, 20000} {
		ds := data.NewRatings(data.RatingsConfig{Rows: 300, Cols: 200, NNZ: nnz, Rank: 2, Seed: 3})
		ratings := dsm.NewSparse("ratings", 300, 200)
		for i := range ds.I {
			ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
		}
		sess.RegisterArray(ratings)
		sess.CreateArray("W", true, 2, 300)
		sess.CreateArray("H", true, 2, 200)
		sess.SetGlobal("step_size", 0.01)
		sess.SetGlobal("err", 0)
		spec, _, _, err := sess.PlanOf(mfSrc)
		if err != nil {
			t.Fatal(err)
		}
		var samples []runtime.IterSample
		allocs = append(allocs, testing.AllocsPerRun(5, func() { samples = sess.iterSamples(spec) }))
		if len(samples) != ratings.Len() {
			t.Fatalf("%d samples of %d ratings", len(samples), ratings.Len())
		}
		for i, sm := range samples[:50] {
			if math.Float64bits(ratings.At(sm.Key...)) != math.Float64bits(sm.Val) || len(sm.Key) != 2 ||
				(i > 0 && ratings.Flatten(samples[i-1].Key...) >= ratings.Flatten(sm.Key...)) {
				t.Fatalf("sample %d = %v: not the array's element, or out of offset order", i, sm)
			}
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 8 {
		t.Errorf("flattening allocates %v times for 200 ratings and %v for 20000; want the same small number", allocs[0], allocs[1])
	}
}
