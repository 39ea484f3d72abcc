package driver

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orion/examples"
	"orion/internal/data"
	"orion/internal/diag"
	"orion/internal/lang"
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
// clone of the iteration array and of every compared array before every
// call, so it always gathers and always ships, which is what every call
// did before there was anything resident. The model arrays (resident.go)
// are held to the same scripts: a step that lists arrays asserts what
// was shipped, reused and fetched of them.

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
	// arrays, when set, lists the call's model-array decisions in order
	// (arrayDecisions).
	arrays []string
}

// arrayDecisions lists what the flight log says happened to the model
// arrays: "ship:W mutated", "reuse:H", "fetch:z read".
func arrayDecisions() []string {
	var out []string
	for _, ev := range obs.Flight().Events() {
		if verb, ok := strings.CutPrefix(string(ev.Kind), "array."); ok {
			out = append(out, verb+":"+ev.Detail)
		}
	}
	return out
}

// arrayCounters reads driver.array_{ship,reuse,fetch}.
func arrayCounters() (c [3]int64) {
	for i, verb := range []string{"ship", "reuse", "fetch"} {
		c[i] = obs.GetCounter("driver.array_" + verb).Value()
	}
	return c
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
				for _, name := range append([]string{iter}, arrays...) {
					s.RegisterArray(s.Array(name).Clone())
				}
			} else if st.fault != nil {
				st.fault(t, s)
			}
			obs.Flight().Reset()
			ship0, reuse0, arrays0 := ship.Value(), reuse.Value(), arrayCounters()
			if _, err := s.ParallelFor(src, st.opts...); err != nil {
				t.Fatalf("call %d (%s): %v", i+1, st.what, err)
			}
			got, gotArrays := iterspaceDecisions(), arrayDecisions()
			if s == ref {
				// A later attempt of the same call may reuse what the first
				// shipped: an array's first decision is what counts.
				decided := map[string]bool{}
				for _, d := range gotArrays {
					name, isReuse := strings.CutPrefix(d, "reuse:")
					if isReuse && !decided[name] && slices.Contains(arrays, name) {
						t.Fatalf("call %d (%s): the reference session reused %s: %v", i+1, st.what, name, gotArrays)
					}
					name, _, _ = strings.Cut(strings.TrimPrefix(strings.TrimPrefix(d, "ship:"), "reuse:"), " ")
					decided[name] = true
				}
				if slices.Contains(got, "reuse") {
					t.Fatalf("call %d (%s): the reference session reused: %v", i+1, st.what, got)
				}
				continue
			}
			if st.arrays != nil && !slices.Equal(gotArrays, st.arrays) {
				t.Errorf("call %d (%s): model arrays %v, want %v", i+1, st.what, gotArrays, st.arrays)
			}
			var logged [3]int64
			for _, d := range gotArrays {
				verb, _, _ := strings.Cut(d, ":")
				logged[slices.Index([]string{"ship", "reuse", "fetch"}, verb)]++
			}
			now := arrayCounters()
			for k := range now {
				now[k] -= arrays0[k]
			}
			if now != logged {
				t.Errorf("call %d (%s): driver.array_{ship,reuse,fetch} +%v; the flight log says %v", i+1, st.what, now, logged)
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

// fillSparseSLR declares the served SLR problem slrSrc runs, with a
// sparse iteration array.
func fillSparseSLR(t *testing.T, s *Session) {
	t.Helper()
	const n, dim = 300, 64
	samples := s.CreateArray("samples", false, n)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < n; i++ {
		samples.SetAt(rng.Float64()*0.98+0.01, i)
	}
	s.CreateArray("weights", true, dim)
	if err := s.CreateBuffer("w_buf", "weights"); err != nil {
		t.Fatal(err)
	}
	s.SetGlobal("step_size", 0.1)
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
// the same resident samples the same way in space, so the second reuses
// what the first shipped — and must run it in shipped order, not in the
// order the ordered loop's blocks were sorted into. Of the model arrays
// only H changes placement each time: wavefront and ring.
func TestResidentOrderedThenUnordered(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	moveH := []string{"reuse:W", "fetch:H rekeyed", "ship:H rekeyed"}
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "ordered", opts: []Option{Ordered()}, want: first, arrays: []string{"ship:W first", "ship:H first"}},
		{what: "unordered after ordered", want: reuse, arrays: moveH},
		{what: "ordered again", opts: []Option{Ordered()}, want: reuse, arrays: moveH},
		{what: "unordered, two passes", opts: []Option{Passes(2)}, want: reuse, arrays: moveH},
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
// faulted session equals the fault-free reference), a grow, and an
// adaptive recut that moves the cuts.
func TestChaosResidentSurvivesReconfiguration(t *testing.T) {
	fleet := []string{"reuse", "ship:fleet"}
	for _, tc := range []struct {
		name string
		last residentStep
	}{
		{"killed worker", residentStep{what: "a worker killed mid-pass", opts: []Option{Passes(2)}, want: fleet,
			arrays: []string{"reuse:W", "reuse:H", "ship:W fleet", "ship:H fleet", armedH, armedW},
			fault: func(t *testing.T, s *Session) {
				chaosOf[s].Schedule(runtime.FaultEvent{Clock: s.Clock() + 1, Addr: s.Addr(), Conn: 1, Kind: runtime.FaultSever})
			}}},
		{"grow", residentStep{what: "a grow at the pass boundary", opts: []Option{Passes(2)}, want: fleet,
			arrays: []string{"reuse:W", "reuse:H", armedH, armedW, "ship:W fleet", "ship:H fleet", armedH, armedW},
			before: func(t *testing.T, s *Session) {
				if err := s.Grow(3); err != nil {
					t.Fatal(err)
				}
			}}},
		{"adaptive recut", residentStep{what: "a recut at the pass boundary", opts: []Option{Passes(2)}, want: []string{"reuse", "ship:recut"},
			// The recut moves the space cuts and leaves the time cuts: W, not H.
			arrays: []string{"reuse:W", "reuse:H", armedH, armedW, "ship:W rekeyed", "reuse:H", armedH, armedW},
			before: func(t *testing.T, s *Session) {
				s.SetAdapt(0.5) // skew >= 1 always: recut at the boundary
				s.adaptProfile = func(kernel string, _ *obs.LoopReport) *analyze.WeightProfile {
					return &analyze.WeightProfile{Loop: kernel, Workers: []analyze.WorkerCost{
						{Worker: 0, CostFactor: 4}, {Worker: 1, CostFactor: 1}}}
				}
			}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pair [2]*Session
			for i := range pair {
				s, chaos, _ := chaosLocalSession(t, 2, 42)
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

// While a checkpoint directory is set, every completed attempt is
// followed by a fetch of what it wrote.
const armedH, armedW = "fetch:H checkpoint-armed", "fetch:W checkpoint-armed"

// chaosOf finds a chaos session's fault injector from a step's hooks.
var chaosOf = map[*Session]*runtime.Chaos{}

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

// Write counts p before it writes: on a synchronous pipe the reader may
// act on the last byte before Write returns.
func (c countedConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n - len(p)))
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
// calls moves at most a twentieth (it was a quarter while the model
// arrays still went out and came back) of the first's bytes over the
// master links — the loop and the barrier traffic, not the ratings and
// not W or H — and reading W back afterwards moves W and not H.
func TestResidentSecondCallShipsAQuarter(t *testing.T) {
	tr := &masterLinkCounter{Transport: runtime.NewInProc(), master: "resident-bytes-master"}
	sess, err := NewLocalSessionOver(tr, tr.master, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const rows, rank = 300, 4
	if err := examples.NewMF(data.RatingsConfig{Rows: rows, Cols: 200, NNZ: 20000, Rank: rank, Noise: 0.05, Seed: 3}).Register(sess); err != nil {
		t.Fatal(err)
	}
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
	if calls[1] == 0 || 20*calls[1] > calls[0] {
		t.Errorf("call 2 moved %d bytes over the master links, call 1 %d: want at most 5%%", calls[1], calls[0])
	}
	before := tr.bytes.Load()
	sess.Array("W")
	if got := tr.bytes.Load() - before; got < 8*rank*rows || got > 8*rank*rows+2048 {
		t.Errorf("reading W back moved %d bytes over the master links, want its %d and two message envelopes", got, 8*rank*rows)
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
		ratings := examples.NewMF(data.RatingsConfig{Rows: 300, Cols: 200, NNZ: nnz, Rank: 2, Seed: 3}).Arrays["ratings"]
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

// masterSends counts the messages the master has sent its executors.
func masterSends(n int) (total int64) {
	for id := 0; id < n; id++ {
		total += obs.Peer("master/exec" + itoa(id)).MsgsSent.Value()
	}
	return total
}

// TestResidentSecondCallShipsNoArrays: the second of two identical
// calls with no read in between reuses every model array — the master
// sends each executor the loop and one block per step, so no
// MsgArrayPart and no MsgServedShard — and a read afterwards moves
// exactly one gather, of the array that was asked for, once.
func TestResidentSecondCallShipsNoArrays(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fill   func(*testing.T, *Session)
		src    string
		arrays []string // in plan order, a written one first
		steps  int64
	}{
		{"MF", fillMF, mfSrc, []string{"W", "H"}, 2},
		{"SLR", fillSLR, slrDenseSrc, []string{"weights"}, 1},
		{"LDA", func(t *testing.T, s *Session) { fillLDA(t, s, 4) }, ldaDSL, []string{"z", "doc_topic", "word_topic", "totals"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewLocalSession(2)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			tc.fill(t, sess)
			call := func(verb, reason string) {
				t.Helper()
				obs.Flight().Reset()
				if _, err := sess.ParallelFor(tc.src); err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, name := range tc.arrays {
					want = append(want, strings.TrimSpace(verb+":"+name+" "+reason))
				}
				if got := arrayDecisions(); !slices.Equal(got, want) {
					t.Errorf("model arrays %v, want %v", got, want)
				}
			}
			call("ship", "first")
			before := masterSends(2)
			call("reuse", "")
			if got, want := masterSends(2)-before, 2*(1+tc.steps); got != want {
				t.Errorf("the second call sent the executors %d messages, want %d: a DefineLoop and %d ExecBlock each", got, want, tc.steps)
			}

			obs.Flight().Reset()
			before = masterSends(2)
			if sess.Array(tc.arrays[0]) == nil || sess.Array(tc.arrays[0]) == nil {
				t.Fatal("Array returned nil")
			}
			if got := masterSends(2) - before; got != 2 {
				t.Errorf("two reads of %s sent the executors %d messages, want one MsgGather each", tc.arrays[0], got)
			}
			if got, want := arrayDecisions(), []string{"fetch:" + tc.arrays[0] + " read"}; !slices.Equal(got, want) {
				t.Errorf("two reads of %s: %v, want %v", tc.arrays[0], got, want)
			}
			call("reuse", "")

			// Close fetches what the last call wrote, so Array keeps answering.
			obs.Flight().Reset()
			sess.Close()
			var want []string
			for _, name := range tc.arrays {
				want = append(want, "fetch:"+name+" close")
			}
			slices.Sort(want)
			if got := arrayDecisions(); !slices.Equal(got, want) {
				t.Errorf("Close: %v, want %v", got, want)
			}
			if sess.Array(tc.arrays[0]) == nil {
				t.Errorf("Array(%q) = nil after Close", tc.arrays[0])
			}
		})
	}
}

// TestResidentDriverWriteReshipsOnlyThatArray: a write between calls to
// the copy Array hands out — dense through a live Vec or DenseData view,
// sparse through SetAt — re-ships that array, once, and nothing else.
func TestResidentDriverWriteReshipsOnlyThatArray(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "first call", want: first, arrays: []string{"ship:W first", "ship:H first"}},
		{what: "unchanged", want: reuse, arrays: []string{"reuse:W", "reuse:H"}},
		{what: "a write through Vec", want: reuse, arrays: []string{"ship:W mutated", "reuse:H"}, before: func(t *testing.T, s *Session) {
			s.Array("W").Vec(3)[1] += 0.5
		}},
		{what: "unchanged", want: reuse, arrays: []string{"reuse:W", "reuse:H"}},
		{what: "a write through DenseData", want: reuse, arrays: []string{"reuse:W", "ship:H mutated"}, before: func(t *testing.T, s *Session) {
			d, _ := s.Array("H").DenseData()
			d[7] = 0.125
		}},
		{what: "a read, and a write of the bits already there", want: reuse, arrays: []string{"reuse:W", "reuse:H"}, before: func(t *testing.T, s *Session) {
			d, _ := s.Array("H").DenseData()
			d[7] = math.Float64frombits(math.Float64bits(d[7]))
			s.Array("W")
		}},
	}, "W", "H")

	sess, ref = localPair(t, 2, func(t *testing.T, s *Session) { fillLDA(t, s, 4) })
	lda := func(st residentStep) residentStep { st.src = ldaDSL; return st }
	others := []string{"reuse:doc_topic", "reuse:word_topic", "reuse:totals"}
	runResidentScript(t, sess, ref, "tokens", []residentStep{
		lda(residentStep{what: "first call", want: first,
			arrays: []string{"ship:z first", "ship:doc_topic first", "ship:word_topic first", "ship:totals first"}}),
		lda(residentStep{what: "unchanged", want: reuse, arrays: append([]string{"reuse:z"}, others...)}),
		lda(residentStep{what: "SetAt on the sparse z", want: reuse, arrays: append([]string{"ship:z mutated"}, others...), before: func(t *testing.T, s *Session) {
			idx, _ := s.Array("z").Entries()
			s.Array("z").SetAt(2, idx[5]...)
		}}),
		lda(residentStep{what: "unchanged", want: reuse, arrays: append([]string{"reuse:z"}, others...)}),
	}, "z", "doc_topic", "word_topic", "totals")
}

// TestResidentOrderedMovesOnlyH: an ordered loop hands down the
// wavefront what the unordered one rotates around the ring — a distinct
// placement, over eight time cuts per executor instead of one — so going
// from one to the other re-places H, by way of the driver, the fetch it
// had not had yet, and leaves the space-local W where it is.
func TestResidentOrderedMovesOnlyH(t *testing.T) {
	sess, ref := localPair(t, 2, fillMF)
	moveH := []string{"reuse:W", "fetch:H rekeyed", "ship:H rekeyed"}
	runResidentScript(t, sess, ref, "ratings", []residentStep{
		{what: "unordered", want: first, arrays: []string{"ship:W first", "ship:H first"}},
		{what: "ordered after unordered", opts: []Option{Ordered()}, want: reuse, arrays: moveH},
		{what: "ordered again", opts: []Option{Ordered()}, want: reuse, arrays: []string{"reuse:W", "reuse:H"}},
		{what: "unordered after ordered", want: reuse, arrays: moveH},
		{what: "ordered after a read of H", opts: []Option{Ordered()}, want: reuse, arrays: []string{"reuse:W", "ship:H rekeyed"},
			before: func(t *testing.T, s *Session) { s.Array("H") }},
	}, "W", "H")
}

// TestResidentLazyEqualsEagerBitwise: when the driver reads does not
// change what the fleet computes. Six single-pass calls end bit for bit
// the same whether every written array is read back after each call,
// nothing is read until the end, one array (the sparse z; H) stays
// unfetched until the end, or residency is defeated altogether (a clone
// of every array re-registered before each call: a gather and a ship per
// array per call, as before there was anything resident) — and the
// ordered loop still ends where the serial interpreter does.
func TestResidentLazyEqualsEagerBitwise(t *testing.T) {
	local := func(t *testing.T) *Session {
		s, err := NewLocalSession(2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		open    func(t *testing.T) *Session
		fill    func(*testing.T, *Session)
		src     string
		opts    []Option
		written []string // the one left unfetched last
	}{
		{"MF rotated", local, fillMF, mfSrc, nil, []string{"W", "H"}},
		{"MF ordered", local, fillMF, mfSrc, []Option{Ordered()}, []string{"W", "H"}},
		{"SLR served", local, fillSLR, slrDenseSrc, nil, []string{"weights"}},
		{"LDA over TCP", func(t *testing.T) *Session {
			if testing.Short() {
				t.Skip("real sockets")
			}
			s, err := NewLocalSessionOver(runtime.TCP{}, "127.0.0.1:0", "127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(t *testing.T, s *Session) { fillLDA(t, s, 4) }, ldaDSL, nil, []string{"doc_topic", "word_topic", "totals", "z"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(between func(s *Session)) map[string]map[string]uint64 {
				s := tc.open(t)
				defer s.Close()
				tc.fill(t, s)
				for call := 0; call < 6; call++ {
					if _, err := s.ParallelFor(tc.src, tc.opts...); err != nil {
						t.Fatal(err)
					}
					between(s)
				}
				return snapshotBits(s, tc.written...)
			}
			read := func(names []string) func(*Session) {
				return func(s *Session) {
					for _, name := range names {
						if s.Array(name) == nil {
							t.Fatalf("Array(%q) = nil", name)
						}
					}
				}
			}
			atEnd := run(func(*Session) {})
			assertBitwiseEqual(t, atEnd, run(read(tc.written)))
			assertBitwiseEqual(t, atEnd, run(read(tc.written[:len(tc.written)-1])))
			iter := map[string]string{mfSrc: "ratings", slrDenseSrc: "samples", ldaDSL: "tokens"}[tc.src]
			assertBitwiseEqual(t, atEnd, run(func(s *Session) {
				for _, name := range append([]string{iter}, tc.written...) {
					s.RegisterArray(s.Array(name).Clone())
				}
			}))
			if len(tc.opts) > 0 {
				assertBitwiseEqual(t, serialMFLexicographic(t, 6), atEnd)
			}
		})
	}
}

// serialMFLexicographic is fillMF's problem run by the interpreter for
// the given number of passes in lexicographic order — what an ordered
// loop promises.
func serialMFLexicographic(t *testing.T, passes int) map[string]map[string]uint64 {
	t.Helper()
	s, err := NewLocalSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillMF(t, s)
	m := lang.NewMachine()
	for _, name := range []string{"ratings", "W", "H"} {
		m.Arrays[name] = s.Array(name)
	}
	m.Globals["step_size"], m.Globals["err"] = float64(0.05), float64(0)
	loop, err := lang.Parse(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := s.Array("ratings").Entries() // offset order: column-major
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(keys[a], keys[b]) })
	for p := 0; p < passes; p++ {
		for _, i := range order {
			if err := m.RunIteration(loop, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return snapshotBits(s, "W", "H")
}

// TestChaosDropBetweenCalls blackholes a worker after a call whose
// results nobody has read yet. With a checkpoint directory set the
// driver's copies were kept current, so the next call recovers and ends
// bit for bit where a fault-free session does; without one the updates
// went with the fleet, and both ways of finding out say so — ORN301
// naming the arrays, from ParallelFor as an error and from Array as nil
// plus a diagnostic — instead of handing back the stale copies. Nothing
// hangs: every step runs against the test's own deadline.
func TestChaosDropBetweenCalls(t *testing.T) {
	open := func(t *testing.T) (*Session, *runtime.Chaos) {
		sess, chaos, _ := chaosLocalSession(t, 2, 23)
		sess.SetHeartbeat(1500 * time.Millisecond)
		fillMF(t, sess)
		return sess, chaos
	}
	bounded := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s hung on the blackholed worker", what)
		}
	}
	firstCallThenDrop := func(t *testing.T, sess *Session, chaos *runtime.Chaos) {
		t.Helper()
		if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
			t.Fatal(err)
		}
		chaos.Schedule(runtime.FaultEvent{Clock: sess.Clock(), Addr: sess.Addr(), Conn: 1, Kind: runtime.FaultDrop})
		chaos.Advance(sess.Clock())
		if chaos.Applied() != 1 {
			t.Fatal("the drop did not land on worker 1's master link")
		}
	}
	lostNamed := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, runtime.ErrWorkerLost) || !strings.Contains(err.Error(), "H, W") {
			t.Errorf("err = %v, want ErrWorkerLost naming H, W", err)
		}
	}

	t.Run("checkpoint directory set", func(t *testing.T) {
		ref, _ := open(t)
		defer ref.Close()
		ref.SetCheckpointDir(t.TempDir())
		for call := 0; call < 2; call++ {
			if _, err := ref.ParallelFor(mfSrc, Passes(2)); err != nil {
				t.Fatal(err)
			}
		}
		sess, chaos := open(t)
		defer bounded(t, "Close", sess.Close)
		sess.SetCheckpointDir(t.TempDir())
		firstCallThenDrop(t, sess, chaos)
		bounded(t, "the second call", func() {
			if _, err := sess.ParallelFor(mfSrc, Passes(2)); err != nil {
				t.Errorf("the second call did not recover: %v", err)
			}
		})
		if got := sess.Recoveries(); got != 1 {
			t.Errorf("recoveries = %d, want 1", got)
		}
		assertBitwiseEqual(t, snapshotBits(ref, "W", "H"), snapshotBits(sess, "W", "H"))
	})

	t.Run("no checkpoint directory: ParallelFor", func(t *testing.T) {
		sess, chaos := open(t)
		defer bounded(t, "Close", sess.Close)
		entry := snapshotBits(sess, "W", "H")
		firstCallThenDrop(t, sess, chaos)
		bounded(t, "the second call", func() {
			_, err := sess.ParallelFor(mfSrc, Passes(2))
			lostNamed(t, err)
		})
		// The driver's copies stay at their last fetched state: loop entry.
		assertBitwiseEqual(t, entry, snapshotBits(sess, "W", "H"))
	})

	t.Run("no checkpoint directory: Array", func(t *testing.T) {
		sess, chaos := open(t)
		defer bounded(t, "Close", sess.Close)
		firstCallThenDrop(t, sess, chaos)
		bounded(t, "Array", func() {
			if a := sess.Array("W"); a != nil {
				t.Error("Array handed back a copy of W the fleet had since updated")
			}
		})
		if !slices.ContainsFunc(sess.Diagnostics(), func(d diag.Diagnostic) bool {
			return d.Code == diag.CodeWorkerLost && strings.Contains(d.Message, "H, W")
		}) {
			t.Errorf("diagnostics %v: want ORN301 naming H, W", sess.Diagnostics())
		}
	})
}
