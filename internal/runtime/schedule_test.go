package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/sched"
)

// dispatched is what one MsgExecBlock told one executor to run.
type dispatched struct {
	TimeLo, TimeHi  int64
	Pass, StepIndex int
	Epoch           int64
}

// fakeFleet registers n executors that run nothing: each records the
// blocks it is sent (blocks[j], in arrival order) and the bounds of the
// array partitions it is handed (parts; a count per placement message on
// counts), and answers every block at once.
type fakeFleet struct {
	m      *Master
	blocks [][]dispatched
	parts  chan [3]int64 // executor, Lo, Hi
	counts chan [2]int   // executor, partitions
}

func startFakeFleet(t *testing.T, prefix string, n int) *fakeFleet {
	t.Helper()
	tr := NewInProc()
	m, err := Listen(tr, prefix+"-master", n)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeFleet{m: m, blocks: make([][]dispatched, n), parts: make(chan [3]int64, 64), counts: make(chan [2]int, n)}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	exited := make(chan struct{}, n)
	for j := 0; j < n; j++ {
		conn, err := tr.Dial(m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newCodec(conn)
		if err := c.send(&Msg{Kind: MsgHello, ExecutorID: j, PeerAddr: fmt.Sprintf("%s-%d", prefix, j)}); err != nil {
			t.Fatal(err)
		}
		go func(j int) {
			defer func() { exited <- struct{}{} }()
			defer c.close()
			for {
				msg, err := c.recv()
				if err != nil || msg.Kind == MsgShutdown {
					return
				}
				switch msg.Kind {
				case MsgExecBlock:
					// Only the test goroutine reads blocks[j], after the
					// barrier this reply releases.
					f.blocks[j] = append(f.blocks[j], dispatched{msg.TimeLo, msg.TimeHi, msg.Pass, msg.StepIndex, msg.Epoch})
					c.send(&Msg{Kind: MsgBlockDone})
				case MsgArrayPart:
					for _, p := range msg.Parts {
						f.parts <- [3]int64{int64(j), p.Lo, p.Hi}
					}
					f.counts <- [2]int{j, len(msg.Parts)}
				}
			}
		}(j)
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Shutdown()
		for j := 0; j < n; j++ {
			<-exited
		}
	})
	// The fakes ignore the definition; the master runs only what it defined.
	if err := m.DefineLoop(&Msg{LoopName: "none"}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDispatchFollowsTheSchedule: what the master sends is the loop's
// sched.Schedule mapped through TimePart.Bounds and nothing else. The
// 2n- and 4-part cases have more time partitions than executors, which
// step arithmetic over the executor count cannot dispatch.
func TestDispatchFollowsTheSchedule(t *testing.T) {
	const n, passes = 3, 2
	cut := func(parts int) *sched.Partitioner { return sched.NewRangePartitioner(12, parts) }
	for _, tc := range []struct {
		name     string
		def      LoopDef
		schedule sched.Schedule
	}{
		{"1D", LoopDef{TimeDim: -1}, sched.OneDSchedule(n)},
		{"unordered", LoopDef{TimeDim: 1, TimePart: cut(n), Rotate: true}, sched.UnorderedTwoDSchedule(n, 1)},
		{"unordered-depth2", LoopDef{TimeDim: 1, TimePart: cut(2 * n)}, sched.UnorderedTwoDSchedule(n, 2)},
		{"ordered", LoopDef{TimeDim: 1, TimePart: cut(n), Ordered: true}, sched.OrderedTwoDSchedule(n, n)},
		{"ordered-4parts", LoopDef{TimeDim: 1, TimePart: cut(4), Ordered: true}, sched.OrderedTwoDSchedule(n, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startFakeFleet(t, "dispatch-"+tc.name, n)
			tc.def.Kernel, tc.def.Passes = "none", passes
			if err := f.m.ParallelFor(tc.def); err != nil {
				t.Fatal(err)
			}
			want := make([][]dispatched, n)
			epoch := int64(0)
			for pass := 0; pass < passes; pass++ {
				for step, execs := range tc.schedule {
					epoch++
					for j := 0; j < n; j++ {
						d := dispatched{Pass: pass, StepIndex: step, Epoch: epoch} // idle: an empty block
						for _, e := range execs {
							if e.Worker == j && e.TimePart >= 0 {
								d.TimeLo, d.TimeHi = tc.def.TimePart.Bounds(e.TimePart)
							}
						}
						want[j] = append(want[j], d)
					}
				}
			}
			if !reflect.DeepEqual(f.blocks, want) {
				t.Errorf("dispatched, by executor:\n %v\nwant the schedule:\n %v", f.blocks, want)
			}
			if got, want := f.m.Clock(), int64(passes*len(tc.schedule)); got != want {
				t.Errorf("clock = %d after %d passes of a %d-step schedule", got, passes, len(tc.schedule))
			}
		})
	}

	t.Run("rotate-needs-one-part-per-executor", func(t *testing.T) {
		f := startFakeFleet(t, "dispatch-reject", n)
		err := f.m.ParallelFor(LoopDef{Kernel: "none", TimeDim: 1, TimePart: cut(2 * n), Rotate: true, Passes: 1})
		if err == nil || !strings.Contains(err.Error(), "6 partitions for 3 executors") {
			t.Errorf("Rotate over 2n time partitions: err = %v, want a rejection", err)
		}
		for j, b := range f.blocks {
			if len(b) != 0 {
				t.Errorf("executor %d was sent %d blocks of a rejected loop", j, len(b))
			}
		}
	})

	t.Run("rotated-placement", func(t *testing.T) {
		f := startFakeFleet(t, "dispatch-phase", n)
		h := dsm.NewDense("H", 2, 12)
		timePart := cut(n)
		ring := sched.UnorderedTwoDSchedule(n, 1)
		for phase := 0; phase <= n; phase++ { // phase n has gone all the way round
			if err := f.m.DistributeRotatedAt(h, 1, timePart.Boundaries(), phase); err != nil {
				t.Fatal(err)
			}
			got := make([][2]int64, n)
			for range got {
				<-f.counts
				p := <-f.parts
				got[p[0]] = [2]int64{p[1], p[2]}
			}
			for _, e := range ring[phase%n] {
				lo, hi := timePart.Bounds(e.TimePart)
				if got[e.Worker] != [2]int64{lo, hi} {
					t.Errorf("phase %d: executor %d holds H[:, %d:%d], want time partition %d = [%d, %d)",
						phase, e.Worker, got[e.Worker][0], got[e.Worker][1], e.TimePart, lo, hi)
				}
			}
		}
	})

	t.Run("wavefront-placement", func(t *testing.T) {
		f := startFakeFleet(t, "dispatch-wave", n)
		h := dsm.NewDense("H", 2, 12)
		timePart := cut(4)
		wave := sched.OrderedTwoDSchedule(n, 4)
		for step := 0; step <= len(wave); step++ { // the last one is the next pass's first
			if err := f.m.DistributeWavefrontAt(h, 1, timePart.Boundaries(), step); err != nil {
				t.Fatal(err)
			}
			want := map[[3]int64]bool{}
			for i := 0; i < timePart.Parts(); i++ {
				lo, hi := timePart.Bounds(i)
				want[[3]int64{int64(wave.Holder(step, i)), lo, hi}] = true
			}
			got := map[[3]int64]bool{}
			for range n { // one message per executor, even one that holds nothing
				for c := (<-f.counts)[1]; c > 0; c-- {
					got[<-f.parts] = true
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("step %d: executor, H[:, lo:hi] placed %v, want %v", step, got, want)
			}
		}
	})
}

// TestChaosDropAfterLoopFailsGatherAndAccumSum: a worker blackholed
// after its last BlockDone answers no gather and no accumulator query,
// and its connection never closes. With staleness detection armed every
// wait of the master must turn that into ErrWorkerLost; only the step
// barrier used to, and the others hung.
func TestChaosDropAfterLoopFailsGatherAndAccumSum(t *testing.T) {
	loops := testLoops{"rt_await_noop": {Block: perSample(func(ctx *Ctx, key []int64, val float64) { ctx.AccumAdd("seen", 1) })}}
	const n = 2
	const timeout = 300 * time.Millisecond
	ch := NewChaos(NewInProc(), 1)
	m, _, stop := startFleetOver(t, ch, "await-master", func(i int) string { return fmt.Sprintf("await-%d", i) }, n,
		loops.compile, func(e *Executor) { e.SetPingInterval(timeout / 10) })
	defer stop()
	m.SetHeartbeat(timeout)

	w := dsm.NewDense("W", 2, 8)
	_, samples := servedFixture()
	part := sched.NewRangePartitioner(int64(len(samples)), n)
	if err := m.DistributeLocal(w, 1, []int64{4}); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, part); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLoop(&Msg{LoopName: "rt_await_noop"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "rt_await_noop", TimeDim: -1, Passes: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err := m.AccumSum("seen"); err != nil || got != float64(len(samples)) {
		t.Fatalf("healthy fleet: AccumSum = %v, %v", got, err)
	}

	ch.Schedule(FaultEvent{Addr: m.Addr(), Conn: 1, Kind: FaultDrop})
	ch.Advance(m.Clock())
	if ch.Applied() != 1 {
		t.Fatal("the drop did not land on executor 1's master link")
	}

	for what, wait := range map[string]func() error{
		"Gather":   func() error { _, err := m.Gather("W"); return err },
		"AccumSum": func() error { _, err := m.AccumSum("seen"); return err },
	} {
		errCh := make(chan error, 1)
		go func() { errCh <- wait() }()
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrWorkerLost) {
				t.Errorf("%s over a blackholed worker: err = %v, want ErrWorkerLost", what, err)
			}
		case <-time.After(5 * timeout):
			t.Fatalf("%s hung on a blackholed worker with a %v heartbeat timeout armed", what, timeout)
		}
	}
}
