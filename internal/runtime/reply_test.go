package runtime

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
)

// answerAs registers a fleet of n fake executors: executor id answers
// whatever the master sends with the replies answer makes of it.
func answerAs(t *testing.T, prefix string, n int, answer func(id int, msg *Msg) []*Msg) *Master {
	t.Helper()
	tr := NewInProc()
	m, err := Listen(tr, prefix+"-master", n)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	fakes := make([]fakeExecutor, n)
	for id := range fakes {
		fakes[id] = dialFake(tr, m.Addr(), hello(id), func(msg *Msg) []*Msg { return answer(id, msg) })
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Shutdown()
		for _, f := range fakes {
			<-f.done
		}
	})
	return m
}

// afterExecutor0 holds executor 1's answer back until executor 0 has
// answered and its replies have had time to reach the master, so the
// master reads executor 0's replies first: it reads each link's frames
// in order, but two links' in no order it exposes.
type afterExecutor0 chan struct{}

func (c afterExecutor0) answer(id int, replies ...*Msg) []*Msg {
	if id == 0 {
		close(c)
	} else {
		<-c
		time.Sleep(50 * time.Millisecond)
	}
	return replies
}

// within fails the test when wait has not returned after 5 s (a wait for
// a reply that never comes) and returns its error otherwise.
func within(t *testing.T, wait func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the master is still waiting")
		return nil
	}
}

// TestAwaitRefusesASecondReplyFromOneExecutor: executor 0 of two answers
// an accumulator query, and a block, twice. Each wait takes one reply
// per executor, so the duplicate is a protocol fault (ErrWorkerLost) —
// where counting replies summed executor 0's answer alone and never read
// executor 1's.
func TestAwaitRefusesASecondReplyFromOneExecutor(t *testing.T) {
	t.Run("AccumSum", func(t *testing.T) {
		var order afterExecutor0 = make(chan struct{})
		m := answerAs(t, "dup-accum", 2, func(id int, msg *Msg) []*Msg {
			if msg.Kind != MsgAccumQuery {
				return nil
			}
			if id == 0 {
				return order.answer(id, &Msg{Kind: MsgAccumResp, AccValue: 1}, &Msg{Kind: MsgAccumResp, AccValue: 1})
			}
			return order.answer(id, &Msg{Kind: MsgAccumResp, AccValue: 10})
		})
		if v, err := m.AccumSum("loss"); !errors.Is(err, ErrWorkerLost) {
			t.Errorf("AccumSum = %v, %v; want ErrWorkerLost (the sum is 11)", v, err)
		}
	})
	t.Run("step barrier", func(t *testing.T) {
		var order afterExecutor0 = make(chan struct{})
		m := answerAs(t, "dup-step", 2, func(id int, msg *Msg) []*Msg {
			if msg.Kind != MsgExecBlock {
				return nil
			}
			if id == 0 {
				return order.answer(id, &Msg{Kind: MsgBlockDone}, &Msg{Kind: MsgBlockDone})
			}
			return order.answer(id, &Msg{Kind: MsgBlockDone})
		})
		if err := m.DefineLoop(&Msg{LoopName: "dup"}); err != nil {
			t.Fatal(err)
		}
		if err := m.ParallelFor(LoopDef{Kernel: "dup", TimeDim: -1, Passes: 1}); !errors.Is(err, ErrWorkerLost) {
			t.Errorf("a step answered twice by executor 0: %v, want ErrWorkerLost", err)
		}
	})
}

// TestAwaitRefusesAReplyOfAnotherKind: an accumulator query answered by
// executor 0 with a block-done is a protocol fault — where the reply
// went to the block-done channel and the query waited for an answer
// that never came.
func TestAwaitRefusesAReplyOfAnotherKind(t *testing.T) {
	m := answerAs(t, "wrong-kind", 2, func(id int, msg *Msg) []*Msg {
		if msg.Kind != MsgAccumQuery {
			return nil
		}
		if id == 0 {
			return []*Msg{{Kind: MsgBlockDone}}
		}
		return []*Msg{{Kind: MsgAccumResp, AccValue: 10}}
	})
	err := within(t, func() error { _, err := m.AccumSum("loss"); return err })
	if !errors.Is(err, ErrWorkerLost) || !strings.Contains(err.Error(), "executor 0") {
		t.Errorf("an accumulator answered with a block-done: %v, want ErrWorkerLost naming executor 0", err)
	}
}

// TestAWaitEndedEarlyEndsTheGeneration: an executor's error ends the
// wait it arrives in and the fleet generation with it — the executor
// that sent it has exited — so a later wait on the same fleet fails with
// it too, even when an answer does arrive.
func TestAWaitEndedEarlyEndsTheGeneration(t *testing.T) {
	var queries atomic.Int32
	m := answerAs(t, "ended", 1, func(_ int, msg *Msg) []*Msg {
		if msg.Kind != MsgAccumQuery {
			return nil
		}
		if queries.Add(1) == 1 {
			return []*Msg{{Kind: MsgError, Err: "kernel fault"}}
		}
		time.Sleep(20 * time.Millisecond)
		return []*Msg{{Kind: MsgAccumResp, AccValue: 1}}
	})
	for i := 0; i < 2; i++ {
		if v, err := m.AccumSum("loss"); err == nil || !strings.Contains(err.Error(), "kernel fault") {
			t.Errorf("wait %d after an executor's error: %v, %v; want the error", i, v, err)
		}
	}
}

// TestAnExecutorThatExitsOnAnErrorTellsTheMasterWhy: an executor that
// refuses what the master sent exits, and the master's wait returns the
// refusal, named once by the link — not the bare link loss
// (ErrWorkerLost) that checkpoint recovery would retry.
func TestAnExecutorThatExitsOnAnErrorTellsTheMasterWhy(t *testing.T) {
	for name, c := range map[string]struct {
		msg *Msg
		err string
	}{
		"a served shard of no partitions": {&Msg{Kind: MsgServedShard}, "a served shard of 0 partitions"},
		"a gather of an unknown array":    {&Msg{Kind: MsgGather, Array: "Z"}, `gather of unknown array "Z"`},
		"an unexpected kind":              {&Msg{Kind: MsgBlockDone}, "unexpected message"},
	} {
		m, _, stop := startFleet(t, "exit-report-"+name, 1, nil)
		if err := m.conns[0].send(c.msg); err != nil {
			t.Fatal(err)
		}
		err := within(t, func() error { return m.await(MsgAck, nil) })
		if err == nil || errors.Is(err, ErrWorkerLost) || !strings.Contains(err.Error(), c.err) ||
			strings.Count(err.Error(), "executor 0") != 1 {
			t.Errorf("%s: the master's wait returned %v; want the refusal %q, naming executor 0 once", name, err, c.err)
		}
		stop()
	}
}

// TestCollectTracesRefusesASecondClockReply: executor 0 of two answers
// the first clock-sync request twice. A collection round takes one
// reply per executor, as every wait does, so the duplicate is a
// protocol fault naming it — where a stale reply was dropped by the
// timestamp it echoed.
func TestCollectTracesRefusesASecondClockReply(t *testing.T) {
	obs.StartTracing()
	defer obs.StopTracing()
	var order afterExecutor0 = make(chan struct{})
	syncs := make([]int, 2) // each fake answers on its own goroutine
	m := answerAs(t, "dup-sync", 2, func(id int, msg *Msg) []*Msg {
		switch msg.Kind {
		case MsgTraceSync:
			if syncs[id]++; syncs[id] > 1 {
				return []*Msg{{Kind: MsgTraceSync}}
			}
			if id == 0 {
				return order.answer(id, &Msg{Kind: MsgTraceSync}, &Msg{Kind: MsgTraceSync})
			}
			return order.answer(id, &Msg{Kind: MsgTraceSync})
		case MsgTraceDump:
			return []*Msg{{Kind: MsgTraceDump}}
		}
		return nil
	})
	if err := within(t, m.CollectTraces); !errors.Is(err, ErrWorkerLost) || !strings.Contains(err.Error(), "executor 0") {
		t.Errorf("a clock-sync request answered twice by executor 0: %v, want ErrWorkerLost naming executor 0", err)
	}
}

// TestCollectTracesAfterAnEndedGenerationAsksNothing: once an
// executor's error has ended the fleet generation, trace collection
// sends no clock-sync request and returns that error — where it asked
// every executor in turn and gave each up on the requeued error.
func TestCollectTracesAfterAnEndedGenerationAsksNothing(t *testing.T) {
	obs.StartTracing()
	defer obs.StopTracing()
	var syncs atomic.Int32
	m := answerAs(t, "ended-collect", 2, func(id int, msg *Msg) []*Msg {
		switch msg.Kind {
		case MsgAccumQuery:
			if id == 0 {
				return []*Msg{{Kind: MsgError, Err: "kernel fault"}}
			}
			return []*Msg{{Kind: MsgAccumResp}}
		case MsgTraceSync:
			syncs.Add(1)
			return []*Msg{{Kind: MsgTraceSync}}
		case MsgTraceDump:
			return []*Msg{{Kind: MsgTraceDump}}
		}
		return nil
	})
	if _, err := m.AccumSum("loss"); err == nil || !strings.Contains(err.Error(), "kernel fault") {
		t.Fatalf("AccumSum after an executor's error: %v, want the error", err)
	}
	if err := within(t, m.CollectTraces); err == nil || !strings.Contains(err.Error(), "kernel fault") {
		t.Errorf("collection on an ended generation: %v, want the error that ended it", err)
	}
	time.Sleep(50 * time.Millisecond) // a request sent would have been answered by now
	if n := syncs.Load(); n != 0 {
		t.Errorf("collection on an ended generation sent %d clock-sync requests, want none", n)
	}
}

// TestRefusedGatherLeavesNoReplyBehind: a gather of W that executor 0
// answers with a partition of another array fails, and executor 1's
// answer to it is taken all the same, so the next gather, of H, reads
// only answers to itself and succeeds.
func TestRefusedGatherLeavesNoReplyBehind(t *testing.T) {
	w, h := dsm.NewDense("W", 2, 4), dsm.NewDense("H", 2, 4)
	for i := int64(0); i < 8; i++ {
		w.SetFlat(i, float64(i)+0.5)
		h.SetFlat(i, math.Sqrt(float64(i)+2))
	}
	var order afterExecutor0 = make(chan struct{})
	m := answerAs(t, "stale-gather", 2, func(id int, msg *Msg) []*Msg {
		if msg.Kind != MsgGather {
			return nil
		}
		lo := int64(2 * id)
		if msg.Array == "H" {
			return []*Msg{{Kind: MsgGatherResp, Parts: []*dsm.Partition{h.ExtractRange(1, lo, lo+2)}}}
		}
		p := w.ExtractRange(1, lo, lo+2)
		if id == 0 {
			p = dsm.NewDense("X", 2, 4).ExtractRange(1, 0, 2)
		}
		return order.answer(id, &Msg{Kind: MsgGatherResp, Parts: []*dsm.Partition{p}})
	})
	for _, a := range []*dsm.DistArray{w, h} {
		if err := m.DistributeLocal(a, 1, []int64{2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := within(t, func() error { _, err := m.Gather("W"); return err }); err == nil {
		t.Fatal("a gather of W answered with a partition of X succeeded")
	}
	got, err := m.Gather("H")
	if err != nil {
		t.Fatalf("the next gather: %v", err)
	}
	gd, _ := got.DenseData()
	hd, _ := h.DenseData()
	if !slices.Equal(gd, hd) {
		t.Errorf("H gathered as %v, want %v", gd, hd)
	}
}

// TestParallelForRunsOnlyTheLoopDefinedLast: blocks name no loop, so the
// master refuses to run any loop but the one this fleet defined last,
// and dispatches nothing for it.
func TestParallelForRunsOnlyTheLoopDefinedLast(t *testing.T) {
	var blocks atomic.Int32
	m := answerAs(t, "undefined-loop", 1, func(_ int, msg *Msg) []*Msg {
		if msg.Kind != MsgExecBlock {
			return nil
		}
		blocks.Add(1)
		return []*Msg{{Kind: MsgBlockDone}}
	})
	if err := m.DefineLoop(&Msg{LoopName: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "b", TimeDim: -1, Passes: 1}); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("running a loop the fleet never defined: %v, want an error naming it", err)
	}
	if err := m.ParallelFor(LoopDef{Kernel: "a", TimeDim: -1, Passes: 1}); err != nil {
		t.Fatal(err)
	}
	if got := blocks.Load(); got != 1 {
		t.Errorf("the executor was sent %d blocks, want the one of loop a", got)
	}
}

// TestMasterRefusesAGatheredPartitionOfAnotherShape: a gathered
// partition of another array, rank or extents, or of a range past the
// array's extent, fails Gather before anything is written — where
// WriteBack would panic on the name, fault on the subscripts or the
// slice bounds, or silently copy the wrong elements.
func TestMasterRefusesAGatheredPartitionOfAnotherShape(t *testing.T) {
	w := dsm.NewDense("W", 2, 4)
	for name, p := range map[string]*dsm.Partition{
		"another array":         dsm.NewDense("X", 2, 4).ExtractRange(1, 0, 4),
		"another rank":          dsm.NewDense("W", 8).ExtractRange(0, 0, 4),
		"other extents":         dsm.NewDense("W", 3, 4).ExtractRange(1, 0, 4),
		"range past the extent": dsm.NewDenseFrom("W", make([]float64, 8), 1, 4, 8, 2, 4),
	} {
		t.Run(name, func(t *testing.T) {
			m := answerAs(t, "reply-"+name, 1, func(_ int, msg *Msg) []*Msg {
				if msg.Kind != MsgGather {
					return nil
				}
				return []*Msg{{Kind: MsgGatherResp, Parts: []*dsm.Partition{p}}}
			})
			if err := m.DistributeLocal(w, 1, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Gather("W"); err == nil {
				t.Error("the gather wrote the partition back")
			}
		})
	}
}

// TestExecutorRefusesAServedShardOfOtherThanOnePartition: a served
// shard is the one partition its message carries, as a space-local
// array's is, cut along its last dimension; a message with none or two,
// or one cut along another dimension, fails the executor instead of
// installing part of it or misaddressing its storage.
func TestExecutorRefusesAServedShardOfOtherThanOnePartition(t *testing.T) {
	w := dsm.NewDense("w", 16)
	for name, c := range map[string]struct {
		parts []*dsm.Partition
		err   string
	}{
		"none":            {nil, "a served shard of 0 partitions"},
		"two":             {[]*dsm.Partition{w.ExtractRange(0, 0, 8), w.ExtractRange(0, 8, 16)}, "a served shard of 2 partitions"},
		"another cut dim": {[]*dsm.Partition{dsm.NewDense("s", 4, 1).ExtractRange(0, 0, 4)}, "a served shard of 1 partitions, not one cut along its last dimension"},
	} {
		m, _, stop := startFleet(t, "reply-shard-"+name, 1, nil)
		if err := m.conns[0].send(&Msg{Kind: MsgServedShard, Parts: c.parts}); err != nil {
			t.Fatal(err)
		}
		if err := stop()[0]; err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: the executor exited with %v", name, err)
		}
	}
}

// TestServedShardInstallsFromItsRecord: a served shard's message carries
// the shard cuts and the partition record alone — the record names the
// array and carries its extents off the sharded dimension. Each
// executor installs its shard, a peer's prefetch of it reads the
// array's values, and the array gathers back bit for bit.
func TestServedShardInstallsFromItsRecord(t *testing.T) {
	const n = 2
	tr := NewInProc()
	m, _, stop := startFleetOver(t, tr, "shard-record-master", func(i int) string { return fmt.Sprintf("shard-record-%d", i) }, n, nil, nil)
	defer stop()
	s := dsm.NewDense("S", 3, 10)
	for i := int64(0); i < 30; i++ {
		s.SetFlat(i, math.Sqrt(float64(i)+0.5))
	}
	cuts := sched.NewRangePartitioner(10, n).Boundaries()
	for id, p := range s.RangePartitions(1, n, cuts) {
		if err := m.conns[id].send(&Msg{Kind: MsgServedShard, Offsets: cuts, Parts: []*dsm.Partition{p}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.await(MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("shard-record-1")
	if err != nil {
		t.Fatal(err)
	}
	peer := newCodec(conn)
	defer peer.close()
	offs := []int64{3 * cuts[0], 17, 29} // executor 1 holds the last coordinates [cuts[0], 10)
	if err := peer.send(&Msg{Kind: MsgPrefetch, Array: "S", Offsets: offs, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.recv()
	if err != nil || resp.Kind != MsgPrefetchResp {
		t.Fatalf("the prefetch got %+v, %v", resp, err)
	}
	for i, off := range offs {
		if resp.Values[i] != s.AtFlat(off) {
			t.Errorf("S at offset %d read %v, want %v", off, resp.Values[i], s.AtFlat(off))
		}
	}
	m.recordArray(s)
	got, err := m.Gather("S")
	if err != nil {
		t.Fatal(err)
	}
	gd, _ := got.DenseData()
	sd, _ := s.DenseData()
	if !slices.Equal(gd, sd) {
		t.Error("S gathered back other values")
	}
}
