package runtime

import (
	"strings"
	"testing"

	"orion/internal/dsm"
)

// answerAs registers a one-executor fleet whose executor is fake: it
// answers whatever the master sends with what answer makes of it
// (nothing for nil).
func answerAs(t *testing.T, prefix string, answer func(*Msg) *Msg) *Master {
	t.Helper()
	tr := NewInProc()
	m, err := Listen(tr, prefix+"-master", 1)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	f := dialFake(tr, m.Addr(), hello(0), answer)
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Shutdown()
		<-f.done
	})
	return m
}

// TestMasterRefusesAnAccumulatorOfAnotherExecutor: an accumulator
// answered under an executor id past the fleet fails AccumSum instead
// of indexing past the fleet's values.
func TestMasterRefusesAnAccumulatorOfAnotherExecutor(t *testing.T) {
	m := answerAs(t, "reply-accum", func(msg *Msg) *Msg {
		if msg.Kind != MsgAccumQuery {
			return nil
		}
		return &Msg{Kind: MsgAccumResp, ExecutorID: 7, AccName: msg.AccName, AccValue: 1}
	})
	if v, err := m.AccumSum("loss"); err == nil {
		t.Errorf("an answer from executor 7 of 1 summed to %v", v)
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
			m := answerAs(t, "reply-"+name, func(msg *Msg) *Msg {
				if msg.Kind != MsgGather {
					return nil
				}
				return &Msg{Kind: MsgGatherResp, Array: msg.Array, Parts: []*dsm.Partition{p}}
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
// array's is; a message with none or two fails the executor instead of
// installing part of it.
func TestExecutorRefusesAServedShardOfOtherThanOnePartition(t *testing.T) {
	w := dsm.NewDense("w", 16)
	for name, parts := range map[string][]*dsm.Partition{
		"none": nil,
		"two":  {w.ExtractRange(0, 0, 8), w.ExtractRange(0, 8, 16)},
	} {
		m, _, stop := startFleet(t, "reply-shard-"+name, 1, nil)
		msg := &Msg{Kind: MsgServedShard, Array: "w", ArrayDims: map[string][]int64{"w": {16}}, Parts: parts}
		if err := m.conns[0].send(msg); err != nil {
			t.Fatal(err)
		}
		if err := stop()[0]; err == nil || !strings.Contains(err.Error(), "partitions of served w") {
			t.Errorf("%s: the executor exited with %v", name, err)
		}
	}
}
