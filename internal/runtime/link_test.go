package runtime

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/sched"
)

// trickleConn writes, once on is set, a piece of at most 32 bytes at a
// time, each after a pause of gap.
type trickleConn struct {
	net.Conn
	gap time.Duration
	on  atomic.Bool
}

func (c *trickleConn) Write(p []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Write(p)
	}
	n := 0
	for len(p) > 0 {
		k := min(len(p), 32)
		time.Sleep(c.gap)
		w, err := c.Conn.Write(p[:k])
		if n += w; err != nil {
			return n, err
		}
		p = p[k:]
	}
	return n, nil
}

// TestArmedHeartbeatOutlastsAReplyStreamedInChunks: with a heartbeat
// timeout armed, a gather reply whose bytes keep arriving — every gap
// shorter than the timeout, the whole reply longer than twice it —
// completes. A silent link is one that sends nothing, not one whose
// reply is long; the master once judged liveness by whole messages and
// reported this worker's heartbeat stale.
func TestArmedHeartbeatOutlastsAReplyStreamedInChunks(t *testing.T) {
	const timeout = 200 * time.Millisecond
	tr := NewInProc()
	m, err := Listen(tr, "trickle-master", 1)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	conn, err := tr.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	tc := &trickleConn{Conn: conn, gap: timeout / 3}
	c := newCodec(tc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.close()
		var held []*dsm.Partition
		for msg, err := c.recv(); err == nil; msg, err = c.recv() {
			switch msg.Kind {
			case MsgArrayPart:
				held = msg.Parts
			case MsgGather:
				tc.on.Store(true)
				c.send(&Msg{Kind: MsgGatherResp, Parts: held})
			}
		}
	}()
	defer func() {
		m.Shutdown()
		<-done
	}()
	if err := c.send(hello(0)); err != nil {
		t.Fatal(err)
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	w := dsm.NewDense("W", 4, 32)
	for off := int64(0); off < 4*32; off++ {
		w.SetFlat(off, float64(off))
	}
	if err := m.DistributeLocal(w, 1, nil); err != nil {
		t.Fatal(err)
	}
	m.SetHeartbeat(timeout)
	start := time.Now()
	got, err := m.Gather("W")
	if err != nil {
		t.Fatalf("a gather reply streamed in chunks under a %v heartbeat: %v", timeout, err)
	}
	if took := time.Since(start); took <= 2*timeout {
		t.Fatalf("the reply took %v, not more than twice the %v timeout: the test shows nothing", took, timeout)
	}
	for off := int64(0); off < 4*32; off++ {
		if got.AtFlat(off) != float64(off) {
			t.Fatalf("W at offset %d gathered as %v", off, got.AtFlat(off))
		}
	}
}

// TestNanosecondHeartbeatFailsTheNextWait: a heartbeat timeout too short
// for any link to meet fails the next wait on the fleet as a lost worker
// and panics nothing (a ticker of half the timeout once got a zero
// interval).
func TestNanosecondHeartbeatFailsTheNextWait(t *testing.T) {
	m, _, stop := startFleet(t, "hb-ns", 2, nil)
	defer stop()
	m.SetHeartbeat(time.Nanosecond)
	err := within(t, func() error { _, err := m.AccumSum("seen"); return err })
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("a wait under a 1ns heartbeat: %v, want ErrWorkerLost", err)
	}
}

// TestServedLoopHoldsOneLinkPerExecutorPair: after one pass of a 1D
// served loop on two in-process executors, the open connection ends are
// the two master links and the one peer link each executor dialed to
// the other — 8. Each executor once also dialed a ring link at setup
// that no 1D loop uses (12).
func TestServedLoopHoldsOneLinkPerExecutorPair(t *testing.T) {
	weights, samples := servedFixture()
	tr := NewInProc()
	m, _, stop := startFleetOver(t, tr, "one-link-master", func(i int) string { return fmt.Sprintf("one-link-%d", i) }, 2, runtimeLoops.compile, nil)
	defer stop()
	for _, err := range []error{
		m.DistributeServed(weights),
		m.DistributeIterSpace(samples, 0, sched.NewRangePartitioner(int64(len(samples)), 2)),
		m.DefineLoop(&Msg{LoopName: "rt_slr_pf"}),
		m.ParallelFor(LoopDef{Kernel: "rt_slr_pf", TimeDim: -1, Passes: 1}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if open := tr.OpenConns(); open != 8 {
		t.Fatalf("%d connection ends open after one served pass on two executors, want 8", open)
	}
}

// rotationWait brings up a real executor 0 and a fake executor 1 whose
// peer listener takes what it is sent and never sends anything back,
// and leaves executor 0 in the rotation wait of its first block. It
// returns the master and executor 0's exit.
func rotationWait(t *testing.T, prefix string) (*Master, <-chan error) {
	t.Helper()
	loops := testLoops{"rt_rot_wait": {Block: perSample(func(*Ctx, []int64, float64) {})}}
	tr := NewInProc()
	m, err := Listen(tr, prefix+"-master", 2)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	e, err := NewExecutor(tr, m.Addr(), prefix+"-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	e.compile = loops.compile
	exit := e.Start()
	ln, err := tr.Listen(prefix + "-1")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	fake := dialFake(tr, m.Addr(), &Msg{Kind: MsgHello, ExecutorID: 1, PeerAddr: prefix + "-1"}, func(msg *Msg) []*Msg {
		if msg.Kind == MsgAck {
			return []*Msg{{Kind: MsgAck}}
		}
		return nil
	})
	if err := <-ready; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Abort() // no shutdown handshake: an executor may have stopped reading
		m.Shutdown()
		ln.Close()
		<-fake.done
	})
	h := dsm.NewDense("H", 2, 8)
	for _, err := range []error{
		m.DistributeRotatedAt(h, 1, []int64{4}, 0),
		m.DefineLoop(&Msg{LoopName: "rt_rot_wait", ArrayDims: map[string][]int64{"H": {2, 8}}}),
		m.conns[0].send(&Msg{Kind: MsgExecBlock, TimeDim: 1, Rotated: true, TimeLo: 0, TimeHi: 4, Epoch: 1}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return m, exit
}

// TestRotationWaitReadsTheMasterLink: an executor waiting for its ring
// neighbour's partitions also reads its master link, in order after the
// block it runs. A shutdown ends the wait as a shutdown; the link's loss
// ends it as a lost worker; any other command is a protocol fault. Once
// the wait read only the neighbour, and a command waited behind it.
func TestRotationWaitReadsTheMasterLink(t *testing.T) {
	for name, c := range map[string]struct {
		interrupt func(m *Master) error
		err       string // "" for a clean exit
		lost      bool
	}{
		"shutdown":  {func(m *Master) error { return m.conns[0].send(&Msg{Kind: MsgShutdown}) }, "", false},
		"link lost": {func(m *Master) error { return m.conns[0].close() }, "master connection lost mid-rotation", true},
		"an ack":    {func(m *Master) error { return m.conns[0].send(&Msg{Kind: MsgAck}) }, "protocol fault", true},
	} {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			m, exit := rotationWait(t, "rot-wait-"+strings.ReplaceAll(name, " ", "-"))
			if err := c.interrupt(m); err != nil {
				t.Fatal(err)
			}
			var err error
			select {
			case err = <-exit:
			case <-time.After(5 * time.Second):
				t.Fatal("the executor is still in its rotation wait")
			}
			switch {
			case c.err == "" && err != nil:
				t.Errorf("the executor exited with %v, want a clean exit", err)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || errors.Is(err, ErrWorkerLost) != c.lost):
				t.Errorf("the executor exited with %v, want %q (lost: %v)", err, c.err, c.lost)
			}
		})
	}
}

// TestDeadlineFailsAWriteToAPeerThatStopsReading: over a Deadline
// transport, a write that the peer does not take within the write
// timeout fails with a deadline error, in-process and over TCP (where
// the kernel's buffers fill first).
func TestDeadlineFailsAWriteToAPeerThatStopsReading(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for name, c := range map[string]struct {
		inner Transport
		addr  string
	}{
		"inproc": {NewInProc(), "deadline-peer"},
		"tcp":    {TCP{}, "127.0.0.1:0"},
	} {
		tr := Deadline{Inner: c.inner, Write: timeout}
		ln, err := tr.Listen(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, _ := ln.Accept() // and never read
			accepted <- conn
		}()
		conn, err := tr.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan time.Duration, 1)
		go func() {
			buf := make([]byte, 1<<20)
			for sent := 0; sent < 1<<30; sent += len(buf) {
				start := time.Now()
				if _, err := conn.Write(buf); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						failed <- time.Since(start)
					}
					break
				}
			}
			close(failed)
		}()
		select {
		case took, ok := <-failed:
			if !ok {
				t.Errorf("%s: the writes to a peer that reads nothing did not fail on their deadline", name)
			} else if took > timeout+time.Second {
				t.Errorf("%s: the failing write took %v against a %v deadline", name, took, timeout)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: a write to a peer that reads nothing is still blocked", name)
		}
		conn.Close()
		if peer := <-accepted; peer != nil {
			peer.Close()
		}
		ln.Close()
	}
}
