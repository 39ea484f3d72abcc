package runtime

// Tests of the schema table itself: every kind round-trips with every
// field of its row set, a field outside the row is refused, the
// committed golden frames still match, a hello of another version is a
// typed refusal at the handshake, each fleet owns its element cap, and
// what varies in a pass's master-link bytes. Regenerate the golden
// frames with:
//
//	ORION_UPDATE_GOLDEN=1 go test ./internal/runtime -run TestGoldenFrames

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
)

// wireExample is one well-formed message of a kind, named for the
// golden file, with every field of its row set.
type wireExample struct {
	name string
	m    Msg
}

// wireExamples has one example per kind, in kind order.
func wireExamples() []wireExample {
	a := dsm.NewDense("H", 2, 3)
	for i := int64(0); i < 6; i++ {
		a.SetFlat(i, float64(i)+0.25)
	}
	w := dsm.NewDense("w", 16)
	w.SetFlat(3, 7)
	z := dsm.NewSparse("z", 3, 40)
	z.SetAt(2.5, 1, 7)
	z.SetAt(3, 0, 12)
	z.SetAt(-1, 2, 39)
	return []wireExample{
		{"Hello", Msg{Kind: MsgHello, ExecutorID: -1, PeerAddr: "127.0.0.1:7001"}},
		{"Setup", Msg{Kind: MsgSetup, ExecutorID: 2, Peers: []string{"a:1", "b:2", "c:3"}, Trace: true}},
		{"ArrayPart", Msg{Kind: MsgArrayPart, Array: "H", Rotated: true, Ordered: true, Parts: []*dsm.Partition{a.ExtractRange(1, 0, 1), a.ExtractRange(1, 1, 3)}}},
		{"ServedShard", Msg{Kind: MsgServedShard, Offsets: []int64{8, 8}, Parts: []*dsm.Partition{w.ExtractRange(0, 0, 8)}}},
		{"IterPart", Msg{Kind: MsgIterPart, Samples: []IterSample{{Key: []int64{0, 3}, Val: 4.5}, {Key: []int64{-1, 200}, Val: -0.1}}}},
		{"ExecBlock", Msg{Kind: MsgExecBlock, TimeDim: -1, Rotated: true, Ordered: true, Pass: 2, StepIndex: 1, Epoch: 130, TimeLo: 10, TimeHi: 20}},
		{"BlockDone", Msg{Kind: MsgBlockDone, AccValue: 3, StatIters: 150, StatComputeNs: 1234567, StatRotWaitNs: 890, StatCommNs: 45678}},
		{"Rotate", Msg{Kind: MsgRotate, Array: "H", Parts: []*dsm.Partition{z.ExtractRange(1, 10, 40)}, part: a.ExtractRange(1, 0, 3)}},
		{"Prefetch", Msg{Kind: MsgPrefetch, Epoch: 7, Array: "w", Offsets: []int64{0, 3, 200, 1 << 40}}},
		{"PrefetchResp", Msg{Kind: MsgPrefetchResp, Values: []float64{1.5, math.Inf(-1), -0.0}}},
		{"UpdateBatch", Msg{Kind: MsgUpdateBatch, ExecutorID: 1, Epoch: 7, Absolute: true, Array: "w", Offsets: []int64{4, 5}, Values: []float64{0.5, 1}}},
		{"Gather", Msg{Kind: MsgGather, Array: "W"}},
		{"GatherResp", Msg{Kind: MsgGatherResp, Parts: []*dsm.Partition{z.ExtractRange(1, 0, 20), z.ExtractRange(1, 20, 40)}}},
		{"AccumQuery", Msg{Kind: MsgAccumQuery, AccName: "loss"}},
		{"AccumResp", Msg{Kind: MsgAccumResp, AccValue: 0.125}},
		{"DefineLoop", Msg{Kind: MsgDefineLoop, LoopName: "dsl-mf-12", LoopSrc: "for (i, j, v) in ratings { }",
			ArrayDims: map[string][]int64{"W": {4, 24}, "H": {4, 20}}, Buffers: map[string]string{"gw": "W"},
			GlobalNames: []string{"lr", "k"}, GlobalVals: []float64{0.05, 16}, AccumNames: []string{"loss"}, PlanBlob: []byte{0xde, 0xad}}},
		{"Shutdown", Msg{Kind: MsgShutdown}},
		{"Ack", Msg{Kind: MsgAck}},
		{"Error", Msg{Kind: MsgError, Err: "shard owner 1 unreachable", Lost: true}},
		{"Ping", Msg{Kind: MsgPing}},
		{"TraceSync", Msg{Kind: MsgTraceSync, T1: 1700000000000001234}},
		{"TraceDump", Msg{Kind: MsgTraceDump, TracerID: -42, Dump: &obs.TraceDump{TracerID: 99, StartUnixNs: 17e17,
			Bufs: []obs.BufDump{{Pid: 2, Tid: 3, Name: "exec1", Dropped: 1, Spans: []obs.SpanRec{
				{Name: "exec.block", Cat: "exec", K1: "iters", V1: 150, K2: "step", V2: 1, StartNs: 1000, DurNs: 500},
				{Name: "mark", Instant: true}}}}}}},
	}
}

// TestWireExamplesRoundTrip: every kind has an example that sets every
// field of its row, and it comes back from its frame as it was sent; a
// message that also sets any field outside its row is refused, and
// nothing goes out.
func TestWireExamplesRoundTrip(t *testing.T) {
	exs := wireExamples()
	if len(exs) != len(schema) {
		t.Fatalf("%d examples for %d kinds", len(exs), len(schema))
	}
	donor := map[field]*Msg{}
	for k, ex := range exs {
		if int(ex.m.Kind) != k {
			t.Fatalf("example %s is kind %d, want %d", ex.name, ex.m.Kind, k)
		}
		for i, c := range schema[k] {
			if c.f != fVersion && !isSet(c, ex.m.fields()[c.f]) {
				t.Errorf("%s: field %d of its row is not set", ex.name, c.f)
			}
			if (c.t == tColumn || c.t == tPart) && i != len(schema[k])-1 {
				t.Errorf("%s: a streamed payload is field %d of %d", ex.name, i, len(schema[k]))
			}
			donor[c.f] = &exs[k].m
		}
		frame := captureFrames(func(c *codec) {
			if err := c.send(&ex.m); err != nil {
				t.Error(err)
			}
		})[0]
		var got Msg
		if err := newCodec(&replayConn{r: bytes.NewReader(frame)}).recvInto(&got); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		want := ex.m
		if want.part != nil {
			wd, _ := want.part.Local.DenseData()
			gd, _ := got.part.Local.DenseData()
			if got.part.Dim != want.part.Dim || got.part.Lo != want.part.Lo || got.part.Hi != want.part.Hi ||
				!slices.Equal(got.part.Local.Dims(), want.part.Local.Dims()) || !slices.Equal(gd, wd) {
				t.Errorf("%s: the partition came back as %+v", ex.name, got.part)
			}
			want.part, got.part = nil, nil
		}
		if !slices.EqualFunc(got.Parts, want.Parts, func(g, w *dsm.Partition) bool {
			return bytes.Equal(dsm.AppendPartition(nil, g), dsm.AppendPartition(nil, w))
		}) {
			t.Errorf("%s: the partitions came back as %+v", ex.name, got.Parts)
		}
		want.Parts, got.Parts = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s came back as\n  %+v\nwant\n  %+v", ex.name, got, want)
		}
	}
	for k, ex := range exs {
		var in [numFields]bool
		for _, c := range schema[k] {
			in[c.f] = true
		}
		for f := range numFields {
			if in[f] || f == fVersion {
				continue
			}
			m := ex.m
			reflect.ValueOf(m.fields()[f]).Elem().Set(reflect.ValueOf(donor[f].fields()[f]).Elem())
			if frames := captureFrames(func(c *codec) {
				if err := c.send(&m); err == nil {
					t.Errorf("%s with field %d set was sent", ex.name, f)
				}
			}); len(frames) != 0 {
				t.Errorf("%s with field %d set put %d frames on the wire", ex.name, f, len(frames))
			}
		}
	}
}

// TestGoldenFrames: the first frame of each example on a fresh link is
// the committed one, byte for byte — a change to the schema table or a
// wire type shows here, and goes with a wireVersion bump.
func TestGoldenFrames(t *testing.T) {
	var got strings.Builder
	for _, ex := range wireExamples() {
		frame := captureFrames(func(c *codec) { c.send(&ex.m) })[0]
		fmt.Fprintf(&got, "%s %s\n", ex.name, hex.EncodeToString(frame))
	}
	path := filepath.Join("testdata", "frames.golden")
	if os.Getenv("ORION_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("the frames drifted from %s (version %d); bump wireVersion and regenerate with ORION_UPDATE_GOLDEN=1:\n%s", path, wireVersion, got.String())
	}
}

// skewedHello is a hand-built hello of the next wire version.
func skewedHello() []byte {
	return checksummed(append(uv(uv(head(MsgHello), wireVersion+1), 1), 0))
}

// TestWireVersionSkewRefusedAtHandshake: a hello of another version
// decodes to a *VersionSkewError naming both versions, not to a corrupt
// frame; the master answers one with its own hello and admits the next
// dialer, and an executor that gets another version's hello from its
// master exits with the error.
func TestWireVersionSkewRefusedAtHandshake(t *testing.T) {
	_, err := newCodec(&replayConn{r: bytes.NewReader(skewedHello())}).recv()
	var skew *VersionSkewError
	if !errors.As(err, &skew) || skew.Peer != wireVersion+1 || skew.Local != wireVersion {
		t.Fatalf("a hello of version %d: err = %v, want a *VersionSkewError naming %d and %d", wireVersion+1, err, wireVersion+1, wireVersion)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(wireVersion+1)) || !strings.Contains(msg, fmt.Sprint(wireVersion)) {
		t.Errorf("the error %q does not name both versions", msg)
	}

	tr := NewInProc()
	m, err := Listen(tr, "skew-master", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	admitted := make(chan error, 1)
	go func() { admitted <- m.WaitForExecutors() }()
	conn, err := tr.Dial("skew-master")
	if err != nil {
		t.Fatal(err)
	}
	go conn.Write(skewedHello())
	c := newCodec(conn)
	if answer, err := c.recv(); err != nil || answer.Kind != MsgHello {
		t.Fatalf("the master answered a skewed hello with %+v, %v; want its own hello", answer, err)
	}
	if _, err := c.recv(); err == nil {
		t.Error("the master kept the link of a skewed hello open")
	}
	e, err := NewExecutor(tr, "skew-master", "skew-peer-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := e.Start()
	if err := <-admitted; err != nil {
		t.Fatalf("admission after the refusal: %v", err)
	}
	m.Shutdown()
	<-done

	ln, err := tr.Listen("skewed-master")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		newCodec(conn).recv()
		conn.Write(skewedHello())
	}()
	e, err = NewExecutor(tr, "skewed-master", "skew-peer-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-e.Start(); !errors.As(err, &skew) {
		t.Errorf("an executor facing a master of version %d exited with %v, want a *VersionSkewError", wireVersion+1, err)
	}
}

// TestWireVersionSkewJudgedOnAVerifiedFirstFrame: a skew is the verdict on
// a link's first frame, read whole and checksummed. A hello whose
// version bit flipped in transit fails its checksum; an in-session
// setup whose kind byte flipped to a hello's, so that its next uvarint
// (the id 2) reads as a version, is corrupt; and so is a well-formed
// hello of another version after the handshake. All three condemn the
// link.
func TestWireVersionSkewJudgedOnAVerifiedFirstFrame(t *testing.T) {
	flipped := captureFrames(func(c *codec) { c.send(&Msg{Kind: MsgHello, ExecutorID: 1, PeerAddr: "p"}) })[0]
	flipped[2] ^= 2 // the version: seq 0 · kind 0 · version
	session := captureFrames(func(c *codec) {
		c.send(&Msg{Kind: MsgPing})
		c.send(&Msg{Kind: MsgSetup, ExecutorID: 2, Peers: []string{"a"}})
	})
	setup := slices.Concat(session...)
	setup[len(session[0])+1] ^= byte(MsgSetup) // the setup's kind: seq 1 · kind 1
	late := slices.Concat(session[0], checksummed(append(uv(uv(uv(nil, 1), uint64(MsgHello)), wireVersion+1), 1, 0)))
	for name, stream := range map[string][]byte{
		"a hello's version bit flipped":      flipped,
		"a setup's kind flipped to hello":    setup,
		"a skewed hello after the handshake": late,
	} {
		err := decodeStream(stream, 2)
		var fc *FrameCorruptError
		var skew *VersionSkewError
		if !errors.As(err, &fc) || errors.As(err, &skew) {
			t.Errorf("%s: %v, want a *FrameCorruptError", name, err)
		}
	}
}

// slowLink is a Transport whose second connection to the master, once
// armed, holds back every read by 200 ms: that executor is slow to take
// in what the master sends it.
type slowLink struct {
	Transport
	master string
	armed  atomic.Bool
	dials  atomic.Int32
}

func (t *slowLink) Dial(addr string) (net.Conn, error) {
	conn, err := t.Transport.Dial(addr)
	if err != nil || addr != t.master || t.dials.Add(1) != 2 {
		return conn, err
	}
	return &slowConn{Conn: conn, armed: &t.armed}, nil
}

type slowConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *slowConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed.Load() {
		time.Sleep(200 * time.Millisecond)
	}
	return n, err
}

// TestElemCapBelongsToAFleet: two fleets in one process. Fleet A defines
// a loop over a 2^21-element array, which raises the element cap of its
// master and of both its executors — the second, slow to read its
// DefineLoop, included: DefineLoop returns, and a block (so a peer's
// rotation of 2^21 elements) may start, only once every executor has
// raised its cap. Fleet B's links still hold the default 2^20 and
// condemn a frame claiming a 2^21-element partition.
func TestElemCapBelongsToAFleet(t *testing.T) {
	compile := func(*Msg) (*KernelSet, error) { return runtimeLoops["rt_mf"], nil }
	slow := &slowLink{Transport: NewInProc(), master: "cap-a-master"}
	mA, execA, stopA := startFleetOver(t, slow, slow.master, func(i int) string { return fmt.Sprintf("cap-a-%d", i) }, 2, compile, nil)
	defer stopA()
	mB, execB, stopB := startFleet(t, "cap-b", 1, compile)
	defer stopB()
	slow.armed.Store(true)
	if err := mA.DefineLoop(&Msg{LoopName: "big", ArrayDims: map[string][]int64{"big": {1 << 21}}}); err != nil {
		t.Fatal(err)
	}
	frame := uv(uv(uv(uv(uv(uv(uv(append(uv(head(MsgRotate), 1), 'w'), 0), 1), 1<<21), 0), 0), 1<<21), 0)
	for _, c := range []struct {
		link    string
		limit   *elemCap
		condemn bool
	}{
		{"A master", &mA.limit, false}, {"A executor 0", &execA[0].limit, false}, {"A executor 1 (slow)", &execA[1].limit, false},
		{"B master", &mB.limit, true}, {"B executor", &execB[0].limit, true},
	} {
		codec := newCodec(&replayConn{r: bytes.NewReader(frame)})
		codec.limit = c.limit
		_, err := codec.recv()
		var fc *FrameCorruptError
		if got := errors.As(err, &fc) && strings.Contains(fc.Reason, "cap"); got != c.condemn {
			t.Errorf("%s: a 2^21-element partition: %v, want condemned = %v", c.link, err, c.condemn)
		}
	}
	slow.armed.Store(false)
}

// masterTap is a Transport that records the bytes each executor sends
// to and receives from the master.
type masterTap struct {
	Transport
	master string
	mu     sync.Mutex
	links  []*tapConn
}

func (t *masterTap) Dial(addr string) (net.Conn, error) {
	conn, err := t.Transport.Dial(addr)
	if err != nil || addr != t.master {
		return conn, err
	}
	tc := &tapConn{Conn: conn}
	t.mu.Lock()
	t.links = append(t.links, tc)
	t.mu.Unlock()
	return tc, nil
}

// tapConn keeps what crosses a connection, each direction in its own
// buffer.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	tx, rx []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rx = append(c.rx, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.tx = append(c.tx, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestArraysPastTheDefaultCapShipBeforeAnyLoop: the driver places its
// arrays before it defines a loop, so an array part or a served shard of
// 2^21 real values — past the default element cap of 2^20 — installs on
// a fleet that has defined none, and gathers back bit for bit.
func TestArraysPastTheDefaultCapShipBeforeAnyLoop(t *testing.T) {
	m, _, stop := startFleet(t, "bigpart", 1, nil)
	defer stop()
	fill := func(name string) *dsm.DistArray {
		a := dsm.NewDense(name, 8, 1<<18)
		data, _ := a.DenseData()
		for i := range data {
			data[i] = math.Sqrt(float64(i) + 0.5)
		}
		return a
	}
	w, s := fill("W"), fill("S")
	if err := m.DistributeLocal(w, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeServed(s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*dsm.DistArray{w, s} {
		got, err := m.Gather(want.Name())
		if err != nil {
			t.Fatalf("gather %s: %v", want.Name(), err)
		}
		gd, _ := got.DenseData()
		wd, _ := want.DenseData()
		if !slices.Equal(gd, wd) {
			t.Fatalf("%s gathered back other values", want.Name())
		}
	}
}

// TestMasterLinkBytesVaryOnlyByStats: a two-worker MF fleet runs three
// single-pass calls, each under a loop name minted per call as the
// driver mints them (dsl-<name>-<seq>, here crossing from one digit to
// two), which travels in the call's DefineLoop alone. Re-encoded with
// the block statistics zeroed, each frame on a fresh link (so its
// sequence number is one byte) and the DefineLoop left out, every pass
// moves exactly the same master-link bytes: what varies from pass to
// pass is the statistics alone.
func TestMasterLinkBytesVaryOnlyByStats(t *testing.T) {
	tr := &masterTap{Transport: NewInProc(), master: "tap-master"}
	compile := func(*Msg) (*KernelSet, error) { return runtimeLoops["rt_mf"], nil }
	quiet := func(e *Executor) { e.SetPingInterval(time.Hour) }
	m, _, stop := startFleetOver(t, tr, tr.master, func(i int) string { return fmt.Sprintf("tap-%d", i) }, 2, compile, quiet)
	defer stop()
	_, w, h, samples := mfFixture(7)
	spacePart := sched.NewRangePartitioner(w.Dims()[1], 2)
	timePart := sched.NewRangePartitioner(h.Dims()[1], 2)
	if err := m.DistributeLocal(w, 1, boundariesOf(spacePart, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeRotatedAt(h, 1, boundariesOf(timePart, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.DistributeIterSpace(samples, 0, spacePart); err != nil {
		t.Fatal(err)
	}
	// A send returns once the pipe has handed its bytes over, which may
	// be before the executor's tap has recorded them; an executor answers
	// the barrier only after reading all that came before it.
	if err := m.round("barrier", func(int) *Msg { return &Msg{Kind: MsgAck} }, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	// snap is where each link's streams stand: tx and rx per link.
	snap := func() [][2]int {
		var at [][2]int
		for _, l := range tr.links {
			l.mu.Lock()
			at = append(at, [2]int{len(l.tx), len(l.rx)})
			l.mu.Unlock()
		}
		return at
	}
	cuts := [][][2]int{snap()}
	for call := 9; call < 12; call++ {
		name := fmt.Sprintf("dsl-mf-%d", call)
		if err := m.DefineLoop(&Msg{LoopName: name}); err != nil {
			t.Fatal(err)
		}
		if err := m.ParallelFor(LoopDef{Kernel: name, TimeDim: 1, TimePart: timePart, Rotate: true, Passes: 1}); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, snap())
	}
	// seqs continues each stream's sequence numbers across the passes.
	seqs := make([][2]uint64, len(tr.links))
	for i, l := range tr.links {
		for d, stream := range [][]byte{l.tx, l.rx} {
			c := newCodec(&replayConn{r: bytes.NewReader(stream[:cuts[0][i][d]])})
			for c.recvInto(&Msg{}) == nil {
			}
			seqs[i][d] = c.rseq
		}
	}
	var raw, zeroed []int
	for p := 1; p < len(cuts); p++ {
		r, z := 0, 0
		for i, l := range tr.links {
			for d, stream := range [][]byte{l.tx, l.rx} {
				seg := stream[cuts[p-1][i][d]:cuts[p][i][d]]
				r += len(seg)
				c := newCodec(&replayConn{r: bytes.NewReader(seg)})
				c.rseq = seqs[i][d]
				var msg Msg
				for c.recvInto(&msg) == nil {
					if msg.Kind == MsgDefineLoop {
						continue
					}
					msg.StatIters, msg.StatComputeNs, msg.StatRotWaitNs, msg.StatCommNs = 0, 0, 0, 0
					z += len(captureFrames(func(c *codec) {
						if err := c.send(&msg); err != nil {
							t.Error(err)
						}
					})[0])
				}
				seqs[i][d] = c.rseq
			}
		}
		raw, zeroed = append(raw, r), append(zeroed, z)
	}
	t.Logf("master-link bytes per pass: %v as sent, %v re-encoded with the statistics zeroed and no DefineLoop", raw, zeroed)
	if zeroed[0] != zeroed[1] || zeroed[1] != zeroed[2] {
		t.Errorf("re-encoded master-link bytes per pass %v differ: something besides the statistics varies", zeroed)
	}
}
