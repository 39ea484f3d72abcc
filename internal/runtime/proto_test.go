package runtime

import (
	"math"
	"net"
	"slices"
	"testing"

	"orion/internal/dsm"
)

// TestMsgReset: reset must zero every field while keeping the hot
// payload slices' backing storage.
func TestMsgReset(t *testing.T) {
	m := Msg{
		Kind:    MsgPrefetch,
		Array:   "w",
		Parts:   []*dsm.Partition{dsm.NewDense("w", 3).ExtractRange(0, 0, 3)},
		Offsets: []int64{1, 2, 3},
		Values:  []float64{4, 5, 6},
		LoopSrc: "for",
		Err:     "boom",
		part:    dsm.NewDense("w", 3).ExtractRange(0, 0, 3),
		ArrayDims: map[string][]int64{
			"w": {3},
		},
	}
	off0 := &m.Offsets[0]
	val0 := &m.Values[0]
	m.reset()
	if m.Kind != 0 || m.Array != "" || m.Parts != nil || m.LoopSrc != "" || m.Err != "" || m.ArrayDims != nil || m.part != nil {
		t.Fatalf("reset left fields set: %+v", m)
	}
	if len(m.Offsets) != 0 || len(m.Values) != 0 {
		t.Fatalf("reset left payload lengths: %d, %d", len(m.Offsets), len(m.Values))
	}
	m.Offsets = m.Offsets[:1]
	m.Values = m.Values[:1]
	if &m.Offsets[0] != off0 || &m.Values[0] != val0 {
		t.Fatal("reset dropped the payload backing storage")
	}
}

// startEcho serves one connection with the reusing recvInto/send pair,
// answering a prefetch with one value per offset, into a reused buffer —
// the shape of servePeer's hot loop.
func startEcho(c *codec) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var in, out Msg
		var vals []float64
		for {
			if err := c.recvInto(&in); err != nil {
				return
			}
			if in.Kind == MsgShutdown {
				return
			}
			vals = vals[:0]
			for _, off := range in.Offsets {
				vals = append(vals, float64(off)*0.5)
			}
			out = Msg{Kind: MsgPrefetchResp, Values: vals}
			if err := c.send(&out); err != nil {
				return
			}
		}
	}()
	return done
}

// TestRecvIntoReusesPayloadStorage: steady-state request/response
// round trips must reuse the decoded payload slices' backing arrays
// and stay within a small allocation budget per round trip.
func TestRecvIntoReusesPayloadStorage(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)
	done := startEcho(sc)

	req := Msg{Kind: MsgPrefetch, Array: "weights", Offsets: make([]int64, 64)}
	for i := range req.Offsets {
		req.Offsets[i] = int64(i)
	}
	var resp Msg
	roundTrip := func() {
		if err := cc.send(&req); err != nil {
			t.Fatal(err)
		}
		if err := cc.recvInto(&resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if len(resp.Offsets) != 0 || len(resp.Values) != 64 {
		t.Fatalf("the answer carries %d offsets and %d values, want 0 and 64", len(resp.Offsets), len(resp.Values))
	}
	val0 := &resp.Values[0]
	allocs := testing.AllocsPerRun(100, roundTrip)
	if &resp.Values[0] != val0 {
		t.Fatal("recvInto reallocated the payload backing storage")
	}
	// The budget covers both ends of the pipe (client and echo server
	// goroutines both count toward the global allocation counter). The
	// old fresh-Msg-per-recv path costs ~3x this.
	if allocs > 24 {
		t.Fatalf("round trip allocates %.0f objects, want <= 24", allocs)
	}

	cc.send(&Msg{Kind: MsgShutdown})
	<-done
}

// TestServedSendRefusesUnframeable: a served message the served frame
// cannot carry — offsets that repeat, fall or start below 0, values on a
// read — is an error at the sender, and nothing goes out, sequence
// number included.
func TestServedSendRefusesUnframeable(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		for _, m := range []Msg{
			{Kind: MsgPrefetch, Offsets: []int64{3, 3}},
			{Kind: MsgPrefetch, Offsets: []int64{5, 2}},
			{Kind: MsgPrefetch, Offsets: []int64{-1}},
			{Kind: MsgPrefetch, Offsets: []int64{1}, Values: []float64{1}},
			{Kind: MsgUpdateBatch, Offsets: []int64{1, 2}, Values: []float64{1}},
		} {
			if err := c.send(&m); err == nil {
				t.Errorf("%+v was sent", m)
			}
		}
		if err := c.send(&Msg{Kind: MsgPrefetch, Offsets: []int64{0}}); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 1 {
		t.Fatalf("%d frames went out, want the one well-formed read", len(frames))
	}
	if err := decodeStream(frames[0], 1); err != nil {
		t.Errorf("the well-formed read after the refusals: %v", err)
	}
}

// TestRawRotationRoundTrip: a dense partition shipped via sendRotation
// must come back bitwise-identical as the frame's raw payload, and a
// sparse partition must transparently travel as its dsm record.
func TestRawRotationRoundTrip(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)

	a := dsm.NewDense("w", 3, 4)
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 4; j++ {
			a.SetAt(float64(i)*10+float64(j)+0.125, i, j)
		}
	}
	p := a.ExtractRange(1, 1, 3)

	go func() {
		if _, err := cc.sendRotation("w", p); err != nil {
			t.Error(err)
		}
	}()
	var in Msg
	if err := sc.recvInto(&in); err != nil {
		t.Fatal(err)
	}
	got := in.part
	if got == nil || in.Kind != MsgRotate || in.Array != "w" {
		t.Fatalf("raw frame decoded as %+v", in)
	}
	if got.Array != "w" || got.Dim != 1 || got.Lo != 1 || got.Hi != 3 {
		t.Fatalf("partition came back as %s dim=%d [%d,%d)", got.Array, got.Dim, got.Lo, got.Hi)
	}
	if !slices.Equal(got.Local.Dims(), p.Local.Dims()) {
		t.Fatalf("partition extents came back as %v, want %v", got.Local.Dims(), p.Local.Dims())
	}
	want, _ := p.Local.DenseData()
	gotData, _ := got.Local.DenseData()
	if len(gotData) != len(want) {
		t.Fatalf("decoded %d elements, want %d", len(gotData), len(want))
	}
	for i := range want {
		if math.Float64bits(gotData[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: got %v, want %v (not bitwise equal)", i, gotData[i], want[i])
		}
	}

	// Sparse partitions travel as their dsm record, decoded with the frame.
	s := dsm.NewSparse("idx", 8)
	s.SetAt(2.5, 3)
	sp := s.ExtractRange(0, 0, 8)
	go func() {
		if _, err := cc.sendRotation("idx", sp); err != nil {
			t.Error(err)
		}
	}()
	var in2 Msg
	if err := sc.recvInto(&in2); err != nil {
		t.Fatal(err)
	}
	if in2.part != nil || in2.Kind != MsgRotate || len(in2.Parts) != 1 {
		t.Fatalf("sparse rotation decoded as %+v", in2)
	}
	if got2 := in2.Parts[0]; got2.Local.At(3) != 2.5 {
		t.Fatalf("sparse round trip lost data: got %v", got2.Local.At(3))
	}
}

// TestRawRotationAllocs: steady-state raw rotation round trips must not
// allocate per rotated partition beyond a tiny fixed budget, and must
// allocate at least 2x less than shipping the same partition as its dsm
// record, which decodes with its frame into storage of its own — the
// whole point of the pooled raw payload. Both paths are counted here,
// over one codec pair: raw 2 and record 6 objects per trip, measured.
func TestRawRotationAllocs(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)

	a := dsm.NewDense("w", 6, 128)
	p := a.ExtractRange(1, 0, 128)
	var in Msg
	// Each leg ships p and receives it as far as the peer link hands it
	// on: a partition, streamed into pooled storage or read from its
	// record.
	allocsPerTrip := func(ship func()) float64 {
		roundTrip := func() {
			go ship()
			if err := sc.recvInto(&in); err != nil {
				t.Fatal(err)
			}
			recycle(&in)
		}
		for i := 0; i < 3; i++ {
			roundTrip()
		}
		return testing.AllocsPerRun(100, roundTrip)
	}
	raw := allocsPerTrip(func() { cc.sendRotation("w", p) })
	record := allocsPerTrip(func() {
		cc.send(&Msg{Kind: MsgRotate, Array: "w", Parts: []*dsm.Partition{p}})
	})
	// Budget: the sender goroutine itself, the pool's Put indirection,
	// and net.Pipe scheduling — but no payload-sized allocations. The
	// record's adds its list, name, array, extents, values and partition.
	if raw > 8 || record > 8 {
		t.Errorf("a rotation round trip allocates %.0f objects raw and %.0f as a record, want <= 8 each", raw, record)
	}
	if record < 2*raw {
		t.Errorf("raw rotation allocates %.0f objects per round trip against the record's %.0f, want >= 2x fewer", raw, record)
	}
	t.Logf("allocations per rotated partition: raw %.0f, record %.0f", raw, record)
}

// BenchmarkPeerRoundTrip measures the reusing codec path end to end
// (the transport cost under every served read during execution).
func BenchmarkPeerRoundTrip(b *testing.B) {
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	cc := newCodec(clientConn)
	sc := newCodec(serverConn)
	done := startEcho(sc)

	req := Msg{Kind: MsgPrefetch, Array: "weights", Offsets: make([]int64, 64)}
	for i := range req.Offsets {
		req.Offsets[i] = int64(i)
	}
	var resp Msg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.send(&req); err != nil {
			b.Fatal(err)
		}
		if err := cc.recvInto(&resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cc.send(&Msg{Kind: MsgShutdown})
	<-done
}
