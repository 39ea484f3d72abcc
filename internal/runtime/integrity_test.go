package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// recordConn captures every underlying write as one frame: the codec
// flushes once per message, and test frames stay under the bufio
// buffer size, so each Write call is exactly one wire frame.
type recordConn struct {
	noopConn
	frames [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.frames = append(c.frames, append([]byte(nil), p...))
	return len(p), nil
}

// replayConn feeds a canned byte stream to a codec and discards writes.
type replayConn struct {
	noopConn
	r *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error) { return len(p), nil }

type noopConn struct{}

func (noopConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (noopConn) Write(p []byte) (int, error)        { return len(p), nil }
func (noopConn) Close() error                       { return nil }
func (noopConn) LocalAddr() net.Addr                { return noopAddr{} }
func (noopConn) RemoteAddr() net.Addr               { return noopAddr{} }
func (noopConn) SetDeadline(t time.Time) error      { return nil }
func (noopConn) SetReadDeadline(t time.Time) error  { return nil }
func (noopConn) SetWriteDeadline(t time.Time) error { return nil }

type noopAddr struct{}

func (noopAddr) Network() string { return "noop" }
func (noopAddr) String() string  { return "noop" }

// captureFrames runs fn against a codec whose writes are recorded and
// returns the emitted wire frames.
func captureFrames(fn func(c *codec)) [][]byte {
	rec := &recordConn{}
	fn(newCodec(rec))
	return rec.frames
}

// decodeStream replays a byte stream through a fresh codec and returns
// the first decode error (nil if every frame decoded cleanly). Pooled
// raw payloads are returned to the pool as they arrive.
func decodeStream(stream []byte, frames int) error {
	c := newCodec(&replayConn{r: bytes.NewReader(stream)})
	var m Msg
	for i := 0; i < frames; i++ {
		if err := c.recvInto(&m); err != nil {
			return err
		}
		recycle(&m)
	}
	return nil
}

// recycle returns the pooled storage of a raw frame's partition.
func recycle(m *Msg) {
	if m.part != nil {
		data, _ := m.part.Local.DenseData()
		bufpool.PutF64(data)
		m.part = nil
	}
}

func rotationFrame(t testing.TB) []byte {
	t.Helper()
	a := dsm.NewDense("w", 6, 32)
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 32; j++ {
			a.SetAt(float64(i*32+j)+0.5, i, j)
		}
	}
	p := a.ExtractRange(1, 0, 32)
	frames := captureFrames(func(c *codec) {
		if _, err := c.sendRotation("w", p); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 1 {
		t.Fatalf("rotation produced %d frames, want 1", len(frames))
	}
	return frames[0]
}

// TestFrameChecksumRejectsCorruptRawRotation: any single flipped bit in
// a raw rotation frame — header or payload — must surface as a typed
// *FrameCorruptError, never as a decoded partition.
func TestFrameChecksumRejectsCorruptRawRotation(t *testing.T) {
	frame := rotationFrame(t)
	// Payload region: safely past the ~15-byte header of array "w".
	for _, bit := range []int{8 * 32, 8 * 100, len(frame)*8 - 12} {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << uint(bit%8)
		err := decodeStream(mut, 1)
		var fc *FrameCorruptError
		if !errors.As(err, &fc) {
			t.Fatalf("bit %d flipped: err = %v, want *FrameCorruptError", bit, err)
		}
		if !errors.Is(err, ErrWorkerLost) {
			t.Fatalf("bit %d flipped: corruption does not unwrap to ErrWorkerLost", bit)
		}
	}
}

// TestFrameChecksumRejectsCorruptControlFrame repeats the flip check
// for a control message, one byte flipped inside its array name.
func TestFrameChecksumRejectsCorruptControlFrame(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		if err := c.send(&Msg{Kind: MsgGather, Array: "weights"}); err != nil {
			t.Error(err)
		}
	})
	frame := frames[0]
	mut := append([]byte(nil), frame...)
	mut[len(mut)/2] ^= 0x10
	err := decodeStream(mut, 1)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError", err)
	}
	if !strings.Contains(fc.Reason, "checksum") {
		t.Fatalf("unexpected corruption reason: %q", fc.Reason)
	}
}

// TestFrameSequenceRejectsDuplicatedFrame: a bitwise-identical replay
// of a valid frame passes the CRC but carries a consumed sequence
// number — the codec must condemn the link, not process it twice.
func TestFrameSequenceRejectsDuplicatedFrame(t *testing.T) {
	frame := rotationFrame(t)
	stream := append(append([]byte(nil), frame...), frame...)
	err := decodeStream(stream, 2)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError on the replayed frame", err)
	}
	if !strings.Contains(fc.Reason, "sequence") {
		t.Fatalf("replay rejected for the wrong reason: %q", fc.Reason)
	}
}

// TestFrameSequenceRejectsReorderedFrames: two frames delivered in
// swapped order are both individually valid, but the successor's
// sequence number arrives early — condemned before anything decodes.
func TestFrameSequenceRejectsReorderedFrames(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		if err := c.send(&Msg{Kind: MsgPing}); err != nil {
			t.Error(err)
		}
		if err := c.send(&Msg{Kind: MsgBlockDone}); err != nil {
			t.Error(err)
		}
	})
	if len(frames) != 2 {
		t.Fatalf("captured %d frames, want 2", len(frames))
	}
	stream := append(append([]byte(nil), frames[1]...), frames[0]...)
	err := decodeStream(stream, 2)
	var fc *FrameCorruptError
	if !errors.As(err, &fc) {
		t.Fatalf("err = %v, want *FrameCorruptError on out-of-order delivery", err)
	}
	if !strings.Contains(fc.Reason, "sequence") {
		t.Fatalf("reorder rejected for the wrong reason: %q", fc.Reason)
	}
}

// TestFrameHeaderBoundsRejectHostileClaims: forged frames claiming
// absurd sizes must be rejected by the bounds checks before anything
// is allocated or read at the claimed size — checksummed ones included,
// whose extents multiply past 2^64 to the zero elements they carry or
// could build no DistArray, and served frames whose offsets repeat or
// overflow, whose counts pass the cap or do not match, or whose flag is
// neither 0 nor 1, and partition records the frame decoder refuses as
// it reads them. Each condemns the link, flight-logged as link.corrupt.
// A well-formed served frame of each kind decodes to what was sent, and
// condemns the link once a trailer byte flips.
func TestFrameHeaderBoundsRejectHostileClaims(t *testing.T) {
	for name, frame := range hostileFrames(t) {
		err := decodeStream(frame, 1)
		var fc *FrameCorruptError
		if !errors.As(err, &fc) {
			t.Errorf("%s: err = %v, want *FrameCorruptError", name, err)
			continue
		}
		if evs := obs.Flight().Events(); len(evs) == 0 || evs[len(evs)-1].Kind != obs.FlightLinkCorrupt ||
			!strings.HasSuffix(evs[len(evs)-1].Detail, fc.Reason) {
			t.Errorf("%s: the condemned link was not flight-logged as %s", name, obs.FlightLinkCorrupt)
		}
	}
	for _, want := range servedMsgs() {
		frame := captureFrames(func(c *codec) {
			if err := c.send(&want); err != nil {
				t.Error(err)
			}
		})[0]
		var got Msg
		if err := newCodec(&replayConn{r: bytes.NewReader(frame)}).recvInto(&got); err != nil {
			t.Fatalf("kind %d: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Array != want.Array || got.Epoch != want.Epoch || got.ExecutorID != want.ExecutorID ||
			got.Absolute != want.Absolute || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Values, want.Values) {
			t.Errorf("kind %d came back as %+v, want %+v", want.Kind, got, want)
		}
	}
}

// servedMsgs is one well-formed message of each served kind.
func servedMsgs() []Msg {
	return []Msg{
		{Kind: MsgPrefetch, Array: "w", Offsets: []int64{0, 3, 200, 1 << 40}, Epoch: 7},
		{Kind: MsgPrefetchResp, Values: []float64{1.5, math.Inf(-1), -0.0}},
		{Kind: MsgUpdateBatch, Array: "w", ExecutorID: 1, Offsets: []int64{4, 5}, Values: []float64{0.5, 1}, Absolute: true, Epoch: 7},
	}
}

// hostileFrames are frames a decoder must condemn, by what is wrong
// with them: every bound the decoder enforces has one.
func hostileFrames(tb testing.TB) map[string][]byte {
	rot := func(rank uint64, fields ...uint64) []byte { // a rotation of "w" with no blob
		b := uv(uv(append(uv(head(MsgRotate), 1), 'w'), 0), rank)
		for _, f := range fields {
			b = uv(b, f)
		}
		return b
	}
	prefetch := append(uv(uv(head(MsgPrefetch), 1), 1), 'w')                 // epoch 1, array "w"
	gathered := append(head(MsgGatherResp), 1)                               // one record
	plan := uv(append(head(MsgDefineLoop), 0, 0, 0, 0, 0, 0, 0), maxCount+1) // every field empty up to the plan's length
	update := append(uv(uv(uv(uv(uv(head(MsgUpdateBatch), 0), 1), 0), 1), 'w'), 2, 1, 1)
	frames := map[string][]byte{
		"unknown kind":     checksummed(head(MsgKind(len(schema)))),
		"malformed varint": bytes.Repeat([]byte{0x80}, 11),
		"name length":      uv(head(MsgGather), maxNameLen+1),
		"byte length":      plan,
		"partition count":  uv(append(uv(head(MsgArrayPart), 1), 'w', 0, 0), maxCount+1),
		"record cap":       checksummed(append(gathered, 1, 'w', 1, 0x80, 0x80, 0x80, 1, 0, 0, 0x80, 0x80, 0x80, 1, 0)), // 2^21 values
		"record layout":    checksummed(append(gathered, 1, 'w', 1, 1, 0, 0, 1, 2, 0)),
		"short record":     append(shortDenseRotation(), make([]byte, 64)...), // the next bytes read as its values
		"string length":    uv(head(MsgError), maxCount+1),
		"uint overflow":    checksummed(uv(head(MsgSetup), 1<<63)),
		"key rank":         uv(uv(head(MsgIterPart), 1), maxRank+1),
		"rank":             rot(maxRank + 1),
		"extent overflow":  rot(2, 1<<35, 1<<35),
		"element count":    rot(1, 1<<33, 0, 0, 1<<33),
		"range":            checksummed(rot(1, 4, 0, 0, 3)),
		"extent wraps":     checksummed(rot(2, 1<<33, 1<<33, 0, 0, 1<<33)),
		"zero extent":      checksummed(rot(2, 4, 0, 0, 0, 4)),

		"served zero gap":        checksummed(uv(uv(uv(prefetch, 2), 4), 0)),
		"served offset overflow": checksummed(uv(uv(uv(prefetch, 2), 1<<62), 1<<62+1)),
		"served offset count":    checksummed(uv(prefetch, 1<<40)),
		"served value count":     checksummed(uv(head(MsgPrefetchResp), 1<<40)),
		"served update counts":   checksummed(binary.LittleEndian.AppendUint64(append(update, 1), math.Float64bits(1))),
		"served read values":     checksummed(binary.LittleEndian.AppendUint64(uv(uv(prefetch, 1), 1), math.Float64bits(1))),
		"served answer offsets":  checksummed(binary.LittleEndian.AppendUint64(uv(uv(uv(head(MsgPrefetchResp), 1), 1), 1), math.Float64bits(1))),
		"served unknown flag":    checksummed(uv(uv(uv(uv(head(MsgUpdateBatch), 0), 1), 2), 1)),
	}
	for _, m := range servedMsgs() {
		frame := captureFrames(func(c *codec) {
			if err := c.send(&m); err != nil {
				tb.Error(err)
			}
		})[0]
		frame[len(frame)-1] ^= 0x40
		frames[fmt.Sprintf("served kind %d, flipped CRC byte", m.Kind)] = frame
	}
	return frames
}

// head starts a frame of kind: sequence 0, the kind.
func head(kind MsgKind) []byte { return uv(uv(nil, 0), uint64(kind)) }

// checksummed appends a valid CRC32C trailer to a forged frame: only the
// decoder's checks can refuse it.
func checksummed(frame []byte) []byte {
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
}

// shortDenseRotation is a checksummed rotation frame whose one
// partition record declares a dense 4x4 array and carries 3 values: a
// ring neighbour's record-path MsgRotate cut short.
func shortDenseRotation() []byte {
	rec := []byte{1, 'w', 2, 4, 4, 1, 0, 4, 0} // name, rank, extents, dim, lo, hi, dense layout
	for _, v := range []float64{1, 2, 3} {
		rec = dsm.AppendFloat(rec, v)
	}
	return checksummed(append(slices.Concat(uv(append(uv(head(MsgRotate), 1), 'w'), 1), rec), 0)) // no streamed partition
}

// TestHostileLengthClaimAllocatesLazily: a forged length claiming a
// near-cap string or byte field, or a partition record claiming the
// element cap's values, over a short stream must fail on EOF after at
// most one growth chunk — not allocate the claimed length.
func TestHostileLengthClaimAllocatesLazily(t *testing.T) {
	text := uv(append(head(MsgDefineLoop), 0), maxCount-1) // an empty loop name, then the source
	// Followed by nothing, the claim costs at most one chunk; followed by
	// 3 MiB, at most one chunk beyond those bytes, times append's growth
	// step (1.25 at this size).
	for _, arrived := range []int{0, 3 * frameReadChunk} {
		c := newCodec(&replayConn{r: bytes.NewReader(append(text, make([]byte, arrived)...))})
		var m Msg
		if err := c.recvInto(&m); err == nil {
			t.Error("truncated hostile frame decoded successfully")
		}
		bound := 2 * frameReadChunk
		if arrived > 0 {
			bound = (len(text) + arrived + frameReadChunk) * 5 / 4
		}
		if grown := cap(c.rhdr); grown > bound {
			t.Fatalf("a hostile length claim followed by %d bytes grew the frame buffer to %d bytes, want <= %d", arrived, grown, bound)
		}
	}
	blob := uv(append(head(MsgDefineLoop), 0, 0, 0, 0, 0, 0, 0), maxCount-1)                         // the plan's length
	record := append(head(MsgGatherResp), 1, 1, 'w', 1, 0x80, 0x80, 0x40, 0, 0, 0x80, 0x80, 0x40, 0) // 2^20 values
	for _, c := range []struct {
		name   string
		stream []byte
		bound  uint64
	}{
		{"a blob length claim followed by 3 MiB", append(blob, make([]byte, 3*frameReadChunk)...), 16 * frameReadChunk},
		// 512 KiB of values, which a race build allocates twice.
		{"a dense record at the cap followed by nothing", record, 2 * frameReadChunk},
	} {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if err := decodeStream(c.stream, 1); err == nil {
			t.Errorf("%s decoded successfully", c.name)
		}
		goruntime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > c.bound {
			t.Errorf("%s allocated %d bytes, want <= %d", c.name, grown, c.bound)
		}
	}
}

// TestSendBufferKeepsAtMostAChunk: a frame past a chunk — 200,000
// iteration samples, an executor's share at mf_rotate's size — does not
// leave the send buffer at its size for the life of the link: after it
// and a ping, the buffer holds at most a chunk, as the receive side does.
func TestSendBufferKeepsAtMostAChunk(t *testing.T) {
	samples := make([]IterSample, 200_000)
	for i := range samples {
		samples[i] = IterSample{Key: []int64{int64(i), int64(i % 977)}, Val: float64(i) + 0.5}
	}
	c := newCodec(noopConn{})
	for _, m := range []*Msg{{Kind: MsgIterPart, Samples: samples}, {Kind: MsgPing}} {
		if err := c.send(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(c.wbuf); got > frameReadChunk {
		t.Errorf("the send buffer kept %d bytes after a large frame, want <= %d", got, frameReadChunk)
	}
}

func uv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// TestServeUpdateDuplicateDeliveryIdempotent is the state-layer
// idempotence backstop: a replayed update batch (same sender, same
// epoch, same kind) stages once, so folding applies it once — while
// distinct epochs from the same sender accumulate normally.
func TestServeUpdateDuplicateDeliveryIdempotent(t *testing.T) {
	a := dsm.NewDense("w", 4, 8)
	local := a.ExtractRange(1, 0, 8)
	s := newShardSet(nil, 0)
	s.install(nil, local)

	offs := []int64{0, 5, 9}
	vals := []float64{1, 2, 3}
	// Deliver the batch, then its duplicate (a FaultDuplicate'd frame
	// that somehow survived transport, or a retried flush).
	for i := 0; i < 2; i++ {
		if err := s.serveUpdate("w", 2, offs, vals, false, 5); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.serveRead(nil, "w", offs, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got[i] != want {
			t.Fatalf("offset %d = %v after duplicate delivery, want %v (applied once)", offs[i], got[i], want)
		}
	}

	// A later epoch from the same sender is new work, not a replay.
	if err := s.serveUpdate("w", 2, offs, vals, false, 6); err != nil {
		t.Fatal(err)
	}
	got, err = s.serveRead(nil, "w", offs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got[i] != 2*want {
			t.Fatalf("offset %d = %v after a second epoch, want %v", offs[i], got[i], 2*want)
		}
	}

	// Absolute and additive batches of the same epoch are distinct
	// deliveries: an absolute write is not a replay of a delta.
	if err := s.serveUpdate("w", 2, []int64{0}, []float64{42}, true, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.serveUpdate("w", 2, []int64{0}, []float64{1}, false, 8); err != nil {
		t.Fatal(err)
	}
	got, err = s.serveRead(nil, "w", []int64{0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 43 {
		t.Fatalf("absolute+delta at one epoch = %v, want 43", got[0])
	}
}

// TestShardOwnerRejectsMalformedRequests: a shard owner answers a
// peer's malformed read or update with MsgError — it does not panic on
// its serving goroutine, stage a batch that panics at the next fold, or
// change its shard — and goes on serving the same connection. The
// requester's shard table is deliberately wrong about who owns what, so
// its requests reach an owner of w[0:4) that a correct one never sends.
func TestShardOwnerRejectsMalformedRequests(t *testing.T) {
	tr := NewInProc()
	ln, err := tr.Listen("malformed-owner")
	if err != nil {
		t.Fatal(err)
	}
	owner := loneExecutor(tr, 8, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		owner.servePeer(newCodec(conn))
	}()
	req := loneExecutor(tr, 8, 1, "", "malformed-owner")

	for i, tc := range []struct {
		name      string
		msg       Msg
		unstamped bool // sent at epoch 0, which no step stamps
	}{
		{"read past the end of the array", Msg{Kind: MsgPrefetch, Offsets: []int64{1, 99}}, false},
		{"read of an offset another owner holds", Msg{Kind: MsgPrefetch, Offsets: []int64{6}}, false},
		// An update with more offsets than values never reaches an owner:
		// the served frame's decoder condemns it (TestFrameHeaderBoundsRejectHostileClaims).
		{"update past the end of the array", Msg{Kind: MsgUpdateBatch, ExecutorID: 1, Offsets: []int64{8}, Values: []float64{1}}, false},
		// Staged, an epoch-0 batch would fold into the next read of any
		// epoch; an epoch-0 read would fold in everything staged.
		{"update at epoch 0", Msg{Kind: MsgUpdateBatch, ExecutorID: 1, Offsets: []int64{2}, Values: []float64{100}}, true},
		{"read at epoch 0", Msg{Kind: MsgPrefetch, Offsets: []int64{2}}, true},
	} {
		tc.msg.Array = "w"
		if !tc.unstamped {
			tc.msg.Epoch = int64(i + 1)
		}
		resp, err := req.shardRPC(1, &tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Kind != MsgError || resp.Err == "" || tc.unstamped && !strings.Contains(resp.Err, "epoch 0") {
			t.Errorf("%s: the owner answered %v (%q), want MsgError", tc.name, resp.Kind, resp.Err)
		}
		// A read from a later epoch folds whatever was staged.
		resp, err = req.shardRPC(1, &Msg{Kind: MsgPrefetch, Array: "w", Offsets: []int64{1, 2, 3}, Epoch: int64(i + 2)})
		if err != nil || resp.Kind != MsgPrefetchResp || len(resp.Values) != 3 {
			t.Fatalf("%s: the next well-formed read got %+v, %v", tc.name, resp, err)
		}
		for j, v := range resp.Values {
			if want := float64(j+1)*0.25 - 1; v != want {
				t.Errorf("%s: w[%d] = %v afterwards, want %v", tc.name, j+1, v, want)
			}
		}
	}

	// The single-offset miss path reports the owner's reason, not just
	// that the answer was bad.
	req.ctx.stepEpoch = 1
	if _, err := req.fetchOne("w", 6); err == nil || !strings.Contains(err.Error(), "outside the local shard") {
		t.Errorf("fetchOne of an offset its owner does not hold: %v", err)
	}
	req.shards.closeAll()
	ln.Close()
	<-done
}

// FuzzDecodeFrame drives the frame decoder with arbitrary byte
// streams: it must return an error or a valid message — never panic,
// never hang, never allocate at a forged claim's size — and every
// message it returns is one the encoder would frame. The seeds are a
// frame of every kind from the schema table's examples, the hostile
// frames, and a corrupted and a concatenated stream.
func FuzzDecodeFrame(f *testing.F) {
	var all []byte
	for _, ex := range wireExamples() {
		frame := captureFrames(func(c *codec) { c.send(&ex.m) })[0]
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)
	corrupt := rotationFrame(f)
	corrupt[len(corrupt)/2] ^= 1
	f.Add(corrupt)
	f.Add(shortDenseRotation())
	// Records: dense, sparse, of an empty range, and none.
	sparse := dsm.NewSparse("z", 3, 40)
	sparse.SetAt(2.5, 1, 7)
	sparse.SetAt(-1, 2, 39)
	for _, ps := range [][]*dsm.Partition{
		{dsm.NewDense("W", 2, 5).ExtractRange(1, 1, 4)},
		{sparse.ExtractRange(1, 0, 40), sparse.ExtractRange(1, 3, 3)},
		nil,
	} {
		f.Add(captureFrames(func(c *codec) { c.send(&Msg{Kind: MsgGatherResp, Parts: ps}) })[0])
	}
	for _, frame := range hostileFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		c := newCodec(&replayConn{r: bytes.NewReader(data)})
		var m Msg
		for i := 0; i < 16; i++ {
			if err := c.recvInto(&m); err != nil {
				break
			}
			if err := m.frameable(); err != nil {
				t.Fatalf("decoded a message the encoder refuses: %v", err)
			}
			// A partition the frame carries is whole once it decodes: its
			// last element is readable.
			for _, p := range append(slices.Clip(m.Parts), m.part) {
				if p != nil {
					last := slices.Clone(p.Local.Dims())
					for d := range last {
						last[d]--
					}
					p.Local.At(last...)
				}
			}
			recycle(&m)
		}
	})
}
