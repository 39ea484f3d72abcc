package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"orion/internal/dsm"
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
		if m.Raw && m.Values != nil {
			bufpool.PutF64(m.Values)
			m.Values = nil
		}
	}
	return nil
}

func rotationFrame(t *testing.T) []byte {
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

// TestFrameChecksumRejectsCorruptGobFrame repeats the flip check for
// the gob message framing.
func TestFrameChecksumRejectsCorruptGobFrame(t *testing.T) {
	frames := captureFrames(func(c *codec) {
		if err := c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 3, Array: "weights"}); err != nil {
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
	if !strings.Contains(fc.Reason, "checksum") && !strings.Contains(fc.Reason, "decode") {
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
		if err := c.send(&Msg{Kind: MsgPing, ExecutorID: 1}); err != nil {
			t.Error(err)
		}
		if err := c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 1}); err != nil {
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

// TestFrameHeaderBoundsRejectHostileClaims: forged headers claiming
// absurd sizes must be rejected by the bounds checks before anything
// is allocated or read at the claimed size.
func TestFrameHeaderBoundsRejectHostileClaims(t *testing.T) {
	cases := map[string][]byte{
		"unknown tag": {0x7a, 0, 0, 0},
		"name length": uv(uv([]byte{tagRaw}, 0), 1<<20),
		"rank": uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 32), maxRawDims+1), 1),
		"extent overflow": uv(uv(uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 32), 2), 1<<35), 1<<35), 1),
		"element count": uv(uv(uv(uv(uv(uv(append(uv(uv([]byte{tagRaw}, 0), 1), 'w'),
			0), 0), 32), 1), 1<<33), 1<<33),
		"gob length":       uv(uv([]byte{tagGob}, 0), maxGobFrameLen+1),
		"malformed varint": append([]byte{tagGob}, bytes.Repeat([]byte{0x80}, 11)...),
	}
	for name, frame := range cases {
		err := decodeStream(frame, 1)
		var fc *FrameCorruptError
		if !errors.As(err, &fc) {
			t.Errorf("%s: err = %v, want *FrameCorruptError", name, err)
		}
	}
}

// TestHostileGobLengthClaimAllocatesLazily: a forged gob header
// claiming a near-cap body over a short stream must fail on EOF after
// at most one growth chunk — not allocate the full claimed length.
func TestHostileGobLengthClaimAllocatesLazily(t *testing.T) {
	frame := uv(uv([]byte{tagGob}, 0), maxGobFrameLen-1)
	c := newCodec(&replayConn{r: bytes.NewReader(frame)})
	var m Msg
	if err := c.recvInto(&m); err == nil {
		t.Error("truncated hostile frame decoded successfully")
	}
	if grown := cap(c.gr.data); grown > 2*frameReadChunk {
		t.Fatalf("hostile length claim grew the body buffer to %d bytes, want <= %d", grown, 2*frameReadChunk)
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
	s.install("w", []int64{4, 8}, nil, local)

	offs := []int64{0, 5, 9}
	vals := []float64{1, 2, 3}
	// Deliver the batch, then its duplicate (a FaultDuplicate'd frame
	// that somehow survived transport, or a retried flush).
	for i := 0; i < 2; i++ {
		if err := s.serveUpdate("w", 2, offs, vals, false, 5); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.serveRead("w", offs, 6)
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
	got, err = s.serveRead("w", offs, 7)
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
	got, err = s.serveRead("w", []int64{0}, 9)
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
		name string
		msg  Msg
	}{
		{"read past the end of the array", Msg{Kind: MsgPrefetch, Offsets: []int64{1, 99}}},
		{"read of an offset another owner holds", Msg{Kind: MsgPrefetch, Offsets: []int64{6}}},
		{"update with more offsets than values", Msg{Kind: MsgUpdateBatch, Offsets: []int64{1, 2}, Values: []float64{1}}},
		{"update past the end of the array", Msg{Kind: MsgUpdateBatch, Offsets: []int64{8}, Values: []float64{1}}},
	} {
		tc.msg.Array, tc.msg.ExecutorID, tc.msg.Epoch = "w", 1, int64(i+1)
		resp, err := req.shardRPC(1, &tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Kind != MsgError || resp.Err == "" {
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
	if _, err := req.fetchOne("w", 6); err == nil || !strings.Contains(err.Error(), "outside the local shard") {
		t.Errorf("fetchOne of an offset its owner does not hold: %v", err)
	}
	req.shards.closeAll()
	ln.Close()
	<-done
}

// FuzzDecodeFrame drives the hardened frame decoder with arbitrary
// byte streams: it must return an error or a valid message — never
// panic, never hang, never allocate at a forged header's claimed size.
func FuzzDecodeFrame(f *testing.F) {
	rot := func() []byte {
		a := dsm.NewDense("w", 4, 16)
		p := a.ExtractRange(1, 0, 16)
		frames := captureFrames(func(c *codec) { c.sendRotation("w", p) })
		return frames[0]
	}()
	gob := func() []byte {
		frames := captureFrames(func(c *codec) {
			c.send(&Msg{Kind: MsgBlockDone, ExecutorID: 1, Array: "w", Offsets: []int64{1, 2}, Values: []float64{3, 4}})
		})
		return frames[0]
	}()
	f.Add(rot)
	f.Add(gob)
	f.Add(append(append([]byte(nil), gob...), rot...))
	corrupt := append([]byte(nil), rot...)
	corrupt[len(corrupt)/2] ^= 1
	f.Add(corrupt)
	f.Add(uv(uv([]byte{tagRaw}, 0), 1<<20))
	f.Add(append([]byte{tagGob}, bytes.Repeat([]byte{0x80}, 11)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		c := newCodec(&replayConn{r: bytes.NewReader(data)})
		var m Msg
		for i := 0; i < 16; i++ {
			m.reset()
			if err := c.recvInto(&m); err != nil {
				break
			}
			if m.Raw && m.Values != nil {
				bufpool.PutF64(m.Values)
				m.Values = nil
			}
		}
	})
}
