package runtime

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// MsgKind enumerates protocol messages.
type MsgKind int

const (
	// MsgHello: executor → master registration.
	MsgHello MsgKind = iota
	// MsgSetup: master → executor topology (peer addresses).
	MsgSetup
	// MsgArrayPart: master → executor: hold these partitions of Array
	// (dsm.EncodePartitions; any number of a wavefront array), placed
	// space-local, ring-rotated (Rotated) or wavefront (Ordered).
	MsgArrayPart
	// MsgServedShard: master → executor: serve this shard of a
	// parameter-server array to your peers.
	MsgServedShard
	// MsgIterPart: master → executor: your iteration-space samples.
	MsgIterPart
	// MsgExecBlock: master → executor: run kernel over your samples
	// whose time coordinate falls in [TimeLo, TimeHi).
	MsgExecBlock
	// MsgBlockDone: executor → master.
	MsgBlockDone
	// MsgRotate: executor → executor: a rotated or wavefront array
	// partition; one with no Array ends an ordered block's hand-off.
	MsgRotate
	// MsgPrefetch: executor → shard owner: bulk read of served-array
	// elements.
	MsgPrefetch
	// MsgPrefetchResp: shard owner → executor.
	MsgPrefetchResp
	// MsgUpdateBatch: executor → shard owner: buffered writes to a
	// served array, acknowledged with MsgAck.
	MsgUpdateBatch
	// MsgGather: master → executor: send your partition of Array back.
	MsgGather
	// MsgGatherResp: executor → master.
	MsgGatherResp
	// MsgAccumQuery / MsgAccumResp: accumulator aggregation.
	MsgAccumQuery
	MsgAccumResp
	// MsgDefineLoop: master → executor: compile a DSL loop into a
	// kernel under LoopName (the runtime analogue of Orion defining
	// generated loop-body functions in its workers during macro
	// expansion).
	MsgDefineLoop
	// MsgShutdown: master → executor.
	MsgShutdown
	// MsgAck: generic acknowledgment.
	MsgAck
	// MsgError: either direction; aborts the operation.
	MsgError
	// MsgPing: executor → master heartbeat. Carries no payload; the
	// master refreshes the sender's liveness timestamp on receipt (as it
	// does for every message).
	MsgPing
	// MsgTraceSync: master ↔ executor clock-offset handshake. The
	// request carries the master's wall clock in T0 (unix nanoseconds);
	// the reply echoes T0 and adds the executor's wall clock in T1. The
	// master applies the midpoint method over several pings to estimate
	// the per-worker clock offset used when merging shipped spans.
	MsgTraceSync
	// MsgTraceDump: master → executor request for the executor's
	// not-yet-shipped trace spans (TracerID identifies the master's
	// tracer so in-process executors sharing it reply empty); the
	// executor → master reply carries a gob-encoded obs.TraceDump in
	// TraceBlob.
	MsgTraceDump
)

// Msg is the single wire message type (gob encodes nil/zero fields
// compactly).
type Msg struct {
	Kind MsgKind

	// Hello / Setup. A hello with ExecutorID -1 asks the master to
	// assign a free id (reported back in the setup message — used by
	// rejoining workers after a recovery re-forms the fleet).
	// HeartbeatMs, when non-zero, tells the executor to send MsgPing
	// every that many milliseconds.
	ExecutorID  int
	PeerAddr    string
	Peers       []string // indexed by executor id
	NumExecs    int
	HeartbeatMs int

	// Array payloads: a gob-encoded dsm.Partition (partition blob) or
	// raw samples.
	Array    string
	PartBlob []byte
	Samples  []IterSample
	Rotated  bool
	Ordered  bool
	// Raw marks a rotation decoded from a length-prefixed raw frame
	// (dense partitions only): the partition range arrives in
	// PartDim/PartLo/PartHi/PartDims and the dense payload in Values,
	// whose backing storage comes from bufpool — whoever installs the
	// partition owns returning it. PartDims is pooled across messages
	// like Offsets/Values.
	Raw       bool
	PartDim   int
	PartLo    int64
	PartHi    int64
	PartDims  []int64
	LoopName  string
	TimeLo    int64
	TimeHi    int64
	TimeDim   int
	Pass      int
	StepIndex int

	// Served arrays. Absolute marks an update batch carrying final
	// values (last-write-wins) rather than additive deltas. Epoch is the
	// served-consistency clock of the block issuing the read or update:
	// owners stage incoming updates and fold a batch into the shard only
	// once a read from a *later* epoch arrives, so every block observes
	// exactly the state at its step's start — independent of how block
	// execution interleaves across executors. A read with Epoch 0 folds
	// everything (gathers, legacy raw RPCs).
	Offsets  []int64
	Values   []float64
	Absolute bool
	Epoch    int64

	// Accumulators.
	AccName  string
	AccValue float64

	// BlockDone execution stats: where the executor's wall-clock went
	// during the block. The master folds these into the per-loop
	// execution report (obs.LoopReport).
	StatIters     int64
	StatComputeNs int64
	StatRotWaitNs int64
	StatCommNs    int64

	// DefineLoop payload: the loop source, the serialized plan artifact
	// (binary internal/plan encoding — carries the strategy, the
	// materialized partitions, and the synthesized prefetch spec, so
	// executors re-derive nothing), the declared arrays/buffers,
	// captured driver globals, and accumulator names. Backend selects
	// the loop execution backend: "" (bytecode VM with interpreter
	// fallback), "vm" (fallback is an error), or "interp".
	LoopSrc     string
	PlanBlob    []byte
	ArrayDims   map[string][]int64
	Buffers     map[string]string
	GlobalNames []string
	GlobalVals  []float64
	AccumNames  []string
	Backend     string

	// Errors. Lost marks an executor-reported error caused by a broken
	// connection (ring neighbor or shard owner unreachable) rather than
	// a kernel failure; the master folds it into ErrWorkerLost so the
	// recovery path can distinguish transport loss from program bugs.
	Err  string
	Lost bool

	// Trace collection. Trace (in MsgSetup) tells a worker process to
	// enable span tracing so its rings can be collected later. T0/T1
	// carry the clock-sync handshake timestamps (unix nanoseconds),
	// TracerID identifies a tracer across processes, and TraceBlob is a
	// gob-encoded obs.TraceDump.
	Trace     bool
	T0        int64
	T1        int64
	TracerID  int64
	TraceBlob []byte
}

// reset clears a Msg for reuse while keeping the backing storage of the
// hot-path payload slices (Offsets/Values/PartDims), so a long-lived
// serving loop can decode into the same Msg without reallocating per
// message. Explicit zeroing matters: gob leaves fields absent from the
// wire unchanged on decode.
func (m *Msg) reset() {
	offsets := m.Offsets[:0]
	values := m.Values[:0]
	dims := m.PartDims[:0]
	*m = Msg{Offsets: offsets, Values: values, PartDims: dims}
}

// IterSample is one iteration-space element shipped to an executor.
type IterSample struct {
	Key []int64
	Val float64
}

// Frame tags: every message on a codec stream is one tag byte followed
// by its body. 'G' frames carry a gob-encoded Msg; 'R' frames carry a
// length-prefixed raw rotation payload (dense partition storage written
// directly, no intermediate blob). Both frames end in a CRC32C trailer
// over everything after the tag byte, and both carry a per-direction
// sequence number inside the checksummed region — the checksum catches
// flipped or truncated bytes, the sequence number catches duplicated or
// reordered frames that are individually intact.
const (
	tagGob = 'G'
	tagRaw = 'R'
)

// Frame integrity bounds. A decoder trusts nothing it has not verified:
// uvarint header fields are capped before any allocation or blocking
// read sized by them, and the payload element cap is keyed to the fleet
// configuration (raised to the largest declared array when a loop is
// defined) rather than a blanket "anything under 16 GiB".
const (
	// frameTrailerLen is the CRC32C trailer size.
	frameTrailerLen = 4
	// maxGobFrameLen caps a gob frame's body ('G' frames carry control
	// messages and partition blobs, never larger than an array).
	maxGobFrameLen = 1 << 30
	// maxRawNameLen caps the array-name field of a raw rotation frame.
	maxRawNameLen = 4096
	// maxRawDims caps the rank of a raw rotation frame.
	maxRawDims = 16
	// defaultRawElemCap bounds raw payloads before any loop has been
	// defined (handshakes, benches); DefineLoop raises the live cap to
	// the largest declared array.
	defaultRawElemCap = 1 << 20
	// hardRawElemCap is the absolute ceiling no configuration can raise
	// the element cap past (2^34 float64s = 128 GiB).
	hardRawElemCap = 1 << 34
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rawElemCap is the live raw-frame element cap: zero means
// defaultRawElemCap. It is raised — never lowered — from declared array
// extents at DefineLoop on both the master and executor sides, so
// concurrent sessions in one process can only widen each other's bound.
var rawElemCap atomic.Int64

// RaiseFrameElemCap widens the raw-frame element cap to at least n
// (clamped to the hard ceiling). The cap is monotonic: lowering it
// would race between sessions sharing the process.
func RaiseFrameElemCap(n int64) {
	if n > hardRawElemCap {
		n = hardRawElemCap
	}
	for {
		cur := rawElemCap.Load()
		if n <= cur {
			return
		}
		if rawElemCap.CompareAndSwap(cur, n) {
			return
		}
	}
}

func frameElemCap() int64 {
	if v := rawElemCap.Load(); v > defaultRawElemCap {
		return v
	}
	return defaultRawElemCap
}

// raiseElemCapFromDims raises the element cap to cover the largest
// array in a DefineLoop declaration — a rotated partition is at most a
// whole array.
func raiseElemCapFromDims(dims map[string][]int64) {
	for _, ds := range dims {
		n := int64(1)
		for _, d := range ds {
			if d <= 0 {
				continue
			}
			if n > hardRawElemCap/d {
				n = hardRawElemCap
				break
			}
			n *= d
		}
		RaiseFrameElemCap(n)
	}
}

// FrameCorruptError reports a frame that failed wire-integrity
// verification: a checksum mismatch, an out-of-sequence (duplicated or
// reordered) frame, a header field past its bound, or trailing garbage.
// The codec closes the connection before returning it — a desynchronized
// stream cannot be re-trusted — and the error unwraps to ErrWorkerLost,
// so every recovery path treats a poisoned link exactly like a lost
// worker: condemn the connection, re-form the fleet, restore the newest
// checkpoint, resume.
type FrameCorruptError struct {
	Label  string // peer label, when the codec has one
	Reason string
}

func (e *FrameCorruptError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("runtime: corrupt frame on %s: %s", e.Label, e.Reason)
	}
	return fmt.Sprintf("runtime: corrupt frame: %s", e.Reason)
}

// Unwrap folds frame corruption into the worker-loss recovery path.
func (e *FrameCorruptError) Unwrap() error { return ErrWorkerLost }

// errMalformedVarint marks a uvarint that overflows 64 bits — corrupt
// framing, not an I/O failure.
var errMalformedVarint = errors.New("malformed uvarint")

// readUvarintRaw decodes one uvarint from r while appending the exact
// wire bytes to *raw, so the caller can checksum what was actually read
// (re-encoding would silently accept non-canonical forms).
func readUvarintRaw(r io.ByteReader, raw *[]byte) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		*raw = append(*raw, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errMalformedVarint
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errMalformedVarint
}

// codec wraps a connection with tag-framed, checksummed gob
// encode/decode and a write lock so multiple goroutines may send on the
// same connection. stats, when set, counts messages per peer (atomic
// increments — allocation-free).
type codec struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	enc   *gob.Encoder
	dec   *gob.Decoder
	wmu   sync.Mutex
	stats *obs.PeerStats
	label string
	// wseq/rseq are the per-direction frame sequence numbers: wseq is
	// stamped under wmu on send, rseq checked by the (single) reader.
	wseq uint64
	rseq uint64
	// gw stages gob-encoded bodies so frames can be length-prefixed and
	// checksummed; gr replays one verified frame body to the decoder.
	gw frameBuffer
	gr frameReader
	// wbuf stages frame headers and payload chunks on the send side
	// (guarded by wmu); rhdr collects received header bytes for
	// checksumming and scratch stages received payload chunks. Send and
	// receive need separate buffers, because a codec may do both
	// concurrently (the master link). names interns array names decoded
	// from raw frames so the steady-state rotation path allocates no
	// strings.
	wbuf    []byte
	rhdr    []byte
	scratch []byte
	names   map[string]string
}

// frameBuffer is the gob encoder's staging sink: one Encode call's
// output accumulates here, then ships as a single checksummed frame.
type frameBuffer struct{ buf []byte }

func (b *frameBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// frameReader replays one verified frame body to the gob decoder. It
// implements io.ByteReader so gob reads it directly instead of wrapping
// it in a bufio.Reader that would buffer across frames.
type frameReader struct {
	data []byte
	pos  int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func (r *frameReader) ReadByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func newCodec(conn net.Conn) *codec {
	c := &codec{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	c.enc = gob.NewEncoder(&c.gw)
	c.dec = gob.NewDecoder(&c.gr)
	return c
}

// newPeerCodec builds a codec whose traffic is counted under the given
// peer label in the default obs registry: message counts at the codec
// layer, byte counts via a countingConn wrapped around the connection.
func newPeerCodec(conn net.Conn, label string) *codec {
	stats := obs.Peer(label)
	c := newCodec(&countingConn{Conn: conn, stats: stats})
	c.stats = stats
	c.label = label
	return c
}

// condemn reports an integrity violation on this connection. The stream
// may be desynchronized, so it cannot be re-trusted: the connection is
// closed (both ends unwind), the corruption is counted and
// flight-logged, and the typed error — which unwraps to ErrWorkerLost —
// hands the link to the checkpoint-recovery machinery.
func (c *codec) condemn(reason string) error {
	obs.GetCounter("runtime.frame_corrupt").Inc()
	label := c.label
	if label == "" {
		label = "link"
	}
	obs.Flight().Record(obs.FlightEvent{
		Kind: "link.corrupt", Clock: -1, Pass: -1, Step: -1, Worker: -1,
		Detail: label + ": " + reason,
	})
	_ = c.conn.Close()
	return &FrameCorruptError{Label: c.label, Reason: reason}
}

// corruptOrIO maps a header-read failure to either corruption (a
// malformed varint can only come from a hostile or damaged stream) or a
// plain transport error (the peer died mid-frame).
func (c *codec) corruptOrIO(err error) error {
	if errors.Is(err, errMalformedVarint) {
		return c.condemn(err.Error())
	}
	return err
}

func (c *codec) send(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.gw.buf = c.gw.buf[:0]
	if err := c.enc.Encode(m); err != nil {
		return err
	}
	body := c.gw.buf
	h := append(c.wbuf[:0], tagGob)
	h = binary.AppendUvarint(h, c.wseq)
	c.wseq++
	h = binary.AppendUvarint(h, uint64(len(body)))
	c.wbuf = h[:0]
	if _, err := c.bw.Write(h); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	crc := crc32.Update(0, castagnoli, h[1:])
	crc = crc32.Update(crc, castagnoli, body)
	var tr [frameTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	if _, err := c.bw.Write(tr[:]); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.MsgsSent.Inc()
	}
	return nil
}

func (c *codec) recv() (*Msg, error) {
	var m Msg
	if err := c.decodeFrame(&m); err != nil {
		return nil, err
	}
	if c.stats != nil {
		c.stats.MsgsRecv.Inc()
	}
	return &m, nil
}

// recvInto decodes the next message into a caller-owned Msg, reusing
// its payload slice storage. The caller must not retain pointers into
// the Msg across calls (copy anything it keeps — see servePeer's
// rotation handling). Raw rotation frames are the exception by design:
// their Values payload arrives in fresh pooled storage whose ownership
// the caller takes over (and later returns via bufpool.PutF64).
func (c *codec) recvInto(m *Msg) error {
	m.reset()
	if err := c.decodeFrame(m); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.MsgsRecv.Inc()
	}
	return nil
}

// decodeFrame reads one tag-framed message into m, verifying the
// frame's checksum and sequence number before any of its payload is
// released to the caller.
func (c *codec) decodeFrame(m *Msg) error {
	tag, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	switch tag {
	case tagGob:
		return c.readGobFrame(m)
	case tagRaw:
		return c.readRawRotation(m)
	default:
		return c.condemn(fmt.Sprintf("unknown frame tag %#x", tag))
	}
}

// readGobFrame reads one length-prefixed gob frame (tag already
// consumed), verifies its CRC32C trailer and sequence number, and only
// then lets the gob decoder touch the body.
func (c *codec) readGobFrame(m *Msg) error {
	hdr := c.rhdr[:0]
	seq, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		c.rhdr = hdr[:0]
		return c.corruptOrIO(err)
	}
	length, err := readUvarintRaw(c.br, &hdr)
	c.rhdr = hdr[:0]
	if err != nil {
		return c.corruptOrIO(err)
	}
	if length > maxGobFrameLen {
		return c.condemn(fmt.Sprintf("gob frame length %d exceeds the %d cap", length, maxGobFrameLen))
	}
	if uint64(cap(c.gr.data)) >= length {
		// Steady state: the body buffer already fits — one read, no
		// allocation.
		c.gr.data = c.gr.data[:length]
		if _, err := io.ReadFull(c.br, c.gr.data); err != nil {
			return err
		}
	} else {
		// First growth (or a hostile length claim): extend the buffer
		// chunk by chunk as bytes actually arrive, so a forged header
		// can cost at most one chunk of memory beyond what the peer
		// really sent.
		c.gr.data = c.gr.data[:0]
		for remaining := length; remaining > 0; {
			n := remaining
			if n > frameReadChunk {
				n = frameReadChunk
			}
			old := len(c.gr.data)
			c.gr.data = append(c.gr.data, make([]byte, n)...)
			if _, err := io.ReadFull(c.br, c.gr.data[old:]); err != nil {
				return err
			}
			remaining -= n
		}
	}
	crc := crc32.Update(0, castagnoli, hdr)
	crc = crc32.Update(crc, castagnoli, c.gr.data)
	var tr [frameTrailerLen]byte
	if _, err := io.ReadFull(c.br, tr[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != crc {
		return c.condemn(fmt.Sprintf("gob frame checksum mismatch (wire %08x, computed %08x)", got, crc))
	}
	if seq != c.rseq {
		return c.condemn(fmt.Sprintf("frame out of sequence (got %d, want %d): duplicated or reordered delivery", seq, c.rseq))
	}
	c.rseq++
	c.gr.pos = 0
	if err := c.dec.Decode(m); err != nil {
		return c.condemn(fmt.Sprintf("gob decode of a verified frame: %v", err))
	}
	if c.gr.pos != len(c.gr.data) {
		return c.condemn(fmt.Sprintf("%d trailing bytes after the gob value", len(c.gr.data)-c.gr.pos))
	}
	return nil
}

// frameReadChunk bounds how much a gob frame body buffer grows per
// read while the claimed length is still unverified by arrived bytes.
const frameReadChunk = 1 << 20

// rawChunkElems is how many float64s a raw frame stages through the
// codec scratch per conversion pass on both send and receive. Staging
// is a codec-local detail — the payload is one contiguous byte stream,
// so the two ends of a link may chunk it differently. At 4096 the
// buffer-flush rendezvous are few enough that they more than pay for
// the CRC32C pass over the same bytes.
const rawChunkElems = 4096

// sendRotation ships one rotated partition to the peer. Dense
// partitions go as a length-prefixed raw frame gathered directly from
// the partition's backing storage — no intermediate gob blob, no
// per-message allocation. Sparse partitions fall back to the gob
// message path. Returns the frame's wire size in bytes.
func (c *codec) sendRotation(array string, p *dsm.Partition) (int64, error) {
	data, _ := p.Local.DenseData()
	if data == nil {
		blob, err := p.Encode()
		if err != nil {
			return 0, err
		}
		if err := c.send(&Msg{Kind: MsgRotate, Array: array, PartBlob: blob}); err != nil {
			return 0, err
		}
		return int64(len(blob)), nil
	}
	dims := p.Local.Dims()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	h := append(c.wbuf[:0], tagRaw)
	h = binary.AppendUvarint(h, c.wseq)
	c.wseq++
	h = binary.AppendUvarint(h, uint64(len(array)))
	h = append(h, array...)
	h = binary.AppendUvarint(h, uint64(p.Dim))
	h = binary.AppendUvarint(h, uint64(p.Lo))
	h = binary.AppendUvarint(h, uint64(p.Hi))
	h = binary.AppendUvarint(h, uint64(len(dims)))
	for _, d := range dims {
		h = binary.AppendUvarint(h, uint64(d))
	}
	h = binary.AppendUvarint(h, uint64(len(data)))
	c.wbuf = h[:0]
	if _, err := c.bw.Write(h); err != nil {
		return 0, err
	}
	crc := crc32.Update(0, castagnoli, h[1:])
	wire := int64(len(h)) + int64(len(data))*8 + frameTrailerLen
	if cap(c.wbuf) < rawChunkElems*8 {
		c.wbuf = make([]byte, rawChunkElems*8)
	}
	buf := c.wbuf[:rawChunkElems*8]
	for off := 0; off < len(data); off += rawChunkElems {
		n := len(data) - off
		if n > rawChunkElems {
			n = rawChunkElems
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(data[off+i]))
		}
		crc = crc32.Update(crc, castagnoli, buf[:n*8])
		if _, err := c.bw.Write(buf[:n*8]); err != nil {
			return 0, err
		}
	}
	var tr [frameTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	if _, err := c.bw.Write(tr[:]); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if c.stats != nil {
		c.stats.MsgsSent.Inc()
	}
	return wire, nil
}

// readRawRotation decodes a raw rotation frame (tag already consumed)
// into m: the partition range lands in PartDim/PartLo/PartHi/PartDims
// and the dense payload in Values, scattered into pooled storage. Every
// header field is bounds-checked before anything is sized by it, and
// the payload stays codec-internal until the CRC trailer and sequence
// number verify — a corrupt frame's values are returned to the pool,
// never handed to the caller, so they can never reach a dsm.Partition.
func (c *codec) readRawRotation(m *Msg) error {
	hdr := c.rhdr[:0]
	// Keep the grown header storage whatever path exits.
	defer func() { c.rhdr = hdr[:0] }()
	seq, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	nameLen, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	if nameLen > maxRawNameLen {
		return c.condemn(fmt.Sprintf("raw rotation frame: array name length %d exceeds the %d cap", nameLen, maxRawNameLen))
	}
	need := len(hdr) + int(nameLen)
	if cap(hdr) < need {
		grown := make([]byte, len(hdr), need+64)
		copy(grown, hdr)
		hdr = grown
	}
	nb := hdr[len(hdr):need]
	if _, err := io.ReadFull(c.br, nb); err != nil {
		return err
	}
	hdr = hdr[:need]
	name := c.intern(nb)
	dim, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	lo, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	hi, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	ndims, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	if ndims > maxRawDims {
		return c.condemn(fmt.Sprintf("raw rotation frame: rank %d exceeds the %d cap", ndims, maxRawDims))
	}
	extent := uint64(1)
	m.PartDims = m.PartDims[:0]
	for i := uint64(0); i < ndims; i++ {
		d, err := readUvarintRaw(c.br, &hdr)
		if err != nil {
			return c.corruptOrIO(err)
		}
		if d > hardRawElemCap || extent > hardRawElemCap {
			return c.condemn(fmt.Sprintf("raw rotation frame: dimension extent overflow (%d x %d)", extent, d))
		}
		m.PartDims = append(m.PartDims, int64(d))
		extent *= d
	}
	count, err := readUvarintRaw(c.br, &hdr)
	if err != nil {
		return c.corruptOrIO(err)
	}
	if count != extent {
		return c.condemn(fmt.Sprintf("raw rotation frame: %d elements for extent %d", count, extent))
	}
	if cp := frameElemCap(); count > uint64(cp) {
		return c.condemn(fmt.Sprintf("raw rotation frame: %d elements exceeds the configured cap %d", count, cp))
	}
	crc := crc32.Update(0, castagnoli, hdr)
	vals := bufpool.GetF64(int(count))
	if cap(c.scratch) < rawChunkElems*8 {
		c.scratch = make([]byte, rawChunkElems*8)
	}
	buf := c.scratch[:rawChunkElems*8]
	for off := 0; off < len(vals); off += rawChunkElems {
		n := len(vals) - off
		if n > rawChunkElems {
			n = rawChunkElems
		}
		if _, err := io.ReadFull(c.br, buf[:n*8]); err != nil {
			bufpool.PutF64(vals)
			return err
		}
		crc = crc32.Update(crc, castagnoli, buf[:n*8])
		for i := 0; i < n; i++ {
			vals[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	var tr [frameTrailerLen]byte
	if _, err := io.ReadFull(c.br, tr[:]); err != nil {
		bufpool.PutF64(vals)
		return err
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != crc {
		bufpool.PutF64(vals)
		return c.condemn(fmt.Sprintf("raw rotation frame checksum mismatch (wire %08x, computed %08x)", got, crc))
	}
	if seq != c.rseq {
		bufpool.PutF64(vals)
		return c.condemn(fmt.Sprintf("frame out of sequence (got %d, want %d): duplicated or reordered delivery", seq, c.rseq))
	}
	c.rseq++
	m.Kind = MsgRotate
	m.Raw = true
	m.Array = name
	m.PartDim = int(dim)
	m.PartLo = int64(lo)
	m.PartHi = int64(hi)
	m.Values = vals
	return nil
}

// intern returns a long-lived string for a transient name buffer
// without allocating on repeat lookups.
func (c *codec) intern(b []byte) string {
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	if c.names == nil {
		c.names = map[string]string{}
	}
	s := string(b)
	c.names[s] = s
	return s
}

func (c *codec) close() error { return c.conn.Close() }
