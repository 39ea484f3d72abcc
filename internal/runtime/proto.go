package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/runtime/bufpool"
)

// MsgKind enumerates protocol messages; the schema table (schema.go)
// lists the fields each one carries.
type MsgKind int

const (
	// MsgHello: executor → master registration, and the master's answer
	// to a hello of another wire version. Its row starts with the
	// version, so every build reads that much of any build's hello.
	MsgHello MsgKind = iota
	// MsgSetup: master → executor topology (peer addresses).
	MsgSetup
	// MsgArrayPart: master → executor: hold these partitions of Array
	// (any number of a wavefront array), placed space-local, ring-rotated
	// (Rotated) or wavefront (Ordered).
	MsgArrayPart
	// MsgServedShard: master → executor: serve this shard of a
	// parameter-server array, cut along its last dimension, to your peers.
	MsgServedShard
	// MsgIterPart: master → executor: your iteration-space samples.
	MsgIterPart
	// MsgExecBlock: master → executor: run the loop last defined over
	// your samples whose time coordinate falls in [TimeLo, TimeHi).
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
	// master drops it, and its only effect is to keep an armed read
	// deadline (SetHeartbeat) from firing on an otherwise quiet link.
	MsgPing
	// MsgTraceSync: master ↔ executor clock-offset handshake. The
	// request carries nothing: the master notes its own wall clock as it
	// sends. The reply carries the executor's wall clock in T1 (unix
	// nanoseconds). The master applies the midpoint method over several
	// rounds to estimate the per-worker clock offset used when merging
	// shipped spans.
	MsgTraceSync
	// MsgTraceDump: master → executor request for the executor's
	// not-yet-shipped trace spans (TracerID identifies the master's
	// tracer); the executor → master reply carries its spans in Dump.
	MsgTraceDump
)

// Msg is the single wire message type. Each kind carries the fields
// its schema row names (schema.go) and no other.
type Msg struct {
	Kind MsgKind

	// Hello / Setup / UpdateBatch, and set by the master to the link any
	// other message arrived on. A hello with ExecutorID -1 asks the
	// master to assign a free id (reported back in the setup message).
	ExecutorID int
	PeerAddr   string
	Peers      []string // indexed by executor id

	// Array payloads: partitions, each framed as its dsm record, or
	// samples.
	Array   string
	Parts   []*dsm.Partition
	Samples []IterSample
	Rotated bool
	Ordered bool
	// part is the dense partition a rotation carries, decoded where it
	// arrives straight into storage from bufpool (a sparse one travels
	// in Parts). Whoever holds it next owns the storage.
	part      *dsm.Partition
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
	// execution interleaves across executors. Every step's epoch is at
	// least 1: an owner refuses a read or update stamped 0.
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
	// captured driver globals, and accumulator names.
	LoopSrc     string
	PlanBlob    []byte
	ArrayDims   map[string][]int64
	Buffers     map[string]string
	GlobalNames []string
	GlobalVals  []float64
	AccumNames  []string

	// Errors. Lost marks an executor-reported error caused by a broken
	// connection (a neighbour or shard owner unreachable) rather than
	// a kernel failure; the master folds it into ErrWorkerLost so the
	// recovery path can distinguish transport loss from program bugs.
	Err  string
	Lost bool

	// Trace collection. Trace (in MsgSetup) tells a worker process to
	// enable span tracing so its rings can be collected later. T1 is an
	// executor's wall clock in its clock-sync reply (unix nanoseconds),
	// TracerID names the requesting tracer, and Dump is a worker's spans
	// (nil when it traces nothing).
	Trace    bool
	T1       int64
	TracerID int64
	Dump     *obs.TraceDump
}

// reset clears a Msg for reuse while keeping the backing storage of the
// hot-path payload slices (Offsets/Values), so a long-lived serving loop
// can decode into the same Msg without reallocating per message.
// Explicit zeroing matters: a frame sets only its row's fields.
func (m *Msg) reset() {
	offsets := m.Offsets[:0]
	values := m.Values[:0]
	*m = Msg{Offsets: offsets, Values: values}
}

// IterSample is one iteration-space element shipped to an executor.
type IterSample struct {
	Key []int64
	Val float64
}

// Frame integrity bounds. A decoder trusts nothing it has not verified:
// every count is capped before any allocation or blocking read sized by
// it, and a float64 payload's element count by the fleet's cap (raised
// to the largest declared array when a loop is defined) rather than a
// blanket "anything under 16 GiB".
const (
	// frameTrailerLen is the CRC32C trailer size.
	frameTrailerLen = 4
	// maxCount caps every other count and length (1 GiB): they arrive
	// before any DefineLoop declares an array (the iteration space,
	// array parts). Storage sized by one grows a chunk at a time as its
	// bytes actually arrive.
	maxCount = 1 << 30
	// maxNameLen caps an array or accumulator name.
	maxNameLen = 4096
	// maxRank caps a partition's rank and an iteration key's length.
	maxRank = 16
	// defaultElemCap bounds float64 payloads before any loop has been
	// defined (handshakes, benches); DefineLoop raises a fleet's cap to
	// its largest declared array.
	defaultElemCap = 1 << 20
	// hardElemCap is the absolute ceiling no configuration can raise
	// the element cap past (2^34 float64s = 128 GiB).
	hardElemCap = 1 << 34
	// frameReadChunk bounds how much a byte field grows per read while
	// its claimed length is still unverified by arrived bytes.
	frameReadChunk = 1 << 20
	// listChunk bounds, in elements, how much a counted list grows at a
	// time toward its count.
	listChunk = 1 << 16
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// elemCap is one fleet's float64 payload element cap, shared by the
// codecs of its master or of one executor. It is raised — never lowered
// — from the arrays each DefineLoop declares, on the master as it sends
// and on each executor as it receives; only that one goroutine writes
// it. A nil cap reads as defaultElemCap.
type elemCap struct{ n atomic.Int64 }

func (c *elemCap) get() uint64 {
	if c != nil {
		if v := c.n.Load(); v > defaultElemCap {
			return uint64(v)
		}
	}
	return defaultElemCap
}

// raise widens the cap to cover the largest declared array — a rotated
// partition is at most a whole array — clamped to the hard ceiling, and
// reports whether it widened.
func (c *elemCap) raise(dims map[string][]int64) (raised bool) {
	for _, ds := range dims {
		n := 1.0 // a float64 product cannot wrap
		for _, d := range ds {
			n *= float64(max(d, 1))
		}
		if v := min(n, hardElemCap); v > float64(c.get()) {
			c.n.Store(int64(v))
			raised = true
		}
	}
	return raised
}

// FrameCorruptError reports a frame that failed wire-integrity
// verification: a checksum mismatch, an out-of-sequence (duplicated or
// reordered) frame, or a field past its bound. The codec closes the
// connection before returning it — a desynchronized stream cannot be
// re-trusted — and the error unwraps to ErrWorkerLost, so every recovery
// path treats a poisoned link exactly like a lost worker: condemn the
// connection, re-form the fleet, restore the newest checkpoint, resume.
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

// VersionSkewError refuses a hello framed from another version of the
// schema table: the two builds cannot read each other's frames. The
// master answers such a hello with its own and closes the link; an
// executor reading that answer fails with this error, naming both.
type VersionSkewError struct {
	Peer, Local uint64
}

func (e *VersionSkewError) Error() string {
	return fmt.Sprintf("runtime: wire version skew: the peer speaks version %d, this build version %d", e.Peer, e.Local)
}

// codec frames messages on one connection by the schema table (a frame
// is uvarint seq · uvarint kind · the kind's row · CRC32C trailer over
// all of it), with a write lock so multiple goroutines may send on the
// same connection. stats, when set, counts messages per peer (atomic
// increments — allocation-free).
type codec struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	wmu   sync.Mutex
	stats *obs.PeerStats
	label string
	// limit is the element cap of the fleet the link belongs to.
	limit *elemCap
	// wseq/rseq are the per-direction frame sequence numbers: wseq is
	// stamped under wmu on send, rseq checked by the (single) reader.
	wseq uint64
	rseq uint64
	// wbuf stages a frame being sent, then its payload chunks (guarded by
	// wmu). The receive side keeps its own state, because a codec may
	// send and receive concurrently (the master link): rhdr holds the
	// frame bytes read but not yet folded into rcrc, rerr the frame's
	// first failure, rver the version a hello claims, and scratch stages
	// payload chunks and the trailer. names interns array names so the
	// steady-state paths allocate no strings.
	wbuf    []byte
	rhdr    []byte
	rcrc    uint32
	rerr    error
	rver    int64
	scratch []byte
	names   map[string]string
}

func newCodec(conn net.Conn) *codec {
	return &codec{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// newPeerCodec builds a codec of a fleet (cap limit) whose traffic is
// counted under the given peer label in the default obs registry:
// message counts at the codec layer, byte counts via a countingConn
// wrapped around the connection.
func newPeerCodec(conn net.Conn, label string, limit *elemCap) *codec {
	stats := obs.Peer(label)
	c := newCodec(&countingConn{Conn: conn, stats: stats})
	c.stats, c.label, c.limit = stats, label, limit
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
		Kind: obs.FlightLinkCorrupt, Clock: -1, Pass: -1, Step: -1, Worker: -1,
		Detail: label + ": " + reason,
	})
	_ = c.conn.Close()
	return &FrameCorruptError{Label: c.label, Reason: reason}
}

func (c *codec) send(m *Msg) error {
	_, err := c.write(m)
	return err
}

// write frames m by its schema row and returns the frame's wire size. A
// message its row cannot carry is an error, and nothing is sent,
// sequence number included. The row's float64 payload, if any, streams
// from its storage after the rest of the frame.
func (c *codec) write(m *Msg) (int64, error) {
	if err := m.frameable(); err != nil {
		return 0, err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	h := binary.AppendUvarint(binary.AppendUvarint(c.wbuf[:0], c.wseq), uint64(m.Kind))
	var tail []float64
	ptrs := m.fields()
	for _, col := range schema[m.Kind] {
		h, tail = col.put(h, ptrs[col.f])
	}
	c.wseq++
	c.wbuf = h[:0]
	if cap(h) > frameReadChunk {
		c.wbuf = nil // one large frame does not pin its staging for the life of the link
	}
	if _, err := c.bw.Write(h); err != nil {
		return 0, err
	}
	crc, err := c.writeFloats(crc32.Checksum(h, castagnoli), tail)
	if err != nil {
		return 0, err
	}
	// The payload is out, so the send buffer is free to stage the trailer.
	if _, err := c.bw.Write(binary.LittleEndian.AppendUint32(c.wbuf[:0], crc)); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if c.stats != nil {
		c.stats.MsgsSent.Inc()
	}
	return int64(len(h)+8*len(tail)) + frameTrailerLen, nil
}

// put appends the field p points at to a frame being staged, framed as
// c. A float64 payload (tColumn, tPart) is returned instead, to stream
// after the frame.
func (c col) put(h []byte, p any) ([]byte, []float64) {
	switch c.t {
	case tUint, tInt:
		v := int64(wireVersion) // the version's field (nil) is the table's own
		if q, ok := p.(*int); ok {
			v = int64(*q)
		} else if q, ok := p.(*int64); ok {
			v = *q
		}
		if c.t == tUint {
			return binary.AppendUvarint(h, uint64(v)), nil
		}
		return binary.AppendVarint(h, v), nil
	case tFlag:
		return putFlag(h, *p.(*bool)), nil
	case tFloat:
		return dsm.AppendFloat(h, *p.(*float64)), nil
	case tName, tText:
		return putText(h, *p.(*string)), nil
	case tBytes:
		b := *p.(*[]byte)
		return append(binary.AppendUvarint(h, uint64(len(b))), b...), nil
	case tInts:
		return putList(h, *p.(*[]int64), binary.AppendVarint), nil
	case tTexts:
		return putList(h, *p.(*[]string), putText), nil
	case tFloats:
		return putList(h, *p.(*[]float64), dsm.AppendFloat), nil
	case tGaps:
		offs := *p.(*[]int64)
		h = binary.AppendUvarint(h, uint64(len(offs)))
		prev := int64(-1)
		for _, off := range offs {
			h = binary.AppendUvarint(h, uint64(off)-uint64(prev))
			prev = off
		}
	case tColumn:
		vs := *p.(*[]float64)
		return binary.AppendUvarint(h, uint64(len(vs))), vs
	case tPart:
		return putPart(h, *p.(**dsm.Partition))
	case tParts:
		return putList(h, *p.(*[]*dsm.Partition), dsm.AppendPartition), nil
	case tSamples:
		return putList(h, *p.(*[]IterSample), func(h []byte, s IterSample) []byte {
			return dsm.AppendFloat(putList(h, s.Key, binary.AppendVarint), s.Val)
		}), nil
	case tDims:
		dims := *p.(*map[string][]int64)
		return putList(h, sortedKeys(dims), func(h []byte, k string) []byte {
			return putList(putText(h, k), dims[k], binary.AppendVarint)
		}), nil
	case tPairs:
		pairs := *p.(*map[string]string)
		return putList(h, sortedKeys(pairs), func(h []byte, k string) []byte { return putText(putText(h, k), pairs[k]) }), nil
	case tDump:
		h = putDump(h, *p.(**obs.TraceDump))
	}
	return h, nil
}

// sortedKeys orders a map's keys, so a map frames the same every time.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func putFlag(h []byte, b bool) []byte {
	if b {
		return append(h, 1)
	}
	return append(h, 0)
}

func putText(h []byte, s string) []byte {
	return append(binary.AppendUvarint(h, uint64(len(s))), s...)
}

// putList appends a uvarint count, then each element as put frames it.
func putList[T any](h []byte, vs []T, put func([]byte, T) []byte) []byte {
	h = binary.AppendUvarint(h, uint64(len(vs)))
	for _, v := range vs {
		h = put(h, v)
	}
	return h
}

// putPart appends a dense partition's header and returns its storage,
// which streams as the payload: no intermediate blob, no copy.
func putPart(h []byte, p *dsm.Partition) ([]byte, []float64) {
	if p == nil {
		return append(h, 0), nil
	}
	data, stride := p.Local.DenseData()
	h = binary.AppendUvarint(h, uint64(len(stride)))
	// The extents follow from the strides, without copying them out.
	for i := range stride {
		next := int64(len(data))
		if i+1 < len(stride) {
			next = stride[i+1]
		}
		h = binary.AppendUvarint(h, uint64(next/stride[i]))
	}
	h = binary.AppendUvarint(binary.AppendUvarint(h, uint64(p.Dim)), uint64(p.Lo))
	return binary.AppendUvarint(h, uint64(p.Hi)), data
}

func putDump(h []byte, d *obs.TraceDump) []byte {
	if d == nil {
		return append(h, 0)
	}
	h = binary.AppendUvarint(h, uint64(len(d.Bufs))+1)
	h = binary.AppendVarint(binary.AppendVarint(h, d.TracerID), d.StartUnixNs)
	for _, b := range d.Bufs {
		h = binary.AppendVarint(binary.AppendVarint(h, int64(b.Pid)), int64(b.Tid))
		h = binary.AppendUvarint(binary.AppendVarint(putText(h, b.Name), b.Dropped), uint64(len(b.Spans)))
		for _, s := range b.Spans {
			h = putText(binary.AppendVarint(putText(putText(putText(h, s.Name), s.Cat), s.K1), s.V1), s.K2)
			h = putFlag(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(h, s.V2), s.StartNs), s.DurNs), s.Instant)
		}
	}
	return h
}

func (c *codec) recv() (*Msg, error) {
	m := new(Msg)
	if err := c.recvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// recvInto decodes the next message into a caller-owned Msg, reusing
// its payload slice storage. The caller must not retain pointers into
// the Msg across calls (copy anything it keeps — see servePeer's
// rotation handling). A rotation's partition is the exception: it is
// fresh, and the caller takes it over.
//
// It is the one decoder every link's bytes reach: the frame's fields are
// read by its kind's schema row, each bounds-checked before anything is
// sized by it, and m is emptied again (a partition's storage back to the
// pool) unless the trailer and the sequence number verify, so nothing of
// a bad frame reaches the caller.
func (c *codec) recvInto(m *Msg) error {
	m.reset()
	c.rhdr, c.rcrc, c.rerr = c.rhdr[:0], 0, nil
	seq, kind := c.uvarint(), c.uvarint()
	if c.rerr == nil && kind >= uint64(len(schema)) {
		c.fail("unknown kind %d", kind)
	}
	if c.rerr == nil {
		m.Kind = MsgKind(kind)
		ptrs, offsets := m.fields(), false
		for _, col := range schema[kind] {
			offsets = offsets || col.f == fOffsets
			if col.get(c, ptrs[col.f], m, offsets); c.rerr != nil {
				break
			}
		}
	}
	if c.rerr == nil {
		c.verify(seq)
	}
	// A hello of another version is refused only once its frame verifies,
	// and only as the link's first frame: anywhere else it is corruption.
	if c.rerr == nil && m.Kind == MsgHello && c.rver != wireVersion {
		if seq != 0 {
			c.fail("a hello of version %d after the handshake", c.rver)
		} else {
			c.rerr = &VersionSkewError{Peer: uint64(c.rver), Local: wireVersion}
		}
	}
	if err := c.rerr; err != nil {
		if m.part != nil {
			data, _ := m.part.Local.DenseData()
			bufpool.PutF64(data)
		}
		m.reset()
		return err
	}
	if c.stats != nil {
		c.stats.MsgsRecv.Inc()
	}
	return nil
}

// get decodes the field p points at, framed as c, into m. withOffsets
// says the row carries offsets ahead of it, which a value column then
// matches one for one.
func (c col) get(d *codec, p any, m *Msg, withOffsets bool) {
	switch c.t {
	case tUint, tInt:
		v := d.int(c.t)
		if q, ok := p.(*int); ok {
			*q = int(v)
		} else if q, ok := p.(*int64); ok {
			*q = v
		} else {
			d.rver = v // the version's field (nil): judged once the frame verifies
		}
	case tFlag:
		*p.(*bool) = d.flag()
	case tFloat:
		*p.(*float64) = d.float()
	case tName:
		*p.(*string) = d.text(maxNameLen)
	case tText:
		*p.(*string) = d.text(maxCount)
	case tBytes:
		n := d.count(maxCount, "byte length")
		d.fold()
		b := d.read(nil, n)
		d.rcrc = crc32.Update(d.rcrc, castagnoli, b)
		*p.(*[]byte) = b
	case tInts:
		q := p.(*[]int64)
		*q = d.ints((*q)[:0], maxCount)
	case tTexts:
		*p.(*[]string) = list(d, nil, maxCount, func() string { return d.text(maxCount) })
	case tFloats:
		*p.(*[]float64) = list(d, nil, maxCount, d.float)
	case tGaps:
		q := p.(*[]int64)
		*q = d.gaps((*q)[:0])
	case tColumn:
		q := p.(*[]float64)
		n := d.count(d.limit.get(), "value count")
		if withOffsets && n != len(m.Offsets) {
			d.fail("%d values for %d offsets", n, len(m.Offsets))
		}
		*q = d.column((*q)[:0], n)
	case tPart:
		*p.(**dsm.Partition) = d.part(m.Array)
	case tParts:
		// A rotated partition is at most a declared array; the others
		// may arrive before any DefineLoop declares one.
		limit := uint64(maxCount)
		if m.Kind == MsgRotate {
			limit = d.limit.get()
		}
		*p.(*[]*dsm.Partition) = list(d, nil, maxCount, func() *dsm.Partition {
			p, err := dsm.ReadPartition(d, limit)
			d.check(err)
			return p
		})
	case tSamples:
		// The keys are cut from arenas that double up to a chunk and are
		// never copied: a full one stays with the keys cut from it.
		var arena []int64
		key := make([]int64, 0, maxRank)
		*p.(*[]IterSample) = list(d, nil, maxCount, func() IterSample {
			if key = d.ints(key[:0], maxRank); cap(arena)-len(arena) < len(key) {
				arena = make([]int64, 0, max(len(key), min(2*cap(arena), listChunk)))
			}
			arena = append(arena, key...)
			return IterSample{Key: arena[len(arena)-len(key) : len(arena) : len(arena)], Val: d.float()}
		})
	case tDims:
		*p.(*map[string][]int64) = keyed(d, func() []int64 { return d.ints(nil, maxRank) })
	case tPairs:
		*p.(*map[string]string) = keyed(d, func() string { return d.text(maxCount) })
	case tDump:
		*p.(**obs.TraceDump) = d.dump()
	}
}

// fail condemns the link for the frame being read, unless it already
// failed.
func (c *codec) fail(format string, args ...any) {
	if c.rerr == nil {
		c.rerr = c.condemn(fmt.Sprintf(format, args...))
	}
}

// ReadByte reads one frame byte into the bytes not yet checksummed, so
// the checksum covers what was actually read (re-encoding would
// silently accept non-canonical forms); they are checksummed a chunk at
// a time, so a long record keeps no copy of its frame. It reads nothing
// once the frame has failed.
func (c *codec) ReadByte() (byte, error) {
	if c.rerr != nil {
		return 0, c.rerr
	}
	b, err := c.br.ReadByte()
	if err != nil {
		c.rerr = err
		return 0, err
	}
	if len(c.rhdr) >= frameReadChunk {
		c.fold()
	}
	c.rhdr = append(c.rhdr, b)
	return b, nil
}

// uvarint reads one uvarint of the frame. It and the readers below read
// nothing once the frame has failed.
func (c *codec) uvarint() uint64 {
	v, err := binary.ReadUvarint(c)
	c.check(err)
	return v
}

// check condemns the link for a field that does not decode; a read
// error is already the frame's.
func (c *codec) check(err error) {
	if err != nil {
		c.fail("malformed field: %v", err)
	}
}

// count reads a count or length, condemning one past limit.
func (c *codec) count(limit uint64, what string) int {
	n := c.uvarint()
	if n > limit {
		c.fail("%s %d exceeds the %d cap", what, n, limit)
		return 0
	}
	return int(n)
}

func (c *codec) int(t wireType) int64 {
	v := c.uvarint()
	if t == tInt {
		return int64(v>>1) ^ -int64(v&1)
	}
	if v > math.MaxInt64 {
		c.fail("%d overflows int64", v)
	}
	return int64(v)
}

func (c *codec) flag() bool {
	v := c.uvarint()
	if v > 1 {
		c.fail("flag %d is neither 0 nor 1", v)
	}
	return v == 1
}

func (c *codec) float() float64 {
	v, err := dsm.ReadFloat(c)
	c.check(err)
	return v
}

// text reads a string of at most limit bytes; a name's (maxNameLen) is
// interned.
func (c *codec) text(limit uint64) string {
	n := c.count(limit, "string length")
	start := len(c.rhdr)
	if c.rhdr = c.read(c.rhdr, n); limit == maxNameLen {
		return c.intern(c.rhdr[start:])
	}
	return string(c.rhdr[start:])
}

func (c *codec) ints(dst []int64, limit uint64) []int64 {
	return list(c, dst, limit, func() int64 { return c.int(tInt) })
}

// list appends up to limit elements, counted by a uvarint and each read
// by get, to dst. It grows dst toward the count a chunk at a time, so a
// long list keeps no doubled copy of itself.
func list[T any](c *codec, dst []T, limit uint64, get func() T) []T {
	for i, n := 0, c.count(limit, "list count"); i < n && c.rerr == nil; i++ {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(n-i, listChunk))
		}
		dst = append(dst, get())
	}
	return dst
}

// keyed reads a record list of keys, each with a value read by get, into
// a map (nil when empty).
func keyed[V any](c *codec, get func() V) map[string]V {
	var m map[string]V
	for i, n := 0, c.count(maxCount, "record count"); i < n && c.rerr == nil; i++ {
		if m == nil {
			m = map[string]V{}
		}
		k := c.text(maxCount)
		m[k] = get()
	}
	return m
}

// gaps reads ascending offsets: every gap is at least 1 and keeps the
// offset within int64.
func (c *codec) gaps(offs []int64) []int64 {
	// next is one past the previous offset: the first gap counts from -1.
	next := uint64(0)
	for i, n := 0, c.count(c.limit.get(), "offset count"); i < n && c.rerr == nil; i++ {
		if gap := c.uvarint(); gap == 0 || gap > 1<<63-next {
			c.fail("offset gap %d after offset %d", gap, int64(next)-1)
		} else {
			next += gap
			offs = append(offs, int64(next-1))
		}
	}
	return offs
}

// read appends n frame bytes to dst, growing it a chunk at a time as
// they arrive, so a forged length costs at most one chunk beyond what
// the peer really sent.
func (c *codec) read(dst []byte, n int) []byte {
	for want := len(dst) + n; len(dst) < want && c.rerr == nil; {
		old := len(dst)
		k := min(want-old, frameReadChunk)
		dst = slices.Grow(dst, k)[:old+k]
		if _, err := io.ReadFull(c.br, dst[old:]); err != nil {
			c.rerr = err
		}
	}
	return dst
}

// column reads n little-endian float64s into vals, grown a chunk at a
// time as their bytes arrive.
func (c *codec) column(vals []float64, n int) []float64 {
	c.fold()
	for len(vals) < n && c.rerr == nil {
		old := len(vals)
		k := min(n-old, rawChunkElems)
		vals = slices.Grow(vals, k)[:old+k]
		c.readFloats(vals[old:])
	}
	return vals
}

// part reads a rotated partition of array into storage from bufpool,
// sized by an extent product that clears the fleet's element cap.
func (c *codec) part(array string) *dsm.Partition {
	rank := c.count(maxRank, "partition rank")
	if rank == 0 {
		return nil
	}
	var shape [maxRank]int64
	dims, extent := shape[:rank], uint64(1)
	for i := range dims {
		// Every extent is positive, as a DistArray's are, and extent * d
		// stays within the hard cap, so the product cannot wrap.
		d := c.uvarint()
		if c.rerr == nil && (d == 0 || d > hardElemCap || extent > hardElemCap/d) {
			c.fail("partition extent %d x %d outside 1..%d", extent, d, uint64(hardElemCap))
		}
		dims[i], extent = int64(d), extent*d
	}
	dim, lo, hi := c.uvarint(), c.uvarint(), c.uvarint()
	if c.rerr != nil {
		return nil
	}
	// The range spans the extent along its dimension, as a partition's
	// does (an empty range keeps extent 1).
	if span := hi - lo; dim >= uint64(rank) || lo > hi || hi > math.MaxInt64 || span != uint64(dims[dim]) && !(span == 0 && dims[dim] == 1) {
		c.fail("partition range [%d, %d) along dimension %d does not span its extent", lo, hi, dim)
		return nil
	}
	if cp := c.limit.get(); extent > cp {
		c.fail("partition of %d elements exceeds the configured cap %d", extent, cp)
		return nil
	}
	vals := bufpool.GetF64(int(extent))
	c.fold()
	if c.readFloats(vals); c.rerr != nil {
		bufpool.PutF64(vals)
		return nil
	}
	return dsm.NewDenseFrom(array, vals, int(dim), int64(lo), int64(hi), dims...)
}

func (c *codec) dump() *obs.TraceDump {
	n := c.count(maxCount, "trace buffer count")
	if n == 0 {
		return nil
	}
	d := &obs.TraceDump{TracerID: c.int(tInt), StartUnixNs: c.int(tInt)}
	for i := 1; i < n && c.rerr == nil; i++ {
		b := obs.BufDump{Pid: int(c.int(tInt)), Tid: int(c.int(tInt)), Name: c.text(maxCount), Dropped: c.int(tInt)}
		for j, ns := 0, c.count(maxCount, "span count"); j < ns && c.rerr == nil; j++ {
			b.Spans = append(b.Spans, obs.SpanRec{Name: c.text(maxCount), Cat: c.text(maxCount), K1: c.text(maxCount), V1: c.int(tInt),
				K2: c.text(maxCount), V2: c.int(tInt), StartNs: c.int(tInt), DurNs: c.int(tInt), Instant: c.flag()})
		}
		d.Bufs = append(d.Bufs, b)
	}
	return d
}

// fold checksums the frame bytes read so far, before a payload is read
// past them.
func (c *codec) fold() {
	c.rcrc = crc32.Update(c.rcrc, castagnoli, c.rhdr)
	c.rhdr = c.rhdr[:0]
}

// verify reads the received frame's trailer, staged through the receive
// scratch, and checks it and the frame's sequence number, condemning the
// link on a mismatch.
func (c *codec) verify(seq uint64) {
	c.fold()
	tr := chunkBuf(&c.scratch)[:frameTrailerLen]
	if _, err := io.ReadFull(c.br, tr); err != nil {
		c.rerr = err
	} else if got := binary.LittleEndian.Uint32(tr); got != c.rcrc {
		c.fail("checksum mismatch (wire %08x, computed %08x)", got, c.rcrc)
	} else if seq != c.rseq {
		c.fail("frame out of sequence (got %d, want %d): duplicated or reordered delivery", seq, c.rseq)
	} else {
		c.rseq++
	}
}

// rawChunkElems is how many float64s a payload stages through the codec
// scratch per conversion pass on both send and receive. Staging is a
// codec-local detail — the payload is one contiguous byte stream, so the
// two ends of a link may chunk it differently. At 4096 the buffer-flush
// rendezvous are few enough that they more than pay for the CRC32C pass
// over the same bytes.
const rawChunkElems = 4096

// sendRotation ships one rotated partition to the peer: a dense one's
// storage streams as the frame's payload, a sparse one travels as its
// record. Returns the frame's wire size in bytes.
func (c *codec) sendRotation(array string, p *dsm.Partition) (int64, error) {
	if p.Local.IsDense() {
		return c.write(&Msg{Kind: MsgRotate, Array: array, part: p})
	}
	return c.write(&Msg{Kind: MsgRotate, Array: array, Parts: []*dsm.Partition{p}})
}

// chunkBuf returns *b, grown if need be, as one staging chunk of
// rawChunkElems float64s.
func chunkBuf(b *[]byte) []byte {
	if cap(*b) < rawChunkElems*8 {
		*b = make([]byte, rawChunkElems*8)
	}
	return (*b)[:rawChunkElems*8]
}

// writeFloats writes vals as little-endian float64s staged through the
// send buffer, folding the bytes into crc. The caller holds wmu and has
// already written the frame's header.
func (c *codec) writeFloats(crc uint32, vals []float64) (uint32, error) {
	buf := chunkBuf(&c.wbuf)
	for off := 0; off < len(vals); off += rawChunkElems {
		n := min(len(vals)-off, rawChunkElems)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vals[off+i]))
		}
		crc = crc32.Update(crc, castagnoli, buf[:n*8])
		if _, err := c.bw.Write(buf[:n*8]); err != nil {
			return crc, err
		}
	}
	return crc, nil
}

// readFloats fills vals with little-endian float64s staged through the
// receive scratch, folding the bytes into the frame's checksum.
func (c *codec) readFloats(vals []float64) {
	buf := chunkBuf(&c.scratch)
	for off := 0; off < len(vals) && c.rerr == nil; off += rawChunkElems {
		n := min(len(vals)-off, rawChunkElems)
		if _, err := io.ReadFull(c.br, buf[:n*8]); err != nil {
			c.rerr = err
			return
		}
		c.rcrc = crc32.Update(c.rcrc, castagnoli, buf[:n*8])
		for i := 0; i < n; i++ {
			vals[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
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
