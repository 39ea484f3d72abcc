package runtime

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
)

// Executor is one Orion worker process: it holds DistArray partitions,
// executes kernel blocks on command from the master, rotates
// time-partitioned arrays around the executor ring, and proxies
// parameter-server traffic.
type Executor struct {
	id       int
	master   *codec
	peerAddr string
	peerLn   net.Listener

	// parts holds what this executor holds of each array placed on it
	// as partitions (MsgArrayPart); served arrays live in shards.
	parts map[string]*heldArray
	// iter is this executor's share of the iteration space. It stays
	// until the next MsgIterPart replaces it, across loops.
	iter *iterPart
	// compile builds kernel sets from DefineLoop messages: the process
	// default when the executor was created (SetLoopCompiler).
	compile LoopCompiler
	// loop is the kernel set compiled from the latest DefineLoop, the
	// only one a block runs: the master runs no other (Master.loop), so
	// a new definition retires the previous one. prefetched names its
	// Prefetch targets in the order a block fetches them.
	loop       *KernelSet
	prefetched []string
	// rotateCh carries what the neighbour shipping to this executor over
	// its peer link sends, in order, and then its loss as a lost MsgError
	// should the link fail.
	rotateCh chan *Msg
	// Scratch: a block's prefetch offsets, its flush, and shard replies.
	prefetchOffs []int64
	flushOffs    []int64
	flushVals    []float64
	rpcResp      Msg

	// The master connection is read by a dedicated reader goroutine
	// (readMaster): commands flow to cmdCh, and then the link's loss as a
	// lost MsgError should it fail — so the main loop or a rotation wait
	// unblocks promptly when the master aborts. stop closes when the run
	// loop has exited, releasing the goroutines that feed it.
	cmdCh chan *Msg
	stop  chan struct{}

	// accepted tracks the peer links this executor accepted (each
	// neighbour's and shard client's), closed on exit so aborted
	// sessions leak nothing.
	acceptedMu sync.Mutex
	accepted   []net.Conn

	ctx    *Ctx
	shards *shardSet
	// limit is this executor's frame element cap, which its DefineLoops
	// raise; every codec of its links reads it.
	limit elemCap

	// pingOverride, when non-zero, replaces the default heartbeat
	// ping interval (SetPingInterval / orion-worker -heartbeat).
	pingOverride time.Duration

	// Observability: the main goroutine's span ring (nil when tracing is
	// off — all methods no-op) and cached metric handles. Counters are
	// atomic adds on preallocated cells, so the steady-state block loop
	// stays allocation-free whether or not obs is enabled.
	trace      *obs.TraceBuf
	mBlocks    *obs.Counter
	mIters     *obs.Counter
	mRotWait   *obs.Histogram
	mRotBytes  *obs.Counter
	mRotRaw    *obs.Counter
	mRotRecord *obs.Counter
	mPrefHit   *obs.Counter
	mPrefMiss  *obs.Counter
	// mPrefReuse counts (block, served array) prefetches answered from
	// the block's cached offsets instead of evaluating the slice.
	mPrefReuse *obs.Counter

	done chan error
}

// NewExecutor connects an executor to the master. peerAddr is this
// executor's peer endpoint; it must be unique per executor. An id of
// -1 asks the master to assign one (rejoining workers after a
// recovery); the assignment arrives in the setup message.
func NewExecutor(t Transport, masterAddr, peerAddr string, id int) (*Executor, error) {
	e := &Executor{
		id:         id,
		shards:     newShardSet(t, id),
		peerAddr:   peerAddr,
		parts:      map[string]*heldArray{},
		iter:       newIterPart(nil),
		rotateCh:   make(chan *Msg, 16),
		cmdCh:      make(chan *Msg, 16),
		stop:       make(chan struct{}),
		done:       make(chan error, 1),
		trace:      obs.NewBuf(id+1, fmt.Sprintf("exec%d", id)),
		mBlocks:    obs.GetCounter("kernel.blocks"),
		mIters:     obs.GetCounter("kernel.iterations"),
		mRotWait:   obs.GetHistogram("rotation.wait.ns"),
		mRotBytes:  obs.GetCounter("rotation.bytes.sent"),
		mRotRaw:    obs.GetCounter("rotation.frames.raw"),
		mRotRecord: obs.GetCounter("rotation.frames.record"),
		mPrefHit:   obs.GetCounter("prefetch.hit"),
		mPrefMiss:  obs.GetCounter("prefetch.miss"),
		mPrefReuse: obs.GetCounter("exec.prefetch_index_reuse"),
	}
	e.ctx = &Ctx{exec: e, served: map[string]*ServedArray{}, accums: map[string]*float64{}}
	e.shards.limit = &e.limit
	if c := defaultCompiler.Load(); c != nil {
		e.compile = *c
	}
	ln, err := t.Listen(peerAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: executor %d peer listen: %w", id, err)
	}
	e.peerLn = ln
	conn, err := t.Dial(masterAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("runtime: executor %d dial master: %w", id, err)
	}
	e.master = newPeerCodec(conn, fmt.Sprintf("exec%d/master", id), &e.limit)
	// Report the resolved listen address: with ":0" TCP ports the bound
	// address differs from the requested one.
	if err := e.master.send(&Msg{Kind: MsgHello, ExecutorID: id, PeerAddr: ln.Addr().String()}); err != nil {
		ln.Close()
		e.master.close()
		return nil, err
	}
	return e, nil
}

// SetPingInterval overrides the default heartbeat ping interval
// for this executor (zero keeps the default). Pair it with the
// master's SetHeartbeat staleness timeout — the timeout should be at
// least ~3 ping intervals, or healthy workers read as stale. Call
// before Start.
func (e *Executor) SetPingInterval(d time.Duration) { e.pingOverride = d }

// Start runs the executor's message loop in a goroutine. The returned
// channel yields the loop's exit error (nil on clean shutdown).
func (e *Executor) Start() <-chan error {
	go func() { e.done <- e.run() }()
	return e.done
}

// readMaster is the dedicated master-connection reader: it queues
// commands for the main loop, and a failed link as a lost MsgError, its
// last — as Master.handleConn does on the other end.
func (e *Executor) readMaster() {
	for {
		msg, err := e.master.recv()
		if err != nil {
			msg = &Msg{Kind: MsgError, Err: err.Error(), Lost: true}
		}
		select {
		case e.cmdCh <- msg:
		case <-e.stop:
			return
		}
		if err != nil || msg.Kind == MsgShutdown {
			return
		}
	}
}

// errShutdown ends a rotation wait that a shutdown interrupted: the run
// loop exits as on a shutdown between blocks.
var errShutdown = errors.New("runtime: shut down")

// heartbeat sends MsgPing every interval until the executor stops. The
// codec's write lock makes concurrent sends with the main loop safe.
func (e *Executor) heartbeat(interval time.Duration) {
	//lint:ignore timenow the ping ticker: liveness the master's armed read deadline waits for
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := e.master.send(&Msg{Kind: MsgPing}); err != nil {
				return
			}
		case <-e.stop:
			return
		}
	}
}

func (e *Executor) run() (err error) {
	defer e.peerLn.Close()
	defer e.master.close()
	defer e.closeAccepted()
	// Ensure anything still blocked on this executor unwinds when the
	// run loop exits for any reason.
	defer close(e.stop)
	// Receive topology first (directly — the reader goroutine starts
	// after setup so id adoption happens before concurrent use).
	setup, err := e.master.recv()
	if err != nil {
		return err
	}
	if setup.Kind != MsgSetup {
		return fmt.Errorf("runtime: executor %d: expected setup, got %v", e.id, setup.Kind)
	}
	// From here the master reads this link: an executor that exits on an
	// error tells it why, before the link closes. The master names the
	// link, so the text drops this executor's own prefix. Where the link
	// is what failed, the report goes nowhere.
	defer func() {
		if err != nil {
			text := strings.TrimPrefix(err.Error(), fmt.Sprintf("runtime: executor %d: ", e.id))
			e.master.send(&Msg{Kind: MsgError, Err: text, Lost: isLost(err)})
		}
	}()
	if setup.Trace && !obs.Tracing() {
		// The master is tracing: enable tracing in this process so the
		// span rings exist when it collects them. In-process executors
		// share the master's already-installed tracer and skip this.
		obs.StartTracing()
		e.trace = nil // re-created below against the fresh tracer
	}
	if setup.ExecutorID != e.id {
		// Master-assigned id: the hello carried -1.
		e.id = setup.ExecutorID
		e.shards.selfID = e.id
		e.trace = obs.NewBuf(e.id+1, fmt.Sprintf("exec%d", e.id))
	}
	if e.trace == nil && obs.Tracing() {
		e.trace = obs.NewBuf(e.id+1, fmt.Sprintf("exec%d", e.id))
	}
	n := len(setup.Peers)
	e.shards.peers = setup.Peers
	defer e.shards.closeAll()
	// Accept peer connections in the background: rotation and wavefront
	// hand-offs plus parameter-server shard RPCs.
	go e.acceptPeers()
	hbInterval := pingInterval
	if e.pingOverride > 0 {
		hbInterval = e.pingOverride
	}
	go e.heartbeat(hbInterval)
	go e.readMaster()

	for {
		msg := <-e.cmdCh
		switch msg.Kind {
		case MsgArrayPart:
			if err := e.install(msg); err != nil {
				return err
			}
		case MsgIterPart:
			e.iter = newIterPart(msg.Samples)
		case MsgServedShard:
			if len(msg.Parts) != 1 || msg.Parts[0].Dim != msg.Parts[0].Local.NumDims()-1 {
				return fmt.Errorf("runtime: executor %d: a served shard of %d partitions, not one cut along its last dimension", e.id, len(msg.Parts))
			}
			e.shards.install(msg.Offsets, msg.Parts[0])
			// An array is placed one way at a time: a partition an
			// earlier loop left here must not shadow the shard.
			delete(e.parts, msg.Parts[0].Array)
			if err := e.master.send(&Msg{Kind: MsgAck}); err != nil {
				return err
			}
		case MsgDefineLoop:
			// The declared arrays bound what a legitimate rotation or
			// served frame can carry — raise this executor's element cap
			// to match.
			e.limit.raise(msg.ArrayDims)
			if e.compile == nil {
				return fmt.Errorf("runtime: executor %d: no loop compiler installed on this executor", e.id)
			}
			ks, err := e.compile(msg)
			if err != nil {
				return err
			}
			e.loop = ks
			e.prefetched = e.prefetched[:0]
			for array := range ks.Prefetch {
				e.prefetched = append(e.prefetched, array)
			}
			slices.Sort(e.prefetched)
		case MsgExecBlock:
			if err := e.execBlock(msg, n); err == errShutdown {
				return nil
			} else if err != nil {
				return err
			}
		case MsgGather:
			var ps []*dsm.Partition
			if h := e.parts[msg.Array]; h != nil {
				ps = h.parts
			} else if p := e.shards.gatherLocal(msg.Array); p != nil {
				// A gather folds every staged served update first: the
				// barrier already guaranteed all of them arrived.
				ps = []*dsm.Partition{p}
			} else {
				return fmt.Errorf("runtime: executor %d: gather of unknown array %q", e.id, msg.Array)
			}
			if err := e.master.send(&Msg{Kind: MsgGatherResp, Parts: ps}); err != nil {
				return err
			}
		case MsgAccumQuery:
			v := *e.ctx.Accum(msg.AccName)
			if err := e.master.send(&Msg{Kind: MsgAccumResp, AccValue: v}); err != nil {
				return err
			}
		case MsgTraceSync:
			// Clock-sync handshake: stamp our wall clock as late as
			// possible before the send.
			if err := e.master.send(&Msg{Kind: MsgTraceSync, T1: time.Now().UnixNano()}); err != nil {
				return err
			}
		case MsgTraceDump:
			if err := e.master.send(e.traceDump(msg.TracerID)); err != nil {
				return err
			}
		case MsgAck:
			// A barrier: everything the master sent before it is handled.
			if err := e.master.send(&Msg{Kind: MsgAck}); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		case MsgError:
			// readMaster's report of a failed link; the master never sends
			// one, so one on the wire is a broken link too.
			return fmt.Errorf("runtime: executor %d: master connection lost (%s): %w", e.id, msg.Err, ErrWorkerLost)
		default:
			return fmt.Errorf("runtime: executor %d: unexpected message %v", e.id, msg.Kind)
		}
	}
}

// isLost reports whether an executor-side error stems from a broken
// connection (to the master or a peer) rather than a
// kernel failure — the distinction the master needs to decide between
// recovery and fail-fast.
func isLost(err error) bool { return errors.Is(err, ErrWorkerLost) }

func (e *Executor) acceptPeers() {
	for {
		conn, err := e.peerLn.Accept()
		if err != nil {
			return
		}
		e.acceptedMu.Lock()
		e.accepted = append(e.accepted, conn)
		e.acceptedMu.Unlock()
		c := newCodec(conn)
		c.limit = &e.limit
		go e.servePeer(c)
	}
}

func (e *Executor) closeAccepted() {
	e.acceptedMu.Lock()
	conns := e.accepted
	e.accepted = nil
	e.acceptedMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// servePeer handles one incoming peer connection: rotation payloads are
// queued for the main loop; parameter-server shard RPCs are answered
// directly from this goroutine, so an executor serves reads and updates
// even while its own main loop is mid-block.
func (e *Executor) servePeer(c *codec) {
	defer c.close()
	// in, out and vals live for the connection: recvInto reuses in's
	// payload slice storage and each read's answer reuses vals, so the
	// steady-state prefetch/update serving path does not allocate a
	// fresh Msg pair or answer per request.
	var in, out Msg
	var vals []float64
	feedsRotation := false
	for {
		if err := c.recvInto(&in); err != nil {
			if feedsRotation {
				// The neighbour shipping to us died: a rotation wait would
				// hang forever — surface the loss after what it shipped.
				select {
				case e.rotateCh <- &Msg{Kind: MsgError, Err: err.Error(), Lost: true}:
				case <-e.stop:
				}
			}
			return
		}
		switch in.Kind {
		case MsgRotate:
			feedsRotation = true
			// The rotation pipeline keeps the partitions: they leave with
			// a Msg of their own, decoded with the frame.
			fwd := &Msg{Kind: MsgRotate, Array: in.Array, Parts: in.Parts, part: in.part}
			select {
			case e.rotateCh <- fwd:
			case <-e.stop:
				return
			}
		case MsgPrefetch:
			var err error
			if vals, err = e.shards.serveRead(vals[:0], in.Array, in.Offsets, in.Epoch); err != nil {
				out = Msg{Kind: MsgError, Err: err.Error()}
				c.send(&out)
				continue
			}
			// The requester holds the offsets; the values answer them in order.
			out = Msg{Kind: MsgPrefetchResp, Values: vals}
			c.send(&out)
		case MsgUpdateBatch:
			if err := e.shards.serveUpdate(in.Array, in.ExecutorID, in.Offsets, in.Values, in.Absolute, in.Epoch); err != nil {
				out = Msg{Kind: MsgError, Err: err.Error()}
				c.send(&out)
				continue
			}
			out = Msg{Kind: MsgAck}
			c.send(&out)
		}
	}
}

// partition returns the partition of array the running block sees (nil
// when it sees none).
func (e *Executor) partition(array string) *dsm.Partition {
	if h := e.parts[array]; h != nil {
		return h.bound
	}
	return nil
}

// execBlock runs the kernel over this executor's samples whose time
// coordinate falls inside the block, then rotates. Section timings are
// always collected (plain time.Now reads, no allocations) and feed the
// per-loop execution report; spans are additionally recorded when
// tracing is on.
func (e *Executor) execBlock(msg *Msg, n int) error {
	blockStart := time.Now()
	var commNs, rotWaitNs int64
	ks := e.loop
	if ks == nil {
		return fmt.Errorf("runtime: executor %d: no loop is defined here", e.id)
	}
	block := e.iter.block(blockKey{timeDim: msg.TimeDim, lo: msg.TimeLo, hi: msg.TimeHi, ordered: msg.Ordered})
	keys, vals := block.keys, block.vals
	e.bind(msg.TimeLo, msg.TimeHi)

	// Advance the block clock before anything kernel-visible runs:
	// randomness reseeds per (loop, executor, pass, step), so a
	// recovered run replays a block with exactly the fault-free draw
	// sequence.
	e.ctx.blockPass = msg.Pass
	e.ctx.blockStep = msg.StepIndex
	e.ctx.stepEpoch = msg.Epoch

	// Bulk prefetch: evaluate the synthesized prefetch functions over
	// the block and fetch the union of needed offsets per served array.
	for _, sa := range e.ctx.servedOrder {
		sa.beginBlock(prefetchIndex{})
	}
	for _, array := range e.prefetched {
		idx := block.prefetch[array]
		if ks.PrefetchID != "" && idx.id == ks.PrefetchID {
			e.mPrefReuse.Inc()
		} else {
			fn := ks.Prefetch[array]
			offs := e.prefetchOffs[:0]
			for i, key := range keys {
				offs = append(offs, fn(key, vals[i])...)
			}
			slices.Sort(offs)
			e.prefetchOffs = offs
			idx = newPrefetchIndex(ks.PrefetchID, slices.Clone(slices.Compact(offs)))
			if idx.id != "" {
				// Kept for the next pass or loop over this block.
				block.prefetch[array] = idx
			}
		}
		if len(idx.offs) == 0 {
			continue
		}
		fetchStart := time.Now()
		if err := e.bulkFetch(e.ctx.Served(array), idx); err != nil {
			return err
		}
		commNs += int64(time.Since(fetchStart))
		e.trace.EndN("exec.prefetch", "exec", fetchStart, "offsets", int64(len(idx.offs)))
	}

	kernelStart := time.Now()
	err := e.runKernel(ks, keys, vals)
	// The block's served reads reach the process-wide counters here, not
	// one shared atomic at a time from inside the kernel.
	var misses int64
	for _, sa := range e.ctx.servedOrder {
		e.mPrefHit.Add(sa.hits)
		e.mPrefMiss.Add(sa.misses)
		misses += sa.misses
		sa.hits, sa.misses = 0, 0
	}
	if err != nil {
		return err
	}
	// Synthetic straggler injection (SetBlockDelay): sleep inside the
	// compute-timing window so the skew is visible to LoopReports.
	if d := blockDelay(e.id, len(keys)); d > 0 {
		//lint:ignore timenow the injected block delay, a Chaos fault once ROADMAP item 24 lands
		time.Sleep(d)
	}
	computeNs := int64(time.Since(kernelStart))
	e.trace.EndN("exec.kernel", "exec", kernelStart, "iters", int64(len(keys)))

	// Ship buffered parameter-server writes to their shard owners, in
	// array-name order: absolute writes first, then additive deltas.
	flushStart := time.Now()
	flushed := 0
	for _, sa := range e.ctx.servedOrder {
		if sa.nSet == 0 && sa.nUpd == 0 {
			continue
		}
		if err := e.flushServed(sa, true); err != nil {
			return err
		}
		if err := e.flushServed(sa, false); err != nil {
			return err
		}
		flushed++
	}
	if flushed > 0 {
		commNs += int64(time.Since(flushStart))
		e.trace.EndN("exec.flush", "exec", flushStart, "arrays", int64(flushed))
	}

	// Move time-partitioned arrays on: around the unordered ring, or
	// down the ordered wavefront.
	if n > 1 && (msg.Rotated || msg.Ordered) {
		sendNs, waitNs, err := e.rotate(msg.Rotated, n)
		if err != nil {
			return err
		}
		commNs, rotWaitNs = commNs+sendNs, waitNs
	}

	e.mBlocks.Inc()
	e.mIters.Add(int64(len(keys)))
	e.mRotWait.Observe(rotWaitNs)
	e.trace.EndNN("exec.block", "exec", blockStart, "iters", int64(len(keys)), "step", int64(msg.StepIndex))

	return e.master.send(&Msg{
		Kind: MsgBlockDone, AccValue: float64(misses),
		StatIters:     int64(len(keys)),
		StatComputeNs: computeNs,
		StatRotWaitNs: rotWaitNs,
		StatCommNs:    commNs,
	})
}

// runKernel executes the loop body over a block in one call. A fault
// the body returns or panics with (a shipped loop body failing at
// runtime, or a served read whose shard owner died) becomes an error the
// master can surface instead of a dead executor hanging the barrier.
func (e *Executor) runKernel(ks *KernelSet, keys [][]int64, vals []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = e.kernelFault(r)
		}
	}()
	if _, err := ks.Block(e.ctx, keys, vals); err != nil {
		return e.kernelFault(err)
	}
	return nil
}

// kernelFault wraps whatever stopped a kernel. A broken peer link
// keeps its ErrWorkerLost identity so the master starts checkpoint
// recovery; anything else is a program fault.
func (e *Executor) kernelFault(r any) error {
	if err, ok := r.(error); ok && isLost(err) {
		return fmt.Errorf("runtime: executor %d: kernel aborted: %w", e.id, err)
	}
	return fmt.Errorf("runtime: executor %d: kernel panicked: %v", e.id, r)
}

// servedTable returns a served array's shard table. Served arrays live
// only on executor shards (Master.DistributeServed), so a missing table
// is a driver error.
func (e *Executor) servedTable(array string) (*shardTable, error) {
	if t := e.shards.table(array); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("runtime: executor %d: served array %q has no shards (Master.DistributeServed)", e.id, array)
}

// shardRPC sends one request to shard owner o and returns its reply,
// which stays valid until the next call. A dial, send or receive
// failure means the owner is gone — a worker loss, not a kernel bug.
func (e *Executor) shardRPC(o int, req *Msg) (*Msg, error) {
	c, err := e.shards.client(o)
	if err == nil {
		err = c.send(req)
	}
	if err == nil {
		err = c.recvInto(&e.rpcResp)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: executor %d: shard owner %d unreachable (%v): %w", e.id, o, err, ErrWorkerLost)
	}
	return &e.rpcResp, nil
}

// bulkFetch makes idx the served array's table for the block and fills
// it with the values at the step's epoch, one request per shard owner
// (the local shard short-circuits). The offsets ascend and shards are
// ranges, so each owner's offsets are one run of them, sent as they lie.
func (e *Executor) bulkFetch(sa *ServedArray, idx prefetchIndex) error {
	t, err := e.servedTable(sa.name)
	if err != nil {
		return err
	}
	sa.beginBlock(idx)
	for lo := 0; lo < len(idx.offs); {
		o, n := t.ownedRun(idx.offs[lo:])
		chunk := idx.offs[lo : lo+n]
		if o == e.id {
			// Appended to an empty slice of the table, the values land in
			// their slots.
			if _, err := e.shards.serveRead(sa.vals[lo:lo], sa.name, chunk, e.ctx.stepEpoch); err != nil {
				return err
			}
		} else {
			resp, err := e.shardRPC(o, &Msg{Kind: MsgPrefetch, Array: sa.name, Offsets: chunk, Epoch: e.ctx.stepEpoch})
			if err != nil {
				return err
			}
			if resp.Kind != MsgPrefetchResp {
				return fmt.Errorf("runtime: executor %d: shard owner %d: %s", e.id, o, resp.Err)
			}
			if len(resp.Values) != n {
				return fmt.Errorf("runtime: executor %d: shard owner %d answered %d of %d prefetched offsets", e.id, o, len(resp.Values), n)
			}
			copy(sa.vals[lo:], resp.Values)
		}
		lo += n
	}
	return nil
}

// flushServed ships the block's absolute writes or its deltas to the
// shard owners in ascending offset order, each owner's run as one batch
// (which holds each offset once, so its order changes no folded bit),
// awaiting acknowledgments so the master barrier implies visibility.
func (e *Executor) flushServed(sa *ServedArray, absolute bool) error {
	if absolute && sa.nSet == 0 || !absolute && sa.nUpd == 0 {
		return nil
	}
	t, err := e.servedTable(sa.name)
	if err != nil {
		return err
	}
	offs, vals := sa.pending(absolute, e.flushOffs[:0], e.flushVals[:0])
	e.flushOffs, e.flushVals = offs, vals
	for lo := 0; lo < len(offs); {
		o, n := t.ownedRun(offs[lo:])
		bo, bv := offs[lo:lo+n], vals[lo:lo+n]
		lo += n
		if o == e.id {
			if err := e.shards.serveUpdate(sa.name, e.id, bo, bv, absolute, e.ctx.stepEpoch); err != nil {
				return err
			}
			continue
		}
		ack, err := e.shardRPC(o, &Msg{Kind: MsgUpdateBatch, ExecutorID: e.id, Array: sa.name, Offsets: bo, Values: bv, Absolute: absolute, Epoch: e.ctx.stepEpoch})
		if err != nil {
			return err
		}
		if ack.Kind != MsgAck {
			return fmt.Errorf("runtime: executor %d: shard owner %d rejected update: %s", e.id, o, ack.Err)
		}
	}
	return nil
}

// fetchOne synchronously reads one served-array element (the
// prefetch-miss slow path).
func (e *Executor) fetchOne(array string, off int64) (float64, error) {
	t, err := e.servedTable(array)
	if err != nil {
		return 0, err
	}
	o := t.ownerOf(off)
	if o == e.id {
		var v [1]float64
		vals, err := e.shards.serveRead(v[:0], array, []int64{off}, e.ctx.stepEpoch)
		if err != nil {
			return 0, err
		}
		return vals[0], nil
	}
	resp, err := e.shardRPC(o, &Msg{Kind: MsgPrefetch, Array: array, Offsets: []int64{off}, Epoch: e.ctx.stepEpoch})
	if err != nil {
		return 0, err
	}
	if resp.Kind != MsgPrefetchResp {
		return 0, fmt.Errorf("runtime: executor %d: shard owner %d: %s", e.id, o, resp.Err)
	}
	if len(resp.Values) != 1 {
		return 0, fmt.Errorf("runtime: executor %d: shard owner %d answered %d values for one offset", e.id, o, len(resp.Values))
	}
	return resp.Values[0], nil
}
