package runtime

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
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
	t        Transport
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
	// only one a block runs. Every caller defines a loop and then runs
	// it, so a new definition retires the previous one (a recovery
	// attempt re-defines under the same name).
	loopName string
	loop     *KernelSet
	sendTo   *codec // ring predecessor we ship rotated partitions to
	rotateCh chan *Msg
	// prefetchOffs is scratch for evaluating a block's prefetch offsets.
	prefetchOffs []int64

	// The master connection is read by a dedicated reader goroutine
	// (readMaster): commands flow to cmdCh and a connection failure
	// closes stop — so the main loop or a rotation wait unblocks
	// promptly when the master aborts, instead of leaking a stuck
	// goroutine.
	cmdCh    chan *Msg
	stop     chan struct{}
	stopOnce sync.Once
	stopErr  error

	// rotateErr is closed when a peer connection that was feeding the
	// rotation pipeline dies, so a mid-rotation severance surfaces as a
	// worker-lost error instead of a hung rotation wait.
	rotateErr     chan struct{}
	rotateErrOnce sync.Once

	// accepted tracks peer connections this executor accepted (ring
	// predecessor, shard RPC clients), closed on exit so aborted
	// sessions leak nothing.
	acceptedMu sync.Mutex
	accepted   []net.Conn

	ctx    *Ctx
	shards *shardSet

	// pingOverride, when non-zero, replaces the master-shipped heartbeat
	// ping interval (SetPingInterval / orion-worker -heartbeat).
	pingOverride time.Duration

	// Observability: the main goroutine's span ring (nil when tracing is
	// off — all methods no-op) and cached metric handles. Counters are
	// atomic adds on preallocated cells, so the steady-state block loop
	// stays allocation-free whether or not obs is enabled.
	trace     *obs.TraceBuf
	mBlocks   *obs.Counter
	mIters    *obs.Counter
	mRotWait  *obs.Histogram
	mRotBytes *obs.Counter
	mRotRaw   *obs.Counter
	mRotGob   *obs.Counter
	mPrefHit  *obs.Counter
	mPrefMiss *obs.Counter
	// mPrefReuse counts (block, served array) prefetches answered from
	// the block's cached offsets instead of evaluating the slice.
	mPrefReuse *obs.Counter

	done chan error
}

// NewExecutor connects an executor to the master. peerAddr is this
// executor's ring endpoint; it must be unique per executor. An id of
// -1 asks the master to assign one (rejoining workers after a
// recovery); the assignment arrives in the setup message.
func NewExecutor(t Transport, masterAddr, peerAddr string, id int) (*Executor, error) {
	e := &Executor{
		id:         id,
		t:          t,
		shards:     newShardSet(t, id),
		peerAddr:   peerAddr,
		parts:      map[string]*heldArray{},
		iter:       newIterPart(nil),
		rotateCh:   make(chan *Msg, 16),
		cmdCh:      make(chan *Msg, 16),
		stop:       make(chan struct{}),
		rotateErr:  make(chan struct{}),
		done:       make(chan error, 1),
		trace:      obs.NewBuf(id+1, fmt.Sprintf("exec%d", id)),
		mBlocks:    obs.GetCounter("kernel.blocks"),
		mIters:     obs.GetCounter("kernel.iterations"),
		mRotWait:   obs.GetHistogram("rotation.wait.ns"),
		mRotBytes:  obs.GetCounter("rotation.bytes.sent"),
		mRotRaw:    obs.GetCounter("rotation.frames.raw"),
		mRotGob:    obs.GetCounter("rotation.frames.gob"),
		mPrefHit:   obs.GetCounter("prefetch.hit"),
		mPrefMiss:  obs.GetCounter("prefetch.miss"),
		mPrefReuse: obs.GetCounter("exec.prefetch_index_reuse"),
	}
	e.ctx = &Ctx{exec: e, served: map[string]*ServedArray{}, accums: map[string]*float64{}}
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
	e.master = newPeerCodec(conn, fmt.Sprintf("exec%d/master", id))
	// Report the resolved listen address: with ":0" TCP ports the bound
	// address differs from the requested one.
	if err := e.master.send(&Msg{Kind: MsgHello, ExecutorID: id, PeerAddr: ln.Addr().String()}); err != nil {
		ln.Close()
		e.master.close()
		return nil, err
	}
	return e, nil
}

// SetPingInterval overrides the master-shipped heartbeat ping interval
// for this executor (zero keeps the master's choice). Pair it with the
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

// signalStop records the master-connection failure (first one wins)
// and releases everything blocked on it.
func (e *Executor) signalStop(err error) {
	e.stopOnce.Do(func() {
		e.stopErr = err
		close(e.stop)
	})
}

func (e *Executor) lostErr() error {
	err := e.stopErr
	if err == nil {
		err = fmt.Errorf("connection closed")
	}
	return fmt.Errorf("runtime: executor %d: master connection lost (%v): %w", e.id, err, ErrWorkerLost)
}

// readMaster is the dedicated master-connection reader: commands are
// queued for the main loop and a connection error closes stop.
func (e *Executor) readMaster() {
	for {
		msg, err := e.master.recv()
		if err != nil {
			e.signalStop(err)
			return
		}
		select {
		case e.cmdCh <- msg:
		case <-e.stop:
			return
		}
		if msg.Kind == MsgShutdown {
			return
		}
	}
}

// heartbeat sends MsgPing every interval until the executor stops. The
// codec's write lock makes concurrent sends with the main loop safe.
func (e *Executor) heartbeat(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := e.master.send(&Msg{Kind: MsgPing, ExecutorID: e.id}); err != nil {
				return
			}
		case <-e.stop:
			return
		}
	}
}

func (e *Executor) run() error {
	defer e.peerLn.Close()
	defer e.master.close()
	defer e.closeAccepted()
	// Ensure anything still blocked on this executor unwinds when the
	// run loop exits for any reason.
	defer e.signalStop(fmt.Errorf("executor exited"))
	// Receive topology first (directly — the reader goroutine starts
	// after setup so id adoption happens before concurrent use).
	setup, err := e.master.recv()
	if err != nil {
		return err
	}
	if setup.Kind != MsgSetup {
		return fmt.Errorf("runtime: executor %d: expected setup, got %v", e.id, setup.Kind)
	}
	if setup.Trace && !obs.Tracing() {
		// The master is tracing: enable tracing in this process so the
		// span rings exist when it collects them. In-process executors
		// share the master's already-installed tracer and skip this.
		obs.StartTracing()
		e.trace = nil // re-created below against the fresh tracer
	}
	if setup.ExecutorID != e.id {
		// Master-assigned id (hello carried -1, or a re-formed fleet
		// renumbered the survivors).
		e.id = setup.ExecutorID
		e.shards.selfID = e.id
		e.trace = obs.NewBuf(e.id+1, fmt.Sprintf("exec%d", e.id))
	}
	if e.trace == nil && obs.Tracing() {
		e.trace = obs.NewBuf(e.id+1, fmt.Sprintf("exec%d", e.id))
	}
	n := setup.NumExecs
	e.shards.peers = setup.Peers
	defer e.shards.closeAll()
	// Accept peer connections in the background: ring rotation plus
	// parameter-server shard RPCs.
	go e.acceptPeers()
	if n > 1 {
		// Ship rotated partitions to the ring predecessor: at step t,
		// executor j runs time partition (j+t) mod n, which executor
		// j+1 held at step t-1 — partitions flow from j to j-1.
		target := setup.Peers[(e.id+n-1)%n]
		conn, err := e.t.Dial(target)
		if err != nil {
			return fmt.Errorf("runtime: executor %d dial ring: %w", e.id, err)
		}
		e.sendTo = newPeerCodec(conn, fmt.Sprintf("exec%d/ring", e.id))
		defer e.sendTo.close()
	}
	hbInterval := time.Duration(setup.HeartbeatMs) * time.Millisecond
	if e.pingOverride > 0 {
		hbInterval = e.pingOverride
	}
	if hbInterval > 0 {
		go e.heartbeat(hbInterval)
	}
	go e.readMaster()

	for {
		var msg *Msg
		select {
		case msg = <-e.cmdCh:
		case <-e.stop:
			return e.stopErr
		}
		switch msg.Kind {
		case MsgArrayPart:
			if err := e.install(msg); err != nil {
				return err
			}
		case MsgIterPart:
			e.iter = newIterPart(msg.Samples)
		case MsgServedShard:
			p, err := dsm.DecodePartition(msg.PartBlob)
			if err != nil {
				return err
			}
			e.shards.install(msg.Array, msg.ArrayDims[msg.Array], msg.Offsets, p)
			// An array is placed one way at a time: a partition an
			// earlier loop left here must not shadow the shard.
			delete(e.parts, msg.Array)
			if err := e.master.send(&Msg{Kind: MsgAck}); err != nil {
				return err
			}
		case MsgDefineLoop:
			// The declared arrays bound what a legitimate raw rotation
			// frame can carry — raise the wire-integrity element cap to
			// match the fleet's configuration.
			raiseElemCapFromDims(msg.ArrayDims)
			if e.compile == nil {
				e.master.send(&Msg{Kind: MsgError, Err: "no loop compiler installed on this executor"})
				return fmt.Errorf("runtime: executor %d: no loop compiler", e.id)
			}
			ks, err := e.compile(msg)
			if err != nil {
				e.master.send(&Msg{Kind: MsgError, Err: err.Error()})
				return err
			}
			e.loopName, e.loop = msg.LoopName, ks
		case MsgExecBlock:
			if err := e.execBlock(msg, n); err != nil {
				e.master.send(&Msg{Kind: MsgError, Err: err.Error(), Lost: isLost(err)})
				return err
			}
		case MsgGather:
			var ps []*dsm.Partition
			if h := e.parts[msg.Array]; h != nil {
				for _, p := range h.parts {
					ps = append(ps, p.Partition)
				}
			} else if p := e.shards.gatherLocal(msg.Array); p != nil {
				// A gather folds every staged served update first: the
				// barrier already guaranteed all of them arrived.
				ps = []*dsm.Partition{p}
			} else {
				return fmt.Errorf("runtime: executor %d: gather of unknown array %q", e.id, msg.Array)
			}
			blob, err := dsm.EncodePartitions(ps)
			if err != nil {
				return err
			}
			if err := e.master.send(&Msg{Kind: MsgGatherResp, ExecutorID: e.id, Array: msg.Array, PartBlob: blob}); err != nil {
				return err
			}
		case MsgAccumQuery:
			v := *e.ctx.Accum(msg.AccName)
			if err := e.master.send(&Msg{Kind: MsgAccumResp, ExecutorID: e.id, AccName: msg.AccName, AccValue: v}); err != nil {
				return err
			}
		case MsgTraceSync:
			// Clock-sync handshake: echo the master's T0, stamp our
			// wall clock as late as possible before the send.
			if err := e.master.send(&Msg{Kind: MsgTraceSync, ExecutorID: e.id, T0: msg.T0, T1: time.Now().UnixNano()}); err != nil {
				return err
			}
		case MsgTraceDump:
			if err := e.master.send(e.traceDump(msg.TracerID)); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("runtime: executor %d: unexpected message %v", e.id, msg.Kind)
		}
	}
}

// isLost reports whether an executor-side error stems from a broken
// connection (to the master, the ring, or a shard owner) rather than a
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
		go e.servePeer(newCodec(conn))
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
	// in and out live for the connection: recvInto reuses in's payload
	// slice storage and gob reuses out's encoder state, so the
	// steady-state prefetch/update serving path does not allocate a
	// fresh Msg pair per request.
	var in, out Msg
	feedsRotation := false
	for {
		if err := c.recvInto(&in); err != nil {
			if feedsRotation {
				// The ring predecessor died: anything waiting on
				// rotateCh would hang forever — surface the loss.
				e.rotateErrOnce.Do(func() { close(e.rotateErr) })
			}
			return
		}
		switch in.Kind {
		case MsgRotate:
			feedsRotation = true
			// The rotation pipeline retains the message beyond this
			// loop iteration — hand it a detached copy. For raw frames
			// the pooled payload's ownership transfers with it (the
			// main loop returns the storage to bufpool on fold); either
			// way the transferred fields are dropped from the reused
			// receive Msg.
			var fwd *Msg
			if in.Raw {
				fwd = &Msg{Kind: MsgRotate, Raw: true, Array: in.Array,
					PartDim: in.PartDim, PartLo: in.PartLo, PartHi: in.PartHi,
					PartDims: append([]int64(nil), in.PartDims...), Values: in.Values}
				in.Values = nil
			} else {
				fwd = &Msg{Kind: MsgRotate, Array: in.Array, PartBlob: in.PartBlob}
				in.PartBlob = nil
			}
			select {
			case e.rotateCh <- fwd:
			case <-e.stop:
				return
			}
		case MsgPrefetch:
			vals, err := e.shards.serveRead(in.Array, in.Offsets, in.Epoch)
			if err != nil {
				out = Msg{Kind: MsgError, Err: err.Error()}
				c.send(&out)
				continue
			}
			// The requester holds the offsets; the values answer them in order.
			out = Msg{Kind: MsgPrefetchResp, Array: in.Array, Values: vals}
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
	if ks == nil || msg.LoopName != e.loopName {
		return fmt.Errorf("runtime: executor %d: loop %q is not defined here", e.id, msg.LoopName)
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
	if pf := ks.Prefetch; len(pf) > 0 {
		arrays := make([]string, 0, len(pf))
		for a := range pf {
			arrays = append(arrays, a)
		}
		sort.Strings(arrays)
		for _, array := range arrays {
			idx := block.prefetch[array]
			if ks.PrefetchID != "" && idx.id == ks.PrefetchID {
				e.mPrefReuse.Inc()
			} else {
				fn := pf[array]
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
		time.Sleep(d)
	}
	computeNs := int64(time.Since(kernelStart))
	e.trace.EndN("exec.kernel", "exec", kernelStart, "iters", int64(len(keys)))

	// Ship buffered parameter-server writes to their shard owners, in
	// array-name order: absolute writes first, then additive deltas.
	flushStart := time.Now()
	flushed := 0
	for _, sa := range e.ctx.servedOrder {
		if len(sa.setSlots) == 0 && len(sa.updSlots) == 0 {
			continue
		}
		if err := e.flushServed(sa, sa.setSlots, sa.set, true); err != nil {
			return err
		}
		if err := e.flushServed(sa, sa.updSlots, sa.delta, false); err != nil {
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
		Kind: MsgBlockDone, ExecutorID: e.id, AccValue: float64(misses),
		LoopName:      msg.LoopName,
		StatIters:     int64(len(keys)),
		StatComputeNs: computeNs,
		StatRotWaitNs: rotWaitNs,
		StatCommNs:    commNs,
	})
}

// partitionFromMsg materializes a rotated partition from a rotation
// message: raw frames adopt their pooled dense payload directly (zero
// copy), gob messages decode the legacy blob.
func partitionFromMsg(in *Msg) (*dsm.Partition, error) {
	if !in.Raw {
		return dsm.DecodePartition(in.PartBlob)
	}
	dims := append([]int64(nil), in.PartDims...)
	local := dsm.NewDenseFrom(in.Array, in.Values, dims...)
	return &dsm.Partition{Array: in.Array, Dim: in.PartDim, Lo: in.PartLo, Hi: in.PartHi, Local: local}, nil
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

// shardRPC sends one request to shard owner o and returns its reply. A
// dial, send or receive failure means the owner is gone — a worker
// loss, not a kernel bug.
func (e *Executor) shardRPC(o int, req *Msg) (*Msg, error) {
	c, err := e.shards.client(o)
	if err == nil {
		err = c.send(req)
	}
	var resp *Msg
	if err == nil {
		resp, err = c.recv()
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: executor %d: shard owner %d unreachable (%v): %w", e.id, o, err, ErrWorkerLost)
	}
	return resp, nil
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
		var vals []float64
		if o == e.id {
			if vals, err = e.shards.serveRead(sa.name, chunk, e.ctx.stepEpoch); err != nil {
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
			if vals = resp.Values; len(vals) != n {
				return fmt.Errorf("runtime: executor %d: shard owner %d answered %d of %d prefetched offsets", e.id, o, len(vals), n)
			}
		}
		copy(sa.vals[lo:], vals)
		lo += n
	}
	return nil
}

// flushServed ships one kind of the block's buffered writes — vals[i]
// for each slot i, in that order — to the shard owners, lowest owner
// first, awaiting acknowledgments so the master barrier implies update
// visibility.
func (e *Executor) flushServed(sa *ServedArray, slots []int32, vals []float64, absolute bool) error {
	if len(slots) == 0 {
		return nil
	}
	t, err := e.servedTable(sa.name)
	if err != nil {
		return err
	}
	batches := make([]struct {
		offs []int64
		vals []float64
	}, len(t.boundaries)+1)
	for _, i := range slots {
		off := sa.offsetOf(i)
		b := &batches[t.ownerOf(off)]
		b.offs, b.vals = append(b.offs, off), append(b.vals, vals[i])
	}
	for o, b := range batches {
		if len(b.offs) == 0 {
			continue
		}
		if o == e.id {
			if err := e.shards.serveUpdate(sa.name, e.id, b.offs, b.vals, absolute, e.ctx.stepEpoch); err != nil {
				return err
			}
			continue
		}
		ack, err := e.shardRPC(o, &Msg{Kind: MsgUpdateBatch, ExecutorID: e.id, Array: sa.name, Offsets: b.offs, Values: b.vals, Absolute: absolute, Epoch: e.ctx.stepEpoch})
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
		vals, err := e.shards.serveRead(array, []int64{off}, e.ctx.stepEpoch)
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
