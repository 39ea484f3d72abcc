package runtime

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"orion/internal/dsm"
	"orion/internal/obs"
	"orion/internal/sched"
)

// ErrWorkerLost marks the failure of an executor connection while the
// master still expected results (a worker died mid-loop). Callers can
// detect it with errors.Is to distinguish partial-result aborts from
// ordinary kernel errors.
var ErrWorkerLost = errors.New("worker lost")

// pingInterval is how often an executor pings its master (MsgPing)
// unless SetPingInterval overrides it. Pings are always sent (one tiny
// message per executor per interval); only while SetHeartbeat arms a
// timeout does a silent link fail.
const pingInterval = 500 * time.Millisecond

// generation is one fleet generation's event stream. Every admission
// forms a fresh one, so connection handlers of a dead generation can
// never feed stale messages into a resumed loop's wait.
type generation struct {
	// events streams every executor message but pings — replies, trace
	// replies and errors, a failed link as a lost MsgError — each named
	// by the link it arrived on. await is its only reader.
	events chan *Msg
	// done closes when Abort or Shutdown ends the generation: its
	// handlers deliver nothing more, and a wait on it fails.
	done    chan struct{}
	endOnce sync.Once
	// err is the error that ended a wait early; every later wait of the
	// generation returns it without sending anything.
	err error
}

// end closes the generation, if one was formed (idempotent).
func (g *generation) end() {
	if g != nil {
		g.endOnce.Do(func() { close(g.done) })
	}
}

// Master is the Orion coordinator (Fig. 3): the driver program talks to
// it to distribute DistArrays, launch parallel for-loops, gather
// results, and aggregate accumulators.
type Master struct {
	addr string
	n    int

	conns []*codec // by executor id
	peers []string // executor ring addresses, by id

	// ln is bound once, by Listen, and closed by Shutdown: acceptDials
	// hands what it accepts to the admission in progress over dials, and
	// a dialer waits in the backlog while none is. shut closes with the
	// listener. generation counts the fleets admit has formed.
	ln         net.Listener
	dials      chan net.Conn
	shut       chan struct{}
	shutOnce   sync.Once
	generation int
	// loop is the loop this fleet generation defined last: ParallelFor runs no other.
	loop string

	mu sync.Mutex // guards missCount, reports and the residency epochs

	gen *generation // the current fleet generation

	// clock counts completed global steps across every loop this master
	// has run; it is the coordinate system of checkpoints and of the
	// chaos harness's fault scripts. clockHook (when set) observes the
	// clock at the start of each step, before any block is dispatched.
	clock     atomic.Int64
	clockHook func(int64)
	// hbTimeout, when non-zero, is how long a read of an executor link
	// may wait for a byte (masterConn), in nanoseconds — catching wedged
	// or blackholed workers whose connections are still technically open.
	hbTimeout atomic.Int64

	// shipEpoch and aborts name what the executors hold of each model
	// array and, under "", of the iteration space: every Distribute* of one
	// advances its epoch and every Abort advances all, so a caller that
	// noted an epoch after its own ship knows the fleet still holds exactly
	// that while it reads the same — whoever shipped or re-formed since.
	shipEpoch map[string]int64
	aborts    int64

	// bookkeeping for gather and the prefetch-miss counter.
	arrayDims  map[string][]int64
	arrayDense map[string]bool
	missCount  int64

	// limit is the fleet's frame element cap, which DefineLoop raises;
	// every codec of the master's links reads it.
	limit elemCap

	// Observability: the master's span buffer (nil when tracing is off)
	// and the per-loop execution reports assembled from BlockDone stats.
	trace   *obs.TraceBuf
	reports map[string]*obs.LoopReport
}

// Listen creates a master accepting executor registrations at addr for
// a fleet of n. The address stays bound until Shutdown, so every later
// fleet — a respawn, a rejoin, a grow — dials the same endpoint. Call
// Addr to learn the bound address (useful with ":0" TCP ports) and
// WaitForExecutors to complete the bring-up.
func Listen(t Transport, addr string, n int) (*Master, error) {
	ln, err := t.Listen(addr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		addr:       ln.Addr().String(),
		n:          n,
		ln:         ln,
		dials:      make(chan net.Conn),
		shut:       make(chan struct{}),
		shipEpoch:  map[string]int64{},
		arrayDims:  map[string][]int64{},
		arrayDense: map[string]bool{},
		trace:      obs.NewBuf(0, "master"),
		reports:    map[string]*obs.LoopReport{},
	}
	go m.acceptDials()
	return m, nil
}

// acceptDials hands every connection the listener accepts to admit,
// until Shutdown.
func (m *Master) acceptDials() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		select {
		case m.dials <- conn:
		case <-m.shut:
			conn.Close()
			return
		}
	}
}

// Addr returns the master's bound listen address.
func (m *Master) Addr() string { return m.addr }

// PeerAddrs returns the executors' peer addresses by id (available
// after WaitForExecutors) — used by fault-injection scripts to target
// specific peer links.
//
//lint:ignore reach a test hook the driver's fault tests share
func (m *Master) PeerAddrs() []string { return append([]string(nil), m.peers...) }

// Clock returns the number of completed global steps across all loops.
func (m *Master) Clock() int64 { return m.clock.Load() }

// SetClockHook installs a function observing the clock at the start of
// every step, before that step's blocks are dispatched. The chaos
// harness drives fault scripts from it. Set before loops run.
//
//lint:ignore reach a test hook the driver's fault tests share
func (m *Master) SetClockHook(fn func(clock int64)) { m.clockHook = fn }

// SetHeartbeat arms staleness detection: an executor link silent for
// longer than timeout fails like a closed one, and the next wait on the
// fleet returns ErrWorkerLost naming the timeout; a wait also fails once
// stepStallFactor timeouts pass without every reply. Zero disables both
// (the default); executors ping every pingInterval regardless.
func (m *Master) SetHeartbeat(timeout time.Duration) { m.hbTimeout.Store(int64(timeout)) }

// WaitForExecutors admits the fleet of n Listen was given, however
// long its executors take to dial in.
func (m *Master) WaitForExecutors() error {
	return m.admit(m.n, 0)
}

// admit forms the next fleet generation — the only code that accepts
// executor connections. It reads each dialer's hello on its own
// goroutine, so a silent dialer holds up nobody. A hello gets the slot
// it asks for when that is free and below want, and the first free slot
// when it asks for none (-1); a dialer whose first message is not a
// hello, or asks for a taken or out-of-range slot, is closed, and
// admission goes on. Once want have joined it sends each its setup and
// starts its handler; when wait (0: never) elapses first, it fails
// naming how many joined. Every connection accepted here is admitted or
// closed by the time it returns; a dialer it never accepted waits for
// the next.
func (m *Master) admit(want int, wait time.Duration) error {
	type joiner struct {
		c     *codec
		hello *Msg
	}
	hellos := make(chan joiner)
	done := make(chan struct{})
	pending := map[*codec]bool{} // accepted, not (yet) in the fleet
	slots := make([]joiner, want)
	joined := 0
	// slot is where a hello joins, -1 when it is refused.
	slot := func(hello *Msg) int {
		if hello == nil || hello.Kind != MsgHello {
			return -1
		}
		id := hello.ExecutorID
		if id == -1 {
			return slices.IndexFunc(slots, func(j joiner) bool { return j.c == nil })
		}
		if id < 0 || id >= want || slots[id].c != nil {
			return -1
		}
		return id
	}
	defer func() {
		close(done)
		for c := range pending {
			c.close()
		}
	}()
	var deadline <-chan time.Time
	if wait > 0 {
		//lint:ignore timenow the admission deadline: how long a re-forming fleet waits for dialers
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	for joined < want {
		select {
		case conn := <-m.dials:
			c := newCodec(&masterConn{Conn: conn, timeout: &m.hbTimeout})
			c.limit = &m.limit
			pending[c] = true
			go func() {
				hello, err := c.recv()
				if skew := (*VersionSkewError)(nil); errors.As(err, &skew) {
					// Refused: the answer is a hello, whose version any
					// build reads, so the dialer fails naming both.
					c.send(&Msg{Kind: MsgHello, ExecutorID: -1})
				}
				select {
				case hellos <- joiner{c, hello}:
				case <-done:
				}
			}()
		case j := <-hellos:
			if id := slot(j.hello); id < 0 {
				delete(pending, j.c)
				j.c.close()
			} else {
				slots[id] = j
				joined++
			}
		case <-deadline:
			return fmt.Errorf("runtime: only %d of %d executors joined within %v: %w", joined, want, wait, ErrWorkerLost)
		case <-m.shut:
			return fmt.Errorf("runtime: master shut down while admitting executors")
		}
	}
	m.generation++
	m.loop = ""
	// The fleet's executors hold their own caps, the newcomers the
	// default: the next DefineLoop widens the cap, and its barrier, anew.
	m.limit.n.Store(0)
	m.n = want
	m.conns = make([]*codec, want)
	m.peers = make([]string, want)
	// A wait takes one message per executor; a handler that finds the
	// stream full waits for the next, or for the generation's end.
	m.gen = &generation{events: make(chan *Msg, want), done: make(chan struct{})}
	for id, j := range slots {
		// The executor id is only known after the hello, so this side of
		// the link counts messages (the executor side counts bytes too).
		j.c.stats = obs.Peer(fmt.Sprintf("master/exec%d", id))
		m.conns[id], m.peers[id] = j.c, j.hello.PeerAddr
		delete(pending, j.c)
		if m.generation > 1 {
			obs.Flight().Record(obs.FlightEvent{
				Kind: obs.FlightWorkerRejoin, Clock: m.clock.Load(),
				Pass: -1, Step: -1, Worker: id,
				Detail: j.hello.PeerAddr,
			})
		}
	}
	for id, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgSetup, ExecutorID: id, Peers: m.peers, Trace: obs.Tracing()}); err != nil {
			return sendErr("setup", id, err)
		}
		go m.handleConn(id, c, m.gen)
	}
	return nil
}

// handleConn delivers every message executor id sends but its pings
// into the generation's stream, named by its link; a failed link goes
// in as a lost MsgError, the handler's last, and is closed — a link
// silent past the armed heartbeat timeout (masterConn) so, too, naming
// the timeout. Once the generation has ended it delivers nothing more,
// so a handler outliving a recovery cannot pollute the next
// generation's waits, but it reads on until the link closes, so the
// executor never blocks on a send.
func (m *Master) handleConn(id int, c *codec, g *generation) {
	for {
		msg, err := c.recv()
		if err != nil {
			text := fmt.Sprintf("connection failed (%v)", err)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				text = fmt.Sprintf("heartbeat stale (silent > %v)", time.Duration(m.hbTimeout.Load()))
			}
			msg = &Msg{Kind: MsgError, Err: text, Lost: true}
			c.close()
		}
		if msg.Kind == MsgPing {
			continue // liveness only: it kept the link's read alive
		}
		msg.ExecutorID = id
		select {
		case <-g.done:
		default:
			select {
			case g.events <- msg:
			case <-g.done:
			}
		}
		if err != nil {
			return
		}
	}
}

// sendErr is a failed send to executor id: a registered connection that
// refuses one has lost its worker (crashed, or its link condemned as
// corrupt) — recoverable, exactly like a loss mid-step.
func sendErr(what string, id int, err error) error {
	return fmt.Errorf("runtime: %s to executor %d failed (%v): %w", what, id, err, ErrWorkerLost)
}

// place range-partitions an array along dim at boundaries and ships
// partition i to the executor schedule.Holder(step, i) names, each
// executor all of its partitions (none, too) in one message; place says
// how they move between blocks. No ack round-trip: the connection is
// ordered, so any later ExecBlock is processed after the install.
func (m *Master) place(a *dsm.DistArray, place sched.Placement, dim int, boundaries []int64, schedule sched.Schedule, step int) error {
	if place != sched.Wavefront && len(boundaries) != m.n-1 {
		return fmt.Errorf("runtime: %d cuts of %s for %d executors", len(boundaries), a.Name(), m.n)
	}
	m.recordArray(a)
	held := make([][]*dsm.Partition, m.n)
	for i, p := range a.RangePartitions(dim, len(boundaries)+1, boundaries) {
		w := schedule.Holder(step, i)
		held[w] = append(held[w], p)
	}
	for id, ps := range held {
		msg := &Msg{Kind: MsgArrayPart, Array: a.Name(), Parts: ps, Rotated: place == sched.Rotated, Ordered: place == sched.Wavefront}
		if err := m.conns[id].send(msg); err != nil {
			return sendErr("shipping "+a.Name(), id, err)
		}
	}
	return nil
}

// DistributeLocal range-partitions a DistArray along dim with the given
// boundaries and places partition i on executor i (space-local arrays).
func (m *Master) DistributeLocal(a *dsm.DistArray, dim int, boundaries []int64) error {
	return m.place(a, sched.Local, dim, boundaries, sched.UnorderedTwoDSchedule(m.n, 1), 0)
}

// DistributeRotatedAt distributes a rotated array as it stands at
// rotation phase: executor j receives the time partition the unordered
// schedule (Fig. 7f) runs on it at step phase — the placement the ring
// reaches after `phase` steps, executor j holding partition j at phase
// 0. Resuming a loop mid-pass from a checkpoint uses this so the
// re-formed ring starts in exactly the faulted run's configuration.
func (m *Master) DistributeRotatedAt(a *dsm.DistArray, dim int, boundaries []int64, phase int) error {
	return m.place(a, sched.Rotated, dim, boundaries, sched.UnorderedTwoDSchedule(m.n, 1), phase%m.n)
}

// DistributeWavefrontAt distributes a wavefront array (Fig. 7e) as it
// stands at the start of step of an ordered pass over its
// len(boundaries)+1 time partitions: each on the executor the schedule
// says holds it then (sched.Schedule.Holder) — all of them on executor 0
// at step 0, where every pass starts and ends.
func (m *Master) DistributeWavefrontAt(a *dsm.DistArray, dim int, boundaries []int64, step int) error {
	return m.place(a, sched.Wavefront, dim, boundaries, sched.OrderedTwoDSchedule(m.n, len(boundaries)+1), step)
}

// ArrayEpoch identifies the partitions or shards of one model array
// resident on the executors — of the iteration space, for the name ""
// (see Master.shipEpoch).
func (m *Master) ArrayEpoch(array string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shipEpoch[array] + m.aborts
}

// DistributeIterSpace partitions iteration samples by the space
// coordinate (key[spaceDim]) using the given partitioner and ships each
// block to its executor, where it replaces the resident one.
func (m *Master) DistributeIterSpace(samples []IterSample, spaceDim int, part *sched.Partitioner) error {
	m.mu.Lock()
	m.shipEpoch[""]++ // before the first send: a failed ship invalidates too
	m.mu.Unlock()
	sizes := make([]int, m.n)
	for _, s := range samples {
		sizes[part.PartOf(s.Key[spaceDim])]++
	}
	blocks := make([][]IterSample, m.n)
	for w, size := range sizes {
		blocks[w] = make([]IterSample, 0, size)
	}
	for _, s := range samples {
		w := part.PartOf(s.Key[spaceDim])
		blocks[w] = append(blocks[w], s)
	}
	for id, c := range m.conns {
		if err := c.send(&Msg{Kind: MsgIterPart, Samples: blocks[id]}); err != nil {
			return sendErr("shipping the iteration space", id, err)
		}
	}
	return nil
}

func (m *Master) recordArray(a *dsm.DistArray) {
	m.mu.Lock()
	m.shipEpoch[a.Name()]++
	m.mu.Unlock()
	m.arrayDims[a.Name()] = a.Dims()
	m.arrayDense[a.Name()] = a.IsDense()
}

// LoopDef describes one distributed parallel for-loop execution.
type LoopDef struct {
	// Kernel names the loop, as the last DefineLoop shipped it.
	Kernel string
	// TimeDim is the iteration-space dimension partitioned in time
	// (-1 for 1D loops: each executor runs its whole local block once).
	TimeDim int
	// TimePart cuts the time dimension, nil for 1D. An ordered loop takes
	// any number of parts, an unordered one a multiple of the executor
	// count (the Fig. 8 pipeline depth).
	TimePart *sched.Partitioner
	// Rotate ships rotated arrays around the ring between steps. The ring
	// holds one partition per executor, so TimePart must have exactly
	// that many parts.
	Rotate bool
	// Ordered selects the wavefront schedule (Fig. 7e): lexicographic
	// iteration order is preserved, and after each block an executor
	// hands the partitions of wavefront arrays (DistributeWavefrontAt)
	// it ran to the next executor.
	Ordered bool
	// Passes is the number of full data passes.
	Passes int
	// StopPass, when > 0, stops execution at that pass boundary
	// (exclusive: passes [StartPass, StopPass) run) instead of running
	// to Passes. The driver's reconfiguration layer uses it to quiesce
	// the loop one segment at a time — re-cutting partitions or
	// re-forming the fleet between segments — and resume with StartPass.
	StopPass int
	// StartPass/StartStep resume execution mid-loop: the first executed
	// step is (StartPass, StartStep). Zero values run the loop from the
	// beginning. The caller must have distributed array state matching
	// that position (DistributeRotatedAt with phase StartStep,
	// DistributeWavefrontAt with step StartStep).
	StartPass int
	StartStep int
	// Checkpoint, when non-nil, makes the master write coordinated
	// loop-boundary snapshots per the spec's policy.
	Checkpoint *CheckpointSpec
}

// schedule is the loop's computation schedule for one pass over n
// executors (Fig. 7d/e/f). It is the only place that knows which time
// partition runs where and when: dispatch, the rotated placement of a
// resumed run and checkpoint positions all read it.
func (def LoopDef) schedule(n int) (sched.Schedule, error) {
	switch {
	case def.TimeDim < 0:
		return sched.OneDSchedule(n), nil
	case def.TimePart == nil:
		return nil, fmt.Errorf("runtime: loop %q partitions time dimension %d but has no TimePart", def.Kernel, def.TimeDim)
	case def.Ordered:
		return sched.OrderedTwoDSchedule(n, def.TimePart.Parts()), nil
	}
	parts := def.TimePart.Parts()
	if parts%n != 0 || (def.Rotate && parts != n) {
		return nil, fmt.Errorf("runtime: loop %q cuts time into %d partitions for %d executors (rotation needs exactly one per executor, an unordered schedule a multiple)",
			def.Kernel, parts, n)
	}
	return sched.UnorderedTwoDSchedule(n, parts/n), nil
}

// ParallelFor executes the loop: per pass, every step of its schedule
// in order, each closed by a barrier. An executor the schedule leaves
// out of a step still gets an (empty) block, so every executor sees
// every step of the global clock.
func (m *Master) ParallelFor(def LoopDef) error {
	schedule, err := def.schedule(m.n)
	if err != nil {
		return err
	}
	if def.Kernel != m.loop {
		return fmt.Errorf("runtime: loop %q is not the loop this fleet defined last (%q)", def.Kernel, m.loop)
	}
	passes := def.Passes
	if passes <= 0 {
		passes = 1
	}
	if def.StopPass > 0 && def.StopPass < passes {
		passes = def.StopPass
	}
	timeParts := make([]int, m.n) // by executor, for the step being dispatched
	for pass := def.StartPass; pass < passes; pass++ {
		s0 := 0
		if pass == def.StartPass {
			s0 = def.StartStep
		}
		for step := s0; step < len(schedule); step++ {
			for j := range timeParts {
				timeParts[j] = -1
			}
			for _, e := range schedule[step] {
				timeParts[e.Worker] = e.TimePart
			}
			if err := m.runStep(def, pass, step, timeParts); err != nil {
				return err
			}
			if m.checkpointDue(def, step, len(schedule)) {
				if err := m.writeCheckpoint(def, pass, step, len(schedule)); err != nil {
					return fmt.Errorf("runtime: checkpoint at clock %d: %w", m.clock.Load(), err)
				}
			}
		}
	}
	return nil
}

// runStep dispatches one global step — executor j runs time partition
// timeParts[j], or an empty block when that is -1 in a 2D loop — and
// waits at its barrier.
func (m *Master) runStep(def LoopDef, pass, step int, timeParts []int) error {
	// The chaos harness (and any other observer) sees the clock before
	// the step's blocks are dispatched, so a fault scripted "at clock c"
	// lands before step c runs.
	if m.clockHook != nil {
		m.clockHook(m.clock.Load())
	}
	// Begin before the sends so executor block spans nest inside the
	// clock.step span in the emitted trace; it ends on the failure paths
	// too — a trace that loses exactly the failing step is useless.
	stepStart := m.trace.Begin()
	defer func() {
		m.trace.EndNN("clock.step", "master", stepStart, "pass", int64(pass), "step", int64(step))
	}()
	dispatch := func(j int) *Msg {
		msg := &Msg{
			Kind:      MsgExecBlock,
			TimeDim:   def.TimeDim,
			Rotated:   def.Rotate,
			Ordered:   def.Ordered,
			Pass:      pass,
			StepIndex: step,
			// The served-consistency epoch: the clock value this step
			// completes at. Shard owners stage same-epoch updates, so
			// every block reads exactly its step-start state however
			// execution interleaves.
			Epoch: m.clock.Load() + 1,
		}
		if tp := timeParts[j]; tp >= 0 {
			msg.TimeLo, msg.TimeHi = def.TimePart.Bounds(tp)
		}
		return msg
	}
	if err := m.round("dispatch", dispatch, MsgBlockDone, func(msg *Msg) error { m.noteBlockDone(def, msg); return nil }); err != nil {
		if errors.Is(err, ErrWorkerLost) {
			obs.Flight().Record(obs.FlightEvent{
				Kind: obs.FlightWorkerLost, Clock: m.clock.Load(),
				Loop: def.Kernel, Pass: pass, Step: step, Worker: -1,
				Detail: err.Error(),
			})
		}
		return err
	}
	m.clock.Add(1)
	return nil
}

// stepStallFactor bounds how long the master waits for the fleet's
// replies relative to the armed heartbeat timeout before declaring the
// wait wedged. Heartbeats prove a worker process is alive, not that it
// is making progress: a worker whose main loop is stuck keeps its link
// alive with pings and never replies. The stall bound converts that
// wedge into a worker loss the recovery path handles.
const stepStallFactor = 10

// round sends executor id the request req makes for it, to every
// executor in turn, and awaits one reply of kind from each — unless a
// wait of this generation already failed: then it sends nothing and
// returns that wait's error.
func (m *Master) round(what string, req func(id int) *Msg, kind MsgKind, each func(*Msg) error) error {
	if m.gen.err == nil {
		for id, c := range m.conns {
			if err := c.send(req(id)); err != nil {
				return sendErr(what, id, err)
			}
		}
	}
	return m.await(kind, each)
}

// await takes exactly one reply of kind from every executor, each named
// by the link it arrived on, and hands each to each (nil: none). It is
// the master's only wait on the fleet, and the only reader of its
// generation's stream — step barrier, gather, accumulator query, ack
// barrier, trace collection. A second reply from one executor, or one
// of another kind, is a protocol fault (ErrWorkerLost). A refused reply
// does not end the wait: the rest are still taken, so none outlives it,
// and the first error returns once all have answered. Only an executor
// error (a link silent past an armed heartbeat timeout among them), a
// wait stalled past stepStallFactor timeouts with every link still
// pinging (a wedged worker), or the generation's end ends it early, and
// with it the generation: the error is recorded, and every later wait
// returns it at once.
func (m *Master) await(kind MsgKind, each func(*Msg) error) error {
	g := m.gen
	if g.err != nil {
		return g.err
	}
	var stall <-chan time.Time // never ready while staleness detection is unarmed
	bound := stepStallFactor * time.Duration(m.hbTimeout.Load())
	if bound > 0 {
		//lint:ignore timenow the stall bound: a worker that pings but never replies
		t := time.NewTimer(bound)
		defer t.Stop()
		stall = t.C
	}
	answered := make([]bool, m.n)
	var first error
	for got := 0; got < m.n; {
		var err error
		select {
		case msg := <-g.events:
			id := msg.ExecutorID
			if msg.Kind == MsgError {
				err = fmt.Errorf("runtime: executor %d: %s", id, msg.Err)
				if msg.Lost {
					// A broken link (its own, or a peer link it
					// reported): recoverable, not a kernel bug.
					err = fmt.Errorf("%w: %w", err, ErrWorkerLost)
				}
				break
			}
			if answered[id] || msg.Kind != kind {
				err = fmt.Errorf("runtime: executor %d sent a kind %d reply to a wait for one of kind %d each: %w", id, msg.Kind, kind, ErrWorkerLost)
			} else if each != nil {
				err = each(msg)
			}
			if first == nil {
				first = err
			}
			if !answered[id] {
				answered[id], got = true, got+1
			}
			continue
		case <-g.done:
			err = fmt.Errorf("runtime: the fleet was shut down or aborted: %w", ErrWorkerLost)
		case <-stall:
			err = fmt.Errorf("runtime: %d of %d replies after > %v with live heartbeats (wedged worker): %w", got, m.n, bound, ErrWorkerLost)
		}
		g.err = err
		return err
	}
	return first
}

// noteBlockDone folds one executor's block stats into the prefetch-miss
// counter and the execution report of the loop it ran.
func (m *Master) noteBlockDone(def LoopDef, msg *Msg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.missCount += int64(msg.AccValue)
	r := m.reports[def.Kernel]
	if r == nil {
		r = &obs.LoopReport{Loop: def.Kernel}
		m.reports[def.Kernel] = r
	}
	r.Ordered = def.Ordered
	r.Add(obs.WorkerStats{
		Worker:    msg.ExecutorID,
		Blocks:    1,
		Iters:     msg.StatIters,
		ComputeNs: msg.StatComputeNs,
		RotWaitNs: msg.StatRotWaitNs,
		CommNs:    msg.StatCommNs,
	})
}

// Report returns a copy of the execution report accumulated for one
// loop (nil if the loop has not run).
func (m *Master) Report(loop string) *obs.LoopReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.reports[loop]
	if r == nil {
		return nil
	}
	out := &obs.LoopReport{Loop: r.Loop}
	out.Merge(r)
	return out
}

// CombinedReport merges every loop's report into one (nil when nothing
// has run). Useful for drivers that define a fresh loop per pass.
func (m *Master) CombinedReport() *obs.LoopReport {
	all := m.AllReports()
	if len(all) == 0 {
		return nil
	}
	out := &obs.LoopReport{Loop: all[0].Loop}
	if len(all) > 1 {
		out.Loop = fmt.Sprintf("%s (+%d more)", all[0].Loop, len(all)-1)
	}
	for _, r := range all {
		out.Merge(r)
	}
	return out
}

// AllReports returns a copy of every loop's execution report, sorted
// by loop name (the machine-readable export behind orion-run
// -report-json and the /report endpoint).
func (m *Master) AllReports() []*obs.LoopReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.reports))
	for name := range m.reports {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*obs.LoopReport, 0, len(names))
	for _, name := range names {
		r := &obs.LoopReport{Loop: name}
		r.Merge(m.reports[name])
		out = append(out, r)
	}
	return out
}

// Misses returns the cumulative number of prefetch-miss slow-path
// fetches executors reported — zero when bulk prefetching covers every
// read (exposed for tests and the Section 6.3 prefetch experiment).
func (m *Master) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.missCount
}

// Gather collects an array's partitions — any number per executor —
// and its served shards from all executors and merges them into a fresh
// DistArray.
func (m *Master) Gather(array string) (*dsm.DistArray, error) {
	dims, ok := m.arrayDims[array]
	if !ok {
		return nil, fmt.Errorf("runtime: gather of unknown array %q", array)
	}
	var out *dsm.DistArray
	if m.arrayDense[array] {
		out = dsm.NewDense(array, dims...)
	} else {
		out = dsm.NewSparse(array, dims...)
	}
	// Nothing is written before every partition of a reply is checked
	// against the array: a reply the array does not admit fails the call.
	req := &Msg{Kind: MsgGather, Array: array}
	err := m.round("gather", func(int) *Msg { return req }, MsgGatherResp, func(msg *Msg) error {
		for _, p := range msg.Parts {
			if err := out.Admits(p); err != nil {
				return fmt.Errorf("runtime: gather of %s from executor %d: %w", array, msg.ExecutorID, err)
			}
		}
		for _, p := range msg.Parts {
			p.WriteBack(out)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AccumSum aggregates an accumulator across executors with +.
func (m *Master) AccumSum(name string) (float64, error) {
	req := &Msg{Kind: MsgAccumQuery, AccName: name}
	vals := make([]float64, len(m.conns))
	if err := m.round("accum query", func(int) *Msg { return req }, MsgAccumResp, func(msg *Msg) error {
		vals[msg.ExecutorID] = msg.AccValue
		return nil
	}); err != nil {
		return 0, err
	}
	var total float64 // in executor order, so the bits do not depend on reply order
	for _, v := range vals {
		total += v
	}
	return total, nil
}

// Shutdown stops all executors with the shutdown handshake and releases
// the listen address.
func (m *Master) Shutdown() {
	m.gen.end()
	m.shutOnce.Do(func() {
		close(m.shut)
		m.ln.Close()
	})
	for _, c := range m.conns {
		if c == nil {
			continue
		}
		c.send(&Msg{Kind: MsgShutdown})
		c.close()
	}
}

// DefineLoop ships a loop definition to every executor, which compiles
// it into a kernel via the installed LoopCompiler. The declared array
// extents also configure the wire-integrity layer: the fleet's element
// cap is raised to cover the largest declared array, so payload bounds
// track the fleet's actual configuration instead of a blanket ceiling.
// When the cap widens, each definition is followed by a barrier
// (MsgAck), and DefineLoop returns once every executor has answered it —
// so no block, and no peer frame only the wider cap admits, starts while
// an executor still holds the narrower one.
func (m *Master) DefineLoop(def *Msg) error {
	def.Kind = MsgDefineLoop
	m.loop = def.LoopName
	raised := m.limit.raise(def.ArrayDims)
	for id, c := range m.conns {
		if err := c.send(def); err != nil {
			return sendErr("defining "+def.LoopName, id, err)
		}
	}
	if !raised {
		return nil
	}
	return m.round("barrier", func(int) *Msg { return &Msg{Kind: MsgAck} }, MsgAck, nil)
}

// DistributeServed range-shards a parameter-server array along its last
// dimension across all executors (Section 4.4: served arrays live on "a
// number of server processes"). Executors answer each other's prefetch
// and update batches peer-to-peer; the master only records metadata for
// Gather.
func (m *Master) DistributeServed(a *dsm.DistArray) error {
	m.recordArray(a)
	lastDim := a.NumDims() - 1
	boundaries := sched.NewRangePartitioner(a.Dims()[lastDim], m.n).Boundaries()
	parts := a.RangePartitions(lastDim, m.n, boundaries)
	// Peers read each other's shards as soon as their own blocks start,
	// so wait until every executor has installed its shard.
	return m.round("shipping "+a.Name(), func(id int) *Msg {
		return &Msg{Kind: MsgServedShard, Parts: []*dsm.Partition{parts[id]}, Offsets: boundaries}
	}, MsgAck, nil)
}
