//lint:ignore reach the fault-injection harness the runtime's and the driver's tests share

package runtime

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultKind selects what a scripted fault does to a connection.
type FaultKind int

const (
	// FaultSever closes the connection's underlying transport: both
	// ends observe an immediate error, exactly like a worker process
	// dying.
	FaultSever FaultKind = iota
	// FaultDrop blackholes the connection: writes appear to succeed and
	// reads block until the connection is severed or closed. Models a
	// wedged-but-alive peer — only heartbeat staleness detection
	// catches it.
	FaultDrop
	// FaultDelay injects one-shot latency: the connection's next read
	// and next write each sleep Delay (plus seeded jitter when Delay is
	// zero) before proceeding.
	FaultDelay
	// FaultCorrupt flips one bit of the connection's next write: bit
	// Offset modulo the write's length (seeded-random when Offset is
	// zero). The caller's buffer is never mutated — the flip happens in
	// a copy — so only the wire sees the damage. The receiving codec
	// must detect it via the frame checksum, never apply it.
	FaultCorrupt
	// FaultTruncate delivers only the first half of the connection's
	// next write, then severs — a peer dying mid-frame.
	FaultTruncate
	// FaultDuplicate delivers the connection's next write twice —
	// replayed delivery the per-direction sequence numbers must reject.
	FaultDuplicate
	// FaultReorder swaps two queued writes: the connection's next write
	// is held back and shipped after the following one — out-of-order
	// delivery the sequence numbers must reject.
	FaultReorder
)

func (k FaultKind) String() string {
	switch k {
	case FaultSever:
		return "sever"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scripted fault: at master clock Clock, apply Kind
// to the Conn-th connection dialed to Addr (dial order is deterministic
// for a given driver program; Conn -1 targets every connection to
// Addr, present and future, until the event fires on at least one).
type FaultEvent struct {
	Clock int64
	Addr  string
	Conn  int
	Kind  FaultKind
	Delay time.Duration
	// Offset selects which bit a FaultCorrupt flips, modulo the length
	// in bits of the write it lands on. Zero means a seeded-random bit.
	Offset int64
}

// Chaos is a deterministic fault-injecting Transport wrapper: it
// forwards Listen/Dial to the inner transport, registers every dialed
// connection under its target address in dial order, and applies
// scripted FaultEvents when the clock advances past them. Drive the
// clock from the master's step hook:
//
//	ch := runtime.NewChaos(inner, 42)
//	ch.Schedule(runtime.FaultEvent{Clock: 5, Addr: masterAddr, Conn: 1, Kind: runtime.FaultSever})
//	master.SetClockHook(ch.Advance)
//
// Faults are applied synchronously inside Advance, so a sever at clock
// c is visible before any step-c block is dispatched — runs replay
// identically for a fixed script and seed.
type Chaos struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	pending []FaultEvent
	conns   map[string][]*chaosConn // by dialed address, in dial order
	applied int64
}

// NewChaos wraps a transport with the fault injector. The seed feeds
// only the jitter of zero-duration delay faults; sever and drop are
// fully determined by the script.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		conns: map[string][]*chaosConn{},
	}
}

// Schedule adds one fault to the script. Safe to call while the
// wrapped runtime is live (e.g. after learning a resolved ":0"
// address).
func (c *Chaos) Schedule(ev FaultEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, ev)
}

// Applied returns how many scripted faults have fired.
func (c *Chaos) Applied() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// Advance fires every scheduled fault whose clock is ≤ clock and whose
// target connection exists. Events targeting not-yet-dialed
// connections stay pending and fire on a later Advance.
func (c *Chaos) Advance(clock int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := c.pending[:0]
	for _, ev := range c.pending {
		if ev.Clock > clock || !c.applyLocked(ev) {
			keep = append(keep, ev)
		} else {
			c.applied++
		}
	}
	c.pending = keep
}

func (c *Chaos) applyLocked(ev FaultEvent) bool {
	list := c.conns[ev.Addr]
	var targets []*chaosConn
	if ev.Conn < 0 {
		targets = list
	} else if ev.Conn < len(list) {
		targets = list[ev.Conn : ev.Conn+1]
	}
	if len(targets) == 0 {
		return false
	}
	delay := ev.Delay
	if ev.Kind == FaultDelay && delay == 0 {
		delay = time.Duration(1+c.rng.Intn(10)) * time.Millisecond
	}
	offset := ev.Offset
	if ev.Kind == FaultCorrupt && offset == 0 {
		offset = 1 + c.rng.Int63n(1<<20)
	}
	for _, cc := range targets {
		cc.apply(ev.Kind, delay, offset)
	}
	return true
}

// Listen implements Transport.
func (c *Chaos) Listen(addr string) (net.Listener, error) { return c.inner.Listen(addr) }

// Dial implements Transport, registering the connection for the script.
func (c *Chaos) Dial(addr string) (net.Conn, error) {
	conn, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &chaosConn{Conn: conn, unblock: make(chan struct{})}
	c.mu.Lock()
	c.conns[addr] = append(c.conns[addr], cc)
	c.mu.Unlock()
	return cc, nil
}

// chaosConn applies the scripted fault semantics over a real
// connection. The hostile write faults (corrupt/truncate/duplicate/
// reorder) are one-shot: armed by apply, consumed by the next write.
type chaosConn struct {
	net.Conn

	mu         sync.Mutex
	severed    bool
	dropped    bool
	delay      time.Duration // one-shot, consumed by the next read and next write
	rdelayed   bool
	wdelayed   bool
	corrupt    bool
	corruptOff int64
	truncate   bool
	duplicate  bool
	reorderArm bool
	held       []byte        // a reordered write waiting for its successor
	unblock    chan struct{} // closed on sever/close to release dropped reads
	closed     sync.Once
}

func (c *chaosConn) apply(kind FaultKind, delay time.Duration, offset int64) {
	c.mu.Lock()
	switch kind {
	case FaultSever:
		c.severed = true
	case FaultDrop:
		c.dropped = true
	case FaultDelay:
		c.delay = delay
		c.rdelayed, c.wdelayed = false, false
	case FaultCorrupt:
		c.corrupt = true
		c.corruptOff = offset
	case FaultTruncate:
		c.truncate = true
	case FaultDuplicate:
		c.duplicate = true
	case FaultReorder:
		c.reorderArm = true
	}
	c.mu.Unlock()
	if kind == FaultSever {
		c.Close()
	}
}

func (c *chaosConn) state() (severed, dropped bool, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.severed, c.dropped, c.delay
}

func (c *chaosConn) Read(p []byte) (int, error) {
	severed, dropped, _ := c.state()
	if severed {
		return 0, fmt.Errorf("chaos: connection severed")
	}
	if dropped {
		// Blackhole: incoming data is drained and discarded (so a peer
		// on a synchronous pipe never wedges mid-write), and the read
		// returns only when the connection dies — closing either end
		// unblocks it, so abort paths can always unwind a dropped link.
		for {
			if _, err := c.Conn.Read(p); err != nil {
				return 0, err
			}
			select {
			case <-c.unblock:
				return 0, fmt.Errorf("chaos: connection severed")
			default:
			}
		}
	}
	c.mu.Lock()
	if c.delay > 0 && !c.rdelayed {
		c.rdelayed = true
		d := c.delay
		c.mu.Unlock()
		//lint:ignore timenow an injected read delay is the fault itself
		time.Sleep(d)
	} else {
		c.mu.Unlock()
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	severed, dropped, _ := c.state()
	if severed {
		return 0, fmt.Errorf("chaos: connection severed")
	}
	if dropped {
		// Writes vanish but report success — the peer never sees them.
		return len(p), nil
	}
	c.mu.Lock()
	if c.delay > 0 && !c.wdelayed {
		c.wdelayed = true
		d := c.delay
		c.mu.Unlock()
		//lint:ignore timenow an injected write delay is the fault itself
		time.Sleep(d)
		c.mu.Lock()
	}
	if c.reorderArm && c.held == nil && len(p) > 0 {
		// Hold this write back; it ships after the next one. Success is
		// reported now, as a reordering network would.
		c.held = append([]byte(nil), p...)
		c.reorderArm = false
		c.mu.Unlock()
		return len(p), nil
	}
	var held []byte
	if c.held != nil {
		held, c.held = c.held, nil
	}
	doCorrupt, off := c.corrupt, c.corruptOff
	c.corrupt = false
	doTrunc := c.truncate
	c.truncate = false
	doDup := c.duplicate
	c.duplicate = false
	c.mu.Unlock()

	out := p
	if doCorrupt && len(p) > 0 {
		// Flip one bit in a copy: the caller's buffer (bufio internals,
		// codec scratch) must never be mutated behind its back.
		q := append([]byte(nil), p...)
		bit := off % int64(len(q)*8)
		if bit < 0 {
			bit += int64(len(q) * 8)
		}
		q[bit/8] ^= 1 << uint(bit%8)
		out = q
	}
	if doTrunc {
		n := len(out) / 2
		if n > 0 {
			if _, err := c.Conn.Write(out[:n]); err != nil {
				return 0, err
			}
		}
		c.apply(FaultSever, 0, 0)
		return n, fmt.Errorf("chaos: connection truncated mid-write")
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	if doDup {
		// Best-effort replay: the duplicate's delivery failing must not
		// fail the original, already-delivered write.
		if _, err := c.Conn.Write(out); err != nil {
			return len(p), nil
		}
	}
	if held != nil {
		// Release the reordered predecessor after its successor.
		if _, err := c.Conn.Write(held); err != nil {
			return len(p), nil
		}
	}
	return len(p), nil
}

func (c *chaosConn) Close() error {
	c.closed.Do(func() { close(c.unblock) })
	return c.Conn.Close()
}
