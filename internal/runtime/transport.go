// Package runtime is Orion's distributed runtime (Fig. 3): a master
// coordinating a set of executors that hold DistArray partitions,
// execute loop-body kernels over iteration-space blocks, rotate
// time-partitioned arrays around a ring (Fig. 8), serve
// parameter-server arrays with bulk prefetching (Section 4.4), and
// aggregate accumulators (Section 3.4).
//
// The runtime runs over a Transport: either real TCP sockets or an
// in-process pipe transport with identical semantics (used by tests and
// single-machine runs). Loop bodies travel as source in DefineLoop and
// every executor compiles them with its LoopCompiler — the moral
// equivalent of Orion defining generated loop-body functions in its
// distributed workers during macro expansion.
package runtime

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"orion/internal/obs"
)

// Transport abstracts connection establishment so the same runtime runs
// over TCP or in-process pipes.
type Transport interface {
	// Listen starts accepting connections at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network transport.
type TCP struct{}

// Listen implements Transport.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// InProc is an in-process transport: addresses are arbitrary strings,
// connections are synchronous net.Pipe pairs. Every pipe end is
// counted, so tests can assert that an aborted session leaks no
// connections (OpenConns).
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	open      atomic.Int64
}

// NewInProc creates an isolated in-process address space.
func NewInProc() *InProc {
	return &InProc{listeners: make(map[string]*inprocListener)}
}

// Listen implements Transport.
func (t *InProc) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("runtime: inproc address %q already in use", addr)
	}
	l := &inprocListener{addr: addr, ch: make(chan net.Conn, 16), done: make(chan struct{}), parent: t}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *InProc) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("runtime: inproc dial: no listener at %q", addr)
	}
	client, server := net.Pipe()
	cc := &countedConn{Conn: client, open: &t.open}
	sc := &countedConn{Conn: server, open: &t.open}
	t.open.Add(2)
	select {
	case l.ch <- sc:
		return cc, nil
	case <-l.done:
		cc.Close()
		sc.Close()
		return nil, fmt.Errorf("runtime: inproc dial: listener at %q closed", addr)
	}
}

// OpenConns returns the number of pipe ends currently open — zero once
// every connection ever dialed through this transport has been closed
// by its owner. Tests use it to verify abort paths do not leak.
func (t *InProc) OpenConns() int64 { return t.open.Load() }

// countedConn decrements the transport's open-connection gauge exactly
// once when closed.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.open.Add(-1) })
	return err
}

type inprocListener struct {
	addr   string
	ch     chan net.Conn
	done   chan struct{}
	once   sync.Once
	parent *InProc
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("runtime: inproc listener %q closed", l.addr)
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.parent.mu.Lock()
		delete(l.parent.listeners, l.addr)
		l.parent.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() net.Addr { return inprocAddr(l.addr) }

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }

// Deadline wraps a transport so every connection it produces enforces
// per-operation I/O deadlines: each Read (Write) arms a fresh read
// (write) deadline of the configured duration. A zero duration leaves
// that direction unlimited.
//
// Write deadlines are broadly safe — the runtime never holds a send
// open indefinitely on purpose — and turn a wedged peer into a prompt
// error instead of a hung barrier. Read deadlines are only appropriate
// on links with guaranteed periodic traffic (e.g. the master side of
// executor connections when heartbeats are enabled): executors
// legitimately sit idle between loops, so a blanket read deadline
// would kill healthy workers.
type Deadline struct {
	Inner Transport
	Read  time.Duration
	Write time.Duration
}

// Listen implements Transport.
func (d Deadline) Listen(addr string) (net.Listener, error) {
	ln, err := d.Inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &deadlineListener{Listener: ln, read: d.Read, write: d.Write}, nil
}

// Dial implements Transport.
func (d Deadline) Dial(addr string) (net.Conn, error) {
	c, err := d.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &deadlineConn{Conn: c, read: d.Read, write: d.Write}, nil
}

type deadlineListener struct {
	net.Listener
	read, write time.Duration
}

func (l *deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &deadlineConn{Conn: c, read: l.read, write: l.write}, nil
}

type deadlineConn struct {
	net.Conn
	read, write time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		if err := c.Conn.SetReadDeadline(time.Now().Add(c.read)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		if err := c.Conn.SetWriteDeadline(time.Now().Add(c.write)); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// countingConn wraps a connection and feeds per-peer byte counters.
// Counts are atomic adds on preallocated counters, so the wrapper adds
// no allocations to the transport hot path.
type countingConn struct {
	net.Conn
	stats *obs.PeerStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.stats.BytesRecv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.stats.BytesSent.Add(int64(n))
	return n, err
}
