package main

import (
	"net"
	"sync"
	"sync/atomic"

	"orion/internal/runtime"
)

// wireCounts are the bytes and Write calls seen on every connection of
// one transport, split by which listener the connection belongs to.
type wireCounts struct {
	masterBytes, peerBytes, writes atomic.Int64
}

type wireSnapshot struct {
	masterBytes, peerBytes, writes int64
}

func (c *wireCounts) snapshot() wireSnapshot {
	return wireSnapshot{c.masterBytes.Load(), c.peerBytes.Load(), c.writes.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.masterBytes - b.masterBytes, a.peerBytes - b.peerBytes, a.writes - b.writes}
}

// countingTransport wraps a runtime.Transport (as runtime.NewChaos
// does) and counts what both ends of every connection write. The first
// listener opened is the master's — runtime.Listen runs before any
// executor exists — and every later one is an executor's peer
// endpoint, which carries ring rotation and served-array traffic.
type countingTransport struct {
	inner  runtime.Transport
	counts wireCounts

	mu     sync.Mutex
	master string // resolved address of the master's listener
}

func newCountingTransport(inner runtime.Transport) *countingTransport {
	return &countingTransport{inner: inner}
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bytes := &t.counts.peerBytes
	if t.master == "" {
		t.master = ln.Addr().String()
		bytes = &t.counts.masterBytes
	}
	return &countingListener{Listener: ln, bytes: bytes, writes: &t.counts.writes}, nil
}

func (t *countingTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bytes := &t.counts.peerBytes
	if addr == t.master {
		bytes = &t.counts.masterBytes
	}
	return &countingConn{Conn: c, bytes: bytes, writes: &t.counts.writes}, nil
}

type countingListener struct {
	net.Listener
	bytes, writes *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: l.bytes, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	bytes, writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}
