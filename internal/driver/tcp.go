//lint:ignore reach the driver for external orion-worker processes; only its tests run it here

package driver

import "orion/internal/runtime"

// NewTCPSession listens on addr for n executor processes — typically
// cmd/orion-worker instances, which carry the DSL compiler and need no
// per-application code. Read Addr for the bound address (useful with
// ":0"), start the workers, then call WaitForWorkers.
func NewTCPSession(addr string, n int) (*Session, error) {
	return newSession(runtime.TCP{}, addr, n)
}

// WaitForWorkers blocks until all executors have registered (TCP
// sessions; local sessions return immediately ready).
func (s *Session) WaitForWorkers() error { return s.master.WaitForExecutors() }

// Addr returns the master's bound listen address (useful with ":0").
func (s *Session) Addr() string { return s.master.Addr() }
