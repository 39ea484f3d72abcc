package runtime

import (
	"fmt"
	"testing"
)

// The runtime tests write loop bodies in Go, against the accessors
// below, and hand them to their executors through a LoopCompiler passed
// to startFleet: executors run only what a DefineLoop shipped, so every
// test defines its loop by name before it runs it.

// testLoops is the tests' loop compiler: a DefineLoop resolves the
// shipped loop name to one of these kernel sets.
type testLoops map[string]*KernelSet

func (l testLoops) compile(def *Msg) (*KernelSet, error) {
	if ks := l[def.LoopName]; ks != nil {
		return ks, nil
	}
	return nil, fmt.Errorf("runtime test: no Go loop %q", def.LoopName)
}

// perSample is the block form of a loop body written one sample at a
// time.
func perSample(body func(ctx *Ctx, key []int64, val float64)) BlockKernel {
	return func(ctx *Ctx, keys [][]int64, vals []float64) (int, error) {
		for i, key := range keys {
			body(ctx, key, vals[i])
		}
		return len(keys), nil
	}
}

// Vec returns the parameter vector A[:, coords...] from a local or
// rotated partition, using global coordinates. The returned slice is
// live: a kernel may write through it.
func (c *Ctx) Vec(array string, coords ...int64) []float64 {
	p := c.exec.partition(array)
	if p == nil {
		panic(fmt.Sprintf("runtime: array %q has no partition on executor %d", array, c.exec.id))
	}
	// Vec's trailing coords index array dims 1..n-1; partitions are
	// never cut along dim 0 (the vector dimension). The partition
	// coordinate is rebased to partition-local in place for the call.
	if p.Dim > 0 {
		coords[p.Dim-1] -= p.Lo
		defer func() { coords[p.Dim-1] += p.Lo }()
	}
	return p.Local.Vec(coords...)
}

// ServedRead reads one element of a parameter-server array by flattened
// offset; see ServedArray.Read.
func (c *Ctx) ServedRead(array string, off int64) float64 { return c.Served(array).Read(off) }

// ServedUpdate buffers a delta to a parameter-server array element; see
// ServedArray.Update.
func (c *Ctx) ServedUpdate(array string, off int64, delta float64) {
	c.Served(array).Update(off, delta)
}

// AccumAdd folds a value into this executor's accumulator instance.
func (c *Ctx) AccumAdd(name string, v float64) { *c.Accum(name) += v }

// startFleet brings up a master and n in-process executors under a
// unique address prefix, compiling loops with compile.
func startFleet(tb testing.TB, prefix string, n int, compile LoopCompiler) (*Master, []*Executor, func() []error) {
	tb.Helper()
	return startFleetOver(tb, NewInProc(), prefix+"-master", func(i int) string { return fmt.Sprintf("%s-%d", prefix, i) }, n, compile, nil)
}

// startFleetOver brings up a master and n executors over tr, compiling
// loops with compile; tune, when set, adjusts each executor before it
// starts. The returned stop shuts the fleet down and reports how each
// executor exited, indexed by executor id.
func startFleetOver(tb testing.TB, tr Transport, masterAddr string, peerAddr func(int) string, n int,
	compile LoopCompiler, tune func(*Executor)) (*Master, []*Executor, func() []error) {
	tb.Helper()
	m, err := Listen(tr, masterAddr, n)
	if err != nil {
		tb.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() { ready <- m.WaitForExecutors() }()
	var execs []*Executor
	var done []<-chan error
	for i := 0; i < n; i++ {
		e, err := NewExecutor(tr, m.Addr(), peerAddr(i), i)
		if err != nil {
			tb.Fatal(err)
		}
		e.compile = compile
		if tune != nil {
			tune(e)
		}
		execs = append(execs, e)
		done = append(done, e.Start())
	}
	if err := <-ready; err != nil {
		tb.Fatal(err)
	}
	return m, execs, func() []error {
		m.Shutdown()
		errs := make([]error, len(done))
		for i, d := range done {
			errs[i] = <-d
		}
		return errs
	}
}
