package runtime

import (
	"fmt"
	"sync"
)

// Kernel is a loop-body function executed by executors. It receives the
// iteration key and element value plus a Ctx for DistArray access.
type Kernel func(ctx *Ctx, key []int64, val float64)

// PrefetchFunc is the synthesized prefetch function (Section 4.4): for
// one iteration it returns the flattened element offsets of a served
// array that the kernel will read. Orion generates these from the loop
// body via internal/lang.PrefetchSlice; Go-kernel applications register
// them directly.
type PrefetchFunc func(key []int64, val float64) []int64

// BlockKernel is the optional batched form of a kernel: one call
// executes a whole block of iterations (amortizing dispatch and panic
// recovery across the block) and reports how many completed before an
// error, if any. Backends that execute iterations one at a time leave
// it nil.
type BlockKernel func(ctx *Ctx, keys [][]int64, vals []float64) (int, error)

// KernelSet is everything a loop compiler produces for one DefineLoop:
// the per-iteration kernel, its optional batched form, and the
// synthesized per-array prefetch functions.
type KernelSet struct {
	Iter     Kernel
	Block    BlockKernel
	Prefetch map[string]PrefetchFunc
}

var (
	kernelMu  sync.RWMutex
	kernels   = map[string]Kernel{}
	prefetchs = map[string]map[string]PrefetchFunc{} // kernel → array → fn
	compiler  LoopCompiler
)

// LoopCompiler turns a shipped DefineLoop message into an executable
// kernel set. The DSL front-end installs one via SetLoopCompiler (see
// internal/dslkernel); without it, executors can only run statically
// registered Go kernels.
type LoopCompiler func(def *Msg) (*KernelSet, error)

// SetLoopCompiler installs the process's loop compiler.
func SetLoopCompiler(c LoopCompiler) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	compiler = c
}

func lookupCompiler() LoopCompiler {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return compiler
}

// RegisterKernel installs a kernel under a name. Both the driver
// process and executor processes must register the same kernels (the
// analogue of Orion defining generated functions on all workers).
func RegisterKernel(name string, k Kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	kernels[name] = k
}

// RegisterPrefetch installs a prefetch function for (kernel, array).
func RegisterPrefetch(kernel, array string, fn PrefetchFunc) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	m := prefetchs[kernel]
	if m == nil {
		m = map[string]PrefetchFunc{}
		prefetchs[kernel] = m
	}
	m[array] = fn
}

func lookupKernel(name string) (Kernel, error) {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	k, ok := kernels[name]
	if !ok {
		return nil, fmt.Errorf("runtime: kernel %q not registered", name)
	}
	return k, nil
}

func lookupPrefetch(kernel string) map[string]PrefetchFunc {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return prefetchs[kernel]
}

// Ctx gives a kernel access to the DistArray partitions available on
// this executor during one block execution.
type Ctx struct {
	exec *Executor
	// servedCache maps array → offset → value for prefetched reads.
	servedCache map[string]map[int64]float64
	// servedDirty accumulates buffered writes to served arrays.
	servedDirty map[string]*servedBuffer
	// accums are this executor's accumulator instances.
	accums map[string]float64
	// Block clock: which (pass, step) the currently running block
	// belongs to, plus a monotonically increasing epoch bumped once per
	// block. Kernels that use randomness reseed per block keyed on the
	// clock, so a recovered run resuming mid-loop draws exactly the
	// sequence the fault-free run would have drawn for the same block.
	blockPass  int
	blockStep  int
	blockEpoch int64
	// stepEpoch is the served-consistency epoch of the running block
	// (assigned by the master at dispatch); it stamps every served
	// read and update this block issues.
	stepEpoch int64
}

type servedBuffer struct {
	offs []int64
	vals map[int64]float64
	// sets holds absolute (last-write-wins) values for offsets written
	// with ServedSet; setOffs preserves first-write order.
	sets    map[int64]float64
	setOffs []int64
}

// Vec returns the parameter vector A[:, coords...] from a local or
// rotated partition, using global coordinates. The returned slice is
// live — kernels may write through it (the schedule guarantees
// exclusive access).
func (c *Ctx) Vec(array string, coords ...int64) []float64 {
	p := c.exec.partition(array)
	if p == nil {
		panic(fmt.Sprintf("runtime: array %q has no partition on executor %d", array, c.exec.id))
	}
	// Rebase the partition dimension to partition-local coordinates.
	// Vec's trailing coords index array dims 1..n-1; partitions are
	// never cut along dim 0 (the vector dimension).
	idx := make([]int64, len(coords))
	copy(idx, coords)
	if p.Dim > 0 {
		idx[p.Dim-1] = coords[p.Dim-1] - p.Lo
	}
	return p.Local.Vec(idx...)
}

// At reads one element of a local or rotated partition (global
// coordinates).
func (c *Ctx) At(array string, idx ...int64) float64 {
	p := c.exec.partition(array)
	return p.At(idx...)
}

// SetAt writes one element of a local or rotated partition.
func (c *Ctx) SetAt(array string, v float64, idx ...int64) {
	p := c.exec.partition(array)
	p.SetAt(v, idx...)
}

// AddAt accumulates into one element.
func (c *Ctx) AddAt(array string, v float64, idx ...int64) {
	p := c.exec.partition(array)
	p.SetAt(p.At(idx...)+v, idx...)
}

// ServedRead reads one element of a parameter-server array by flattened
// offset. Prefetched offsets hit the local cache; misses fall back to a
// synchronous remote read (the slow path bulk prefetching exists to
// avoid). Reads observe this worker's own buffered writes.
func (c *Ctx) ServedRead(array string, off int64) float64 {
	var base float64
	if buf, ok := c.servedDirty[array]; ok {
		if v, ok2 := buf.sets[off]; ok2 {
			// Own absolute write: fully visible.
			if d, ok3 := buf.vals[off]; ok3 {
				return v + d
			}
			return v
		}
		if d, ok2 := buf.vals[off]; ok2 {
			base = d
		}
	}
	if cache, ok := c.servedCache[array]; ok {
		if v, ok2 := cache[off]; ok2 {
			c.exec.mPrefHit.Inc()
			return v + base
		}
	}
	c.exec.mPrefMiss.Inc()
	v, err := c.exec.fetchOne(array, off)
	if err != nil {
		// Kernels have no error return: panic with the error itself so
		// the executor's recovery still sees a lost shard owner as
		// ErrWorkerLost.
		panic(fmt.Errorf("runtime: served read of %s[%d]: %w", array, off, err))
	}
	c.cacheServed(array, []int64{off}, []float64{v})
	c.exec.misses++
	return v + base
}

// ServedUpdate buffers a delta to a parameter-server array element; the
// buffered writes ship to the shard owners at block end.
func (c *Ctx) ServedUpdate(array string, off int64, delta float64) {
	buf := c.servedDirty[array]
	if buf == nil {
		buf = &servedBuffer{vals: map[int64]float64{}}
		c.servedDirty[array] = buf
	}
	if _, ok := buf.vals[off]; !ok {
		buf.offs = append(buf.offs, off)
	}
	buf.vals[off] += delta
}

// ServedSet writes an absolute value to a parameter-server array
// element. Valid only when the schedule guarantees this worker is the
// element's sole writer for the step (serializable direct writes under
// the ordered wavefront); the value ships to the shard owner at block
// end as a last-write-wins update.
func (c *Ctx) ServedSet(array string, off int64, v float64) {
	buf := c.servedDirty[array]
	if buf == nil {
		buf = &servedBuffer{vals: map[int64]float64{}, sets: map[int64]float64{}}
		c.servedDirty[array] = buf
	}
	if buf.sets == nil {
		buf.sets = map[int64]float64{}
	}
	if _, ok := buf.sets[off]; !ok {
		buf.setOffs = append(buf.setOffs, off)
	}
	buf.sets[off] = v
	// An absolute write supersedes any pending delta on the offset.
	if _, ok := buf.vals[off]; ok {
		delete(buf.vals, off)
		norder := buf.offs[:0]
		for _, o := range buf.offs {
			if o != off {
				norder = append(norder, o)
			}
		}
		buf.offs = norder
	}
}

// AccumAdd folds a value into this executor's accumulator instance.
func (c *Ctx) AccumAdd(name string, v float64) {
	c.accums[name] += v
}

func (c *Ctx) cacheServed(array string, offs []int64, vals []float64) {
	cache := c.servedCache[array]
	if cache == nil {
		cache = map[int64]float64{}
		c.servedCache[array] = cache
	}
	for i, off := range offs {
		cache[off] = vals[i]
	}
}

// drainServed returns and clears buffered served-array writes.
func (c *Ctx) drainServed() map[string]*servedBuffer {
	out := c.servedDirty
	c.servedDirty = map[string]*servedBuffer{}
	return out
}

// PartitionOf exposes an executor's partition of an array (global
// coordinates) for higher-level adapters (the DSL driver).
func (c *Ctx) PartitionOf(array string) interface {
	At(idx ...int64) float64
	SetAt(v float64, idx ...int64)
} {
	return c.exec.partition(array)
}

// HasPartition reports whether this executor holds a partition of the
// array.
func (c *Ctx) HasPartition(array string) bool { return c.exec.partition(array) != nil }

// ExecutorID returns the hosting executor's id (for seeding per-worker
// randomness deterministically).
func (c *Ctx) ExecutorID() int { return c.exec.id }

// BlockPass returns the pass index of the block being executed.
func (c *Ctx) BlockPass() int { return c.blockPass }

// BlockStep returns the within-pass step index of the block being
// executed.
func (c *Ctx) BlockStep() int { return c.blockStep }

// BlockEpoch increments once per executed block; kernel adapters use
// it to notice block boundaries (e.g. to reseed per-block randomness).
func (c *Ctx) BlockEpoch() int64 { return c.blockEpoch }
