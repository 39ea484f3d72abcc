package runtime

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"orion/internal/dsm"
)

// Kernel is a loop-body function executed by executors. It receives the
// iteration key and element value plus a Ctx for DistArray access.
type Kernel func(ctx *Ctx, key []int64, val float64)

// PrefetchFunc is the synthesized prefetch function (Section 4.4): for
// one iteration it returns the flattened element offsets of a served
// array that the kernel will read. Orion generates these from the loop
// body via internal/lang.PrefetchSlice; Go-kernel applications register
// them directly. The result may repeat offsets and need only stay valid
// until the next call: the executor copies it out.
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
	// PrefetchID, when non-empty, spells out everything the Prefetch
	// functions compute from besides the sample: two kernel sets with
	// equal PrefetchIDs return equal offsets for equal samples, so the
	// executor keeps a block's offsets instead of evaluating them again.
	PrefetchID string
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
	// served holds one entry per parameter-server array this executor
	// has touched, created on first use and never replaced — so kernel
	// adapters resolve an array once and keep the pointer. servedOrder
	// lists them by name, the order block-end flushes go out in.
	served      map[string]*ServedArray
	servedOrder []*ServedArray
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

// ServedArray is one parameter-server array as the running block sees
// it: the bulk-prefetched values, held as a table of the block's sorted
// offsets that reads search (no per-block map is built), plus this
// worker's buffered writes, which ship to the shard owners at block
// end.
type ServedArray struct {
	exec *Executor
	name string
	// offs are the block's prefetched offsets, ascending and unique;
	// vals[i] is the value fetched for offs[i].
	offs []int64
	vals []float64
	// missed keeps the block's synchronous miss reads, so a repeated
	// read of an unprefetched offset costs one remote fetch.
	missed map[int64]float64
	// deltas and sets are the pending additive and absolute
	// (last-write-wins) writes; updOffs/setOffs keep first-write order.
	deltas  map[int64]float64
	updOffs []int64
	sets    map[int64]float64
	setOffs []int64
}

// Served returns the executor's handle on a parameter-server array.
func (c *Ctx) Served(array string) *ServedArray {
	s := c.served[array]
	if s == nil {
		s = &ServedArray{exec: c.exec, name: array,
			missed: map[int64]float64{}, deltas: map[int64]float64{}, sets: map[int64]float64{}}
		c.served[array] = s
		c.servedOrder = append(c.servedOrder, s)
		slices.SortFunc(c.servedOrder, func(a, b *ServedArray) int { return strings.Compare(a.name, b.name) })
	}
	return s
}

// beginBlock drops the previous block's prefetched values.
func (s *ServedArray) beginBlock() {
	s.offs, s.vals = s.offs[:0], s.vals[:0]
	clear(s.missed)
}

// endBlock forgets the buffered writes once they have been flushed.
func (s *ServedArray) endBlock() {
	s.updOffs, s.setOffs = s.updOffs[:0], s.setOffs[:0]
	clear(s.deltas)
	clear(s.sets)
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
	// Vec's trailing coords index array dims 1..n-1; partitions are
	// never cut along dim 0 (the vector dimension). The partition
	// coordinate is rebased to partition-local in place for the call.
	if p.Dim > 0 {
		coords[p.Dim-1] -= p.Lo
		defer func() { coords[p.Dim-1] += p.Lo }()
	}
	return p.Local.Vec(coords...)
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
// offset; see ServedArray.Read.
func (c *Ctx) ServedRead(array string, off int64) float64 { return c.Served(array).Read(off) }

// ServedUpdate buffers a delta to a parameter-server array element; see
// ServedArray.Update.
func (c *Ctx) ServedUpdate(array string, off int64, delta float64) {
	c.Served(array).Update(off, delta)
}

// Read reads one element by flattened offset. Prefetched offsets hit
// the block's table; misses fall back to a synchronous remote read (the
// slow path bulk prefetching exists to avoid). Reads observe this
// worker's own buffered writes.
func (s *ServedArray) Read(off int64) float64 {
	if v, ok := s.sets[off]; ok {
		// Own absolute write: fully visible.
		if d, ok := s.deltas[off]; ok {
			return v + d
		}
		return v
	}
	base := s.deltas[off]
	if i, ok := slices.BinarySearch(s.offs, off); ok {
		s.exec.mPrefHit.Inc()
		return s.vals[i] + base
	}
	if v, ok := s.missed[off]; ok {
		s.exec.mPrefHit.Inc()
		return v + base
	}
	s.exec.mPrefMiss.Inc()
	v, err := s.exec.fetchOne(s.name, off)
	if err != nil {
		// Kernels have no error return: panic with the error itself so
		// the executor's recovery still sees a lost shard owner as
		// ErrWorkerLost.
		panic(fmt.Errorf("runtime: served read of %s[%d]: %w", s.name, off, err))
	}
	s.missed[off] = v
	s.exec.misses++
	return v + base
}

// Update buffers a delta to one element; the buffered writes ship to
// the shard owners at block end.
func (s *ServedArray) Update(off int64, delta float64) {
	if _, ok := s.deltas[off]; !ok {
		s.updOffs = append(s.updOffs, off)
	}
	s.deltas[off] += delta
}

// Set writes an absolute value to one element. Valid only when the
// schedule guarantees this worker is the element's sole writer for the
// step (serializable direct writes under the ordered wavefront); the
// value ships to the shard owner at block end as a last-write-wins
// update.
func (s *ServedArray) Set(off int64, v float64) {
	if _, ok := s.sets[off]; !ok {
		s.setOffs = append(s.setOffs, off)
	}
	s.sets[off] = v
	// An absolute write supersedes any pending delta on the offset.
	if _, ok := s.deltas[off]; ok {
		delete(s.deltas, off)
		s.updOffs = slices.DeleteFunc(s.updOffs, func(o int64) bool { return o == off })
	}
}

// AccumAdd folds a value into this executor's accumulator instance.
func (c *Ctx) AccumAdd(name string, v float64) {
	c.accums[name] += v
}

// PartitionOf exposes an executor's partition of an array (nil when it
// holds none) for higher-level adapters (the DSL driver). Rotation
// replaces a rotated array's partition between blocks and recycles its
// storage: the result must not be kept past the running block.
func (c *Ctx) PartitionOf(array string) *dsm.Partition { return c.exec.partition(array) }

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
