package runtime

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"orion/internal/dsm"
)

// PrefetchFunc is the synthesized prefetch function (Section 4.4): for
// one iteration it returns the flattened element offsets of a served
// array that the kernel will read. Orion generates these from the loop
// body via internal/lang.PrefetchSlice. The result may repeat offsets
// and need only stay valid until the next call: the executor copies it
// out.
type PrefetchFunc func(key []int64, val float64) []int64

// BlockKernel is a compiled loop body: one call executes a whole block
// of iterations and reports how many completed before an error, if any.
type BlockKernel func(ctx *Ctx, keys [][]int64, vals []float64) (int, error)

// KernelSet is everything a loop compiler produces for one DefineLoop:
// the loop body and the synthesized per-array prefetch functions.
type KernelSet struct {
	Block    BlockKernel
	Prefetch map[string]PrefetchFunc
	// PrefetchID, when non-empty, spells out everything the Prefetch
	// functions compute from besides the sample: two kernel sets with
	// equal PrefetchIDs return equal offsets for equal samples, so the
	// executor keeps a block's offsets instead of evaluating them again.
	PrefetchID string
}

// LoopCompiler turns a shipped DefineLoop message into an executable
// kernel set: the distributed analogue of Orion's macro defining the
// generated loop-body function on every worker.
type LoopCompiler func(def *Msg) (*KernelSet, error)

// defaultCompiler is the loop compiler NewExecutor gives an executor.
var defaultCompiler atomic.Pointer[LoopCompiler]

// SetLoopCompiler installs the process's default loop compiler, the one
// executors created afterwards compile DefineLoop messages with. The DSL
// front-end installs it (internal/dslkernel.Install).
func SetLoopCompiler(c LoopCompiler) { defaultCompiler.Store(&c) }

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
	// accums are this executor's accumulator instances (Accum).
	accums map[string]*float64
	// Block clock: which (pass, step) the currently running block
	// belongs to. Kernels that use randomness reseed per block keyed on
	// the clock, so a recovered run resuming mid-loop draws exactly the
	// sequence the fault-free run would have drawn for the same block.
	blockPass int
	blockStep int
	// stepEpoch is the served-consistency epoch of the running block
	// (assigned by the master at dispatch); it stamps every served
	// read and update this block issues.
	stepEpoch int64
}

// ServedArray is one parameter-server array as the running block sees
// it: a slot table. Slot i holds the value fetched for the block's i-th
// prefetch offset at the step's epoch plus this worker's pending writes
// to it, which ship to the shard owners at block end. Every access
// resolves its offset to a slot once and then touches only slices.
type ServedArray struct {
	exec *Executor
	name string
	// idx is the block's prefetch index, shared with the iteration block
	// that caches it and never written. Offsets outside it — a prefetch
	// miss, a write to an offset the prefetch slice did not record, every
	// access of a kernel with no prefetch function — get slots appended
	// behind its own: slot len(idx.offs)+j is extra[j], found through
	// overlay.
	idx     prefetchIndex
	extra   []int64
	overlay map[int64]int32
	// Per slot: the fetched value, the pending additive delta (0 when
	// there is none), the pending absolute write, and which of them are
	// meaningful.
	vals  []float64
	delta []float64
	set   []float64
	flags []uint8
	// setSlots and updSlots list the slots with a pending absolute write
	// and a pending delta, in first-write order: the order they flush in.
	setSlots []int32
	updSlots []int32
	// hits and misses count the block's reads; the executor adds them to
	// the process-wide counters once, at block end.
	hits, misses int64
}

const (
	slotBase  uint8 = 1 << iota // vals[i] is the value fetched at the step's epoch
	slotDelta                   // delta[i] is pending
	slotSet                     // set[i] is pending
)

// Served returns the executor's handle on a parameter-server array.
func (c *Ctx) Served(array string) *ServedArray {
	s := c.served[array]
	if s == nil {
		s = &ServedArray{exec: c.exec, name: array, overlay: map[int64]int32{}}
		c.served[array] = s
		c.servedOrder = append(c.servedOrder, s)
		slices.SortFunc(c.servedOrder, func(a, b *ServedArray) int { return strings.Compare(a.name, b.name) })
	}
	return s
}

// beginBlock makes idx the block's table: one clean slot per prefetch
// offset, whose values the caller fetches into vals, and nothing left of
// the previous block.
func (s *ServedArray) beginBlock(idx prefetchIndex) {
	n := len(idx.offs)
	s.idx, s.extra = idx, s.extra[:0]
	clear(s.overlay)
	s.vals = slices.Grow(s.vals[:0], n)[:n]
	s.delta = slices.Grow(s.delta[:0], n)[:n]
	s.set = slices.Grow(s.set[:0], n)[:n]
	s.flags = slices.Grow(s.flags[:0], n)[:n]
	clear(s.delta)
	for i := range s.flags {
		s.flags[i] = slotBase
	}
	s.setSlots, s.updSlots = s.setSlots[:0], s.updSlots[:0]
}

// slot resolves an offset to its slot, appending one when the block has
// none for it yet.
func (s *ServedArray) slot(off int64) int32 {
	if i := s.idx.slot(off); i >= 0 {
		return i
	}
	i, ok := s.overlay[off]
	if !ok {
		i = int32(len(s.flags))
		s.overlay[off] = i
		s.extra = append(s.extra, off)
		s.vals, s.delta, s.set, s.flags = append(s.vals, 0), append(s.delta, 0), append(s.set, 0), append(s.flags, 0)
	}
	return i
}

// offsetOf is the inverse of slot.
func (s *ServedArray) offsetOf(i int32) int64 {
	if n := int32(len(s.idx.offs)); i >= n {
		return s.extra[i-n]
	}
	return s.idx.offs[i]
}

// Read reads one element by flattened offset. Prefetched offsets hit
// the block's table; misses fall back to a synchronous remote read (the
// slow path bulk prefetching exists to avoid), once per offset per
// block. Reads observe this worker's own buffered writes.
func (s *ServedArray) Read(off int64) float64 { return s.readSlot(s.slot(off)) }

func (s *ServedArray) readSlot(i int32) float64 {
	f := s.flags[i]
	if f&slotSet != 0 {
		// Own absolute write: fully visible.
		if f&slotDelta != 0 {
			return s.set[i] + s.delta[i]
		}
		return s.set[i]
	}
	if f&slotBase == 0 {
		s.fetchMiss(i)
	} else {
		s.hits++
	}
	return s.vals[i] + s.delta[i]
}

func (s *ServedArray) fetchMiss(i int32) {
	s.misses++
	off := s.offsetOf(i)
	v, err := s.exec.fetchOne(s.name, off)
	if err != nil {
		// Kernels have no error return: panic with the error itself so
		// the executor's recovery still sees a lost shard owner as
		// ErrWorkerLost.
		panic(fmt.Errorf("runtime: served read of %s[%d]: %w", s.name, off, err))
	}
	s.vals[i] = v
	s.flags[i] |= slotBase
}

// Update buffers a delta to one element; the buffered writes ship to
// the shard owners at block end.
func (s *ServedArray) Update(off int64, delta float64) {
	i := s.slot(off)
	if s.flags[i]&slotDelta == 0 {
		s.flags[i] |= slotDelta
		s.updSlots = append(s.updSlots, i)
	}
	s.delta[i] += delta
}

// Set writes an absolute value to one element. Valid only when the
// schedule guarantees this worker is the element's sole writer for the
// step — a raw-runtime caller serving a time-indexed array of an ordered
// loop (the driver hands those down the wavefront instead); the value
// ships to the shard owner at block end as a last-write-wins update.
func (s *ServedArray) Set(off int64, v float64) { s.setSlot(s.slot(off), v) }

func (s *ServedArray) setSlot(i int32, v float64) {
	if f := s.flags[i]; f&(slotSet|slotDelta) != slotSet {
		if f&slotSet == 0 {
			s.setSlots = append(s.setSlots, i)
		}
		if f&slotDelta != 0 {
			// An absolute write supersedes any pending delta on the offset.
			s.delta[i] = 0
			s.updSlots = slices.DeleteFunc(s.updSlots, func(j int32) bool { return j == i })
		}
		s.flags[i] = f&^slotDelta | slotSet
	}
	s.set[i] = v
}

// run returns the first of the n consecutive slots that hold offsets
// off, off+1, ..., off+n-1, or -1 when the block's table does not hold
// them side by side (it is sorted, so a prefetched column does).
func (s *ServedArray) run(off int64, n int) int32 {
	i := s.idx.slot(off)
	if last := int(i) + n - 1; i < 0 || n < 1 || last >= len(s.idx.offs) || s.idx.offs[last] != off+int64(n-1) {
		return -1
	}
	return i
}

// ReadRun reads the elements at offsets off, off+1, ... into out, as
// len(out) Reads would, when the block prefetched them all; otherwise
// it reads nothing and reports false.
func (s *ServedArray) ReadRun(off int64, out []float64) bool {
	i := s.run(off, len(out))
	if i < 0 {
		return false
	}
	for k := range out {
		out[k] = s.readSlot(i + int32(k))
	}
	return true
}

// Accum returns this executor's instance of an accumulator, at an
// address that stays put for the executor's life: a kernel adapter
// resolves it once and adds to it, with no lookup per iteration.
func (c *Ctx) Accum(name string) *float64 {
	p := c.accums[name]
	if p == nil {
		p = new(float64)
		c.accums[name] = p
	}
	return p
}

// PartitionOf exposes an executor's partition of an array (nil when it
// holds none) for higher-level adapters (the DSL driver). Rotation
// replaces a rotated array's partition between blocks and recycles its
// storage: the result must not be kept past the running block.
func (c *Ctx) PartitionOf(array string) *dsm.Partition { return c.exec.partition(array) }

// HasPartition reports whether the array is placed on this executor as
// partitions — a wavefront array is even while it holds none of them.
func (c *Ctx) HasPartition(array string) bool { return c.exec.parts[array] != nil }

// ExecutorID returns the hosting executor's id (for seeding per-worker
// randomness deterministically).
func (c *Ctx) ExecutorID() int { return c.exec.id }

// BlockPass returns the pass index of the block being executed.
func (c *Ctx) BlockPass() int { return c.blockPass }

// BlockStep returns the within-pass step index of the block being
// executed.
func (c *Ctx) BlockStep() int { return c.blockStep }
