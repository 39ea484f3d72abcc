package dsm

import (
	"fmt"
	"slices"
)

// ApplyUDF merges one buffered update into a DistArray element. It is
// executed atomically per element when a buffer is flushed, enabling
// read-modify-write update rules such as adaptive gradient algorithms
// (Section 3.3).
type ApplyUDF func(current, update float64) float64

// AddUDF is the default apply function: plain accumulation.
func AddUDF(current, update float64) float64 { return current + update }

// Buffer is a DistArray Buffer: a per-worker write-back buffer whose
// writes are exempt from dependence analysis. Writes accumulate locally
// and are applied to the backing DistArray later via the apply UDF.
//
// It is a slot table: the combined update of offs[i] is upd[i], in
// first-write order, found through an Index — direct over a dense
// target's offsets, hashed over a sparse one's. Flush resets only the
// slots it used, so a buffer in steady use allocates nothing.
type Buffer struct {
	shape *DistArray // the target's name and extents, no storage
	udf   ApplyUDF
	offs  []int64
	upd   []float64
	idx   Index
	// MaxBuffered, when > 0, bounds how many distinct elements may be
	// buffered before Put reports that a flush is required ("The
	// application program may optionally bound how long the writes can
	// be buffered").
	MaxBuffered int
}

// NewBuffer creates a buffer for the given DistArray.
func NewBuffer(a *DistArray, udf ApplyUDF) *Buffer {
	if udf == nil {
		udf = AddUDF
	}
	b := &Buffer{shape: newArray(a.name, a.dims), udf: udf}
	if a.IsDense() {
		b.idx = Index{table: make([]int32, len(a.dense)), direct: true} // over [0, len)
	}
	return b
}

// Put buffers an update for one element. Multiple updates to the same
// element combine additively in the buffer (they are deltas); the UDF
// governs how the combined delta merges into the array at flush time.
// It returns true when the buffer has reached MaxBuffered and should be
// flushed.
func (b *Buffer) Put(update float64, idx ...int64) bool {
	off := b.shape.flattenFrom(-1, 0, idx)
	if i := b.idx.Slot(off, b.offs); i >= 0 {
		b.upd[i] += update
	} else {
		// 0 + update, as a first += into a map stores: a first -0
		// update flushes as +0.
		b.offs, b.upd = append(b.offs, off), append(b.upd, 0+update)
		b.idx.Add(b.offs)
	}
	return b.MaxBuffered > 0 && len(b.offs) >= b.MaxBuffered
}

// Len returns the number of distinct buffered elements.
func (b *Buffer) Len() int { return len(b.offs) }

// Flush applies all buffered updates to the array via the UDF, in
// first-write order, and clears the buffer. Returns the number of
// elements updated. The array must have the buffer's name and extents:
// the buffered offsets are flattened with them.
func (b *Buffer) Flush(a *DistArray) int {
	if a.name != b.shape.name || !slices.Equal(a.dims, b.shape.dims) {
		panic(fmt.Sprintf("dsm: flushing buffer of %q %v into %q %v", b.shape.name, b.shape.dims, a.name, a.dims))
	}
	for i, off := range b.offs {
		a.setOff(off, b.udf(a.atOff(off), b.upd[i]))
	}
	n := len(b.offs)
	b.idx.Reset(b.offs)
	b.offs, b.upd = b.offs[:0], b.upd[:0]
	return n
}
