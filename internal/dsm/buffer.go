package dsm

import "fmt"

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
type Buffer struct {
	array   string
	dims    []int64
	udf     ApplyUDF
	pending map[int64]float64 // flattened index -> combined update
	order   []int64           // first-write order for deterministic flush
	// MaxBuffered, when > 0, bounds how many distinct elements may be
	// buffered before Put reports that a flush is required ("The
	// application program may optionally bound how long the writes can
	// be buffered").
	MaxBuffered int
	writes      int64
	flat        func(idx []int64) int64
}

// NewBuffer creates a buffer for the given DistArray.
func NewBuffer(a *DistArray, udf ApplyUDF) *Buffer {
	if udf == nil {
		udf = AddUDF
	}
	return &Buffer{
		array:   a.Name(),
		dims:    a.Dims(),
		udf:     udf,
		pending: make(map[int64]float64),
		flat: func(idx []int64) int64 {
			return a.Flatten(idx...)
		},
	}
}

// Put buffers an update for one element. Multiple updates to the same
// element combine additively in the buffer (they are deltas); the UDF
// governs how the combined delta merges into the array at flush time.
// It returns true when the buffer has reached MaxBuffered and should be
// flushed.
func (b *Buffer) Put(update float64, idx ...int64) bool {
	off := b.flat(idx)
	if _, ok := b.pending[off]; !ok {
		b.order = append(b.order, off)
	}
	b.pending[off] += update
	b.writes++
	return b.MaxBuffered > 0 && len(b.pending) >= b.MaxBuffered
}

// Len returns the number of distinct buffered elements.
func (b *Buffer) Len() int { return len(b.pending) }

// Writes returns the total number of Put calls since the last flush.
func (b *Buffer) Writes() int64 { return b.writes }

// Flush applies all buffered updates to the array via the UDF, in
// first-write order, and clears the buffer. Returns the number of
// elements updated.
func (b *Buffer) Flush(a *DistArray) int {
	if a.Name() != b.array {
		panic(fmt.Sprintf("dsm: flushing buffer of %q into %q", b.array, a.Name()))
	}
	n := 0
	for _, off := range b.order {
		u, ok := b.pending[off]
		if !ok {
			continue
		}
		idx := a.Unflatten(off)
		cur := a.At(idx...)
		a.SetAt(b.udf(cur, u), idx...)
		n++
	}
	b.pending = make(map[int64]float64)
	b.order = b.order[:0]
	b.writes = 0
	return n
}
