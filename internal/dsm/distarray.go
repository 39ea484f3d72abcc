// Package dsm implements Orion's distributed shared memory abstraction:
// Distributed Arrays (Section 3.1) and DistArray Buffers (Section 3.3),
// plus partitioning and serialization used by the runtime to place and
// rotate array partitions (Section 4.4). Accumulators (Section 3.4) are
// loop-body variables the runtime folds per executor
// (runtime.Ctx.Accum, driver.Session.Accumulate).
//
// A DistArray is an N-dimensional dense or sparse array of float64
// elements indexed by an N-tuple. Dense storage is laid out so that the
// *first* dimension is contiguous: a full-first-dimension set query like
// W[:, j] (the common "parameter vector" access of ML kernels) returns a
// contiguous slice without copying.
package dsm

import (
	"fmt"
	"math/rand"
)

// DistArray is an N-dimensional array of float64.
type DistArray struct {
	name   string
	dims   []int64
	stride []int64 // stride[0] == 1; stride[i] = stride[i-1]*dims[i-1]
	dense  []float64
	sparse *columns // nil for dense
	// version counts in-place writes to a sparse array. setOff, AddAt
	// and Map are the only ones: a sparse array hands out no live view
	// of its storage.
	version uint64
}

// NewDense creates a dense DistArray of the given extents, zero-filled.
func NewDense(name string, dims ...int64) *DistArray {
	a := newArray(name, dims)
	total := int64(1)
	for _, d := range dims {
		total *= d
	}
	a.dense = make([]float64, total)
	return a
}

// NewDenseFrom builds the dense partition [lo, hi) along dim of array
// name over data, adopting data as the storage (no copy) of its local
// array of extents dims; len(data) must equal their product. The
// transport decodes rotated partitions straight into pooled buffers with
// it, so the partition and its local array share one allocation.
func NewDenseFrom(name string, data []float64, dim int, lo, hi int64, dims ...int64) *Partition {
	both := &struct {
		p Partition
		a DistArray
	}{}
	both.a.shape(name, dims)
	if total := both.a.stride[len(dims)-1] * dims[len(dims)-1]; int64(len(data)) != total {
		panic(fmt.Sprintf("dsm: %s: %d elements for extent product %d", name, len(data), total))
	}
	both.a.dense = data
	both.p = Partition{Array: name, Dim: dim, Lo: lo, Hi: hi, Local: &both.a}
	return &both.p
}

// NewSparse creates a sparse DistArray of the given extents.
func NewSparse(name string, dims ...int64) *DistArray {
	a := newArray(name, dims)
	a.sparse = &columns{}
	return a
}

func newArray(name string, dims []int64) *DistArray {
	a := &DistArray{}
	a.shape(name, dims)
	return a
}

// shape names a and gives it the extents dims, whose copy and strides
// share one allocation.
func (a *DistArray) shape(name string, dims []int64) {
	if len(dims) == 0 {
		panic("dsm: array must have at least one dimension")
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("dsm: non-positive extent %d", d))
		}
	}
	n := len(dims)
	both := make([]int64, 2*n)
	a.name, a.dims, a.stride = name, both[:n:n], both[n:]
	copy(a.dims, dims)
	a.stride[0] = 1
	for i := 1; i < n; i++ {
		a.stride[i] = a.stride[i-1] * dims[i-1]
	}
}

// Name returns the array's name.
func (a *DistArray) Name() string { return a.name }

// Dims returns the array extents.
func (a *DistArray) Dims() []int64 { return append([]int64(nil), a.dims...) }

// NumDims returns the dimensionality.
func (a *DistArray) NumDims() int { return len(a.dims) }

// IsDense reports dense storage.
func (a *DistArray) IsDense() bool { return a.sparse == nil }

// Len returns the number of stored elements: the full extent product
// for dense arrays, the number of nonzeros for sparse ones.
func (a *DistArray) Len() int {
	if a.IsDense() {
		return len(a.dense)
	}
	return a.sparse.nnz
}

// Flatten converts an index tuple to the flattened offset.
func (a *DistArray) Flatten(idx ...int64) int64 { return a.flattenFrom(-1, 0, idx) }

// flattenFrom is Flatten with coordinate dim rebased by -lo first: a
// Partition resolves global coordinates against its Local array
// without building a rebased copy of the tuple (dim < 0 rebases
// nothing). Bounds faults report the rebased coordinate.
func (a *DistArray) flattenFrom(dim int, lo int64, idx []int64) int64 {
	if len(idx) != len(a.dims) {
		panic(fmt.Sprintf("dsm: %s: %d subscripts for %d dims", a.name, len(idx), len(a.dims)))
	}
	var off int64
	for i, v := range idx {
		if i == dim {
			v -= lo
		}
		if v < 0 || v >= a.dims[i] {
			panic(fmt.Sprintf("dsm: %s: index %d out of bounds [0,%d) at dim %d", a.name, v, a.dims[i], i))
		}
		off += v * a.stride[i]
	}
	return off
}

func (a *DistArray) unflattenInto(idx []int64, off int64) []int64 {
	for i := len(a.dims) - 1; i >= 0; i-- {
		idx[i] = off / a.stride[i]
		off %= a.stride[i]
	}
	return idx
}

// At is a point query (e.g. A[1, 3, 2]).
func (a *DistArray) At(idx ...int64) float64 { return a.atOff(a.flattenFrom(-1, 0, idx)) }

// SetAt writes one element.
func (a *DistArray) SetAt(v float64, idx ...int64) { a.setOff(a.flattenFrom(-1, 0, idx), v) }

// AtFlat reads the element at a flattened offset (Flatten of its index
// tuple), which must lie in [0, the extent product).
func (a *DistArray) AtFlat(off int64) float64 { return a.atOff(a.checkFlat(off)) }

// SetFlat writes the element at a flattened offset, as AtFlat reads it.
func (a *DistArray) SetFlat(off int64, v float64) { a.setOff(a.checkFlat(off), v) }

// checkFlat returns off, or panics as At does out of bounds.
func (a *DistArray) checkFlat(off int64) int64 {
	last := len(a.dims) - 1
	if n := a.stride[last] * a.dims[last]; off < 0 || off >= n {
		panic(fmt.Sprintf("dsm: %s: flattened offset %d out of bounds [0,%d)", a.name, off, n))
	}
	return off
}

func (a *DistArray) atOff(off int64) float64 {
	if a.IsDense() {
		return a.dense[off]
	}
	return a.sparse.get(off)
}

func (a *DistArray) setOff(off int64, v float64) {
	if a.IsDense() {
		a.dense[off] = v
		return
	}
	a.version++
	a.sparse.set(off, v)
}

// AddAt accumulates into one element.
func (a *DistArray) AddAt(v float64, idx ...int64) {
	off := a.Flatten(idx...)
	if a.IsDense() {
		a.dense[off] += v
		return
	}
	a.setOff(off, a.sparse.get(off)+v) // 0 + v when absent
}

// Vec is a full-first-dimension set query A[:, rest...]: it returns the
// contiguous parameter vector for the trailing coordinates. Dense
// arrays return a live view (writes through the slice are visible);
// this is the zero-copy equivalent of Julia's @view in Fig. 5.
func (a *DistArray) Vec(rest ...int64) []float64 {
	if len(rest) != len(a.dims)-1 {
		panic(fmt.Sprintf("dsm: %s: Vec wants %d trailing coords, got %d", a.name, len(a.dims)-1, len(rest)))
	}
	if !a.IsDense() {
		out := make([]float64, a.dims[0])
		base := a.Flatten(append([]int64{0}, rest...)...)
		for i := range out {
			out[i] = a.sparse.get(base + int64(i))
		}
		return out
	}
	var off int64
	for i, v := range rest {
		if v < 0 || v >= a.dims[i+1] {
			panic(fmt.Sprintf("dsm: %s: Vec coord %d out of bounds at dim %d", a.name, v, i+1))
		}
		off += v * a.stride[i+1]
	}
	return a.dense[off : off+a.dims[0]]
}

// DenseData exposes the flat storage and strides of a dense array for
// fused offset arithmetic (lang.DenseAccess); sparse arrays return
// (nil, nil). Both slices are live: writes through data are visible,
// and neither may be resized.
func (a *DistArray) DenseData() (data []float64, stride []int64) {
	if !a.IsDense() {
		return nil, nil
	}
	return a.dense, a.stride
}

// ForEach visits every stored element. Dense arrays visit all elements;
// sparse arrays visit nonzeros in deterministic (sorted offset) order.
// Every idx is the callback's to keep: the tuples of one walk are cut
// from a single allocation, not one each.
func (a *DistArray) ForEach(f func(idx []int64, v float64)) {
	a.ForEachUntil(func(idx []int64, v float64) bool {
		f(idx, v)
		return true
	})
}

// ForEachUntil visits elements as ForEach does but stops as soon as f
// returns false, so callers can abandon a walk early (for example when
// an iteration errors).
func (a *DistArray) ForEachUntil(f func(idx []int64, v float64) bool) {
	nd := len(a.dims)
	tuples := make([]int64, a.Len()*nd)
	visit := func(i int, off int64, v float64) bool {
		return f(a.unflattenInto(tuples[i*nd:(i+1)*nd:(i+1)*nd], off), v)
	}
	if a.IsDense() {
		for off, v := range a.dense {
			if !visit(off, int64(off), v) {
				return
			}
		}
		return
	}
	i := 0
	a.sparse.walk(func(off int64, v float64) bool {
		i++
		return visit(i-1, off, v)
	})
}

// Entries returns the sparse entries (offset order) as parallel slices.
func (a *DistArray) Entries() (idx [][]int64, vals []float64) {
	a.ForEach(func(i []int64, v float64) {
		idx = append(idx, i)
		vals = append(vals, v)
	})
	return idx, vals
}

// Clone deep-copies the array.
func (a *DistArray) Clone() *DistArray {
	out := newArray(a.name, a.dims)
	if a.IsDense() {
		out.dense = append([]float64(nil), a.dense...)
		return out
	}
	out.sparse = a.sparse.clone()
	return out
}

// FillRandn fills a dense array with N(0, scale) values (Orion.randn).
func (a *DistArray) FillRandn(rng *rand.Rand, scale float64) {
	if !a.IsDense() {
		panic("dsm: FillRandn requires a dense array")
	}
	for i := range a.dense {
		a.dense[i] = rng.NormFloat64() * scale
	}
}

// Map applies f to every stored element in place (map_values=true in
// the paper's API).
func (a *DistArray) Map(f func(v float64) float64) {
	if a.IsDense() {
		for i, v := range a.dense {
			a.dense[i] = f(v)
		}
		return
	}
	a.version++
	for i, v := range a.sparse.vals {
		if v != 0 {
			a.sparse.put(int32(i), f(v))
		}
	}
}

// CoordCounts computes per-coordinate element counts along each listed
// dimension — the data-distribution approximation Orion uses for
// balanced partitioning: out[k][c] is the number of stored elements
// whose coordinate along dims[k] is c. The one walk has no order and
// builds no index tuples, so it allocates the same for any element
// count; a dense array stores every element, so its counts are
// closed-form.
func (a *DistArray) CoordCounts(dims ...int) [][]int64 {
	out := make([][]int64, len(dims))
	for k, d := range dims {
		out[k] = make([]int64, a.dims[d])
		if a.IsDense() {
			per := int64(len(a.dense)) / a.dims[d]
			for c := range out[k] {
				out[k][c] = per
			}
		}
	}
	if a.IsDense() {
		return out
	}
	for i, off := range a.sparse.offs {
		if a.sparse.vals[i] == 0 {
			continue
		}
		for k, d := range dims {
			out[k][(off/a.stride[d])%a.dims[d]]++
		}
	}
	return out
}
