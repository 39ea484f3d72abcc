package dsm

import (
	"cmp"
	"fmt"
	"slices"
)

// Partition is a contiguous coordinate range of a DistArray along one
// dimension, extracted for placement on a worker or rotation between
// workers (Section 4.4).
type Partition struct {
	Array string
	Dim   int
	Lo    int64 // inclusive
	Hi    int64 // exclusive
	// Local holds the partition's elements as a standalone DistArray
	// whose extent along Dim is Hi-Lo (coordinates rebased to 0).
	Local *DistArray
}

// ExtractRange copies coordinates [lo, hi) along dim into a Partition.
func (a *DistArray) ExtractRange(dim int, lo, hi int64) *Partition {
	p := a.emptyPartition(dim, lo, hi)
	if hi == lo {
		return p
	}
	if !a.IsDense() {
		a.splitSparse(dim, []*Partition{p})
		return p
	}
	if dim == len(a.dims)-1 {
		// Fast path: partitioning by the last dimension slices the
		// contiguous backing store.
		copy(p.Local.dense, a.dense[lo*a.stride[dim]:hi*a.stride[dim]])
		return p
	}
	a.ForEach(func(idx []int64, v float64) {
		if idx[dim] < lo || idx[dim] >= hi {
			return
		}
		idx[dim] -= lo
		p.Local.SetAt(v, idx...)
	})
	return p
}

// emptyPartition is the partition [lo, hi) along dim with nothing in it
// yet.
func (a *DistArray) emptyPartition(dim int, lo, hi int64) *Partition {
	if dim < 0 || dim >= len(a.dims) {
		panic(fmt.Sprintf("dsm: %s: bad partition dim %d", a.name, dim))
	}
	if lo < 0 || hi > a.dims[dim] || lo > hi {
		panic(fmt.Sprintf("dsm: %s: bad partition range [%d,%d) along dim %d (extent %d)",
			a.name, lo, hi, dim, a.dims[dim]))
	}
	ndims := append([]int64(nil), a.dims...)
	ndims[dim] = hi - lo
	if hi == lo {
		ndims[dim] = 1 // degenerate but keep a valid array
	}
	local := NewSparse(a.name, ndims...)
	if a.IsDense() {
		local = NewDense(a.name, ndims...)
	}
	return &Partition{Array: a.name, Dim: dim, Lo: lo, Hi: hi, Local: local}
}

// Admits says why p is not a partition of a, nil when it is: p must
// carry a's name and rank, a's extents off its dimension, and a range
// inside a's extent along it that its own extent spans.
func (a *DistArray) Admits(p *Partition) error {
	l := p.Local
	ok := p.Array == a.name && len(l.dims) == len(a.dims) && p.Dim >= 0 && p.Dim < len(a.dims) &&
		p.Lo >= 0 && p.Lo <= p.Hi && p.Hi <= a.dims[p.Dim] && (l.dims[p.Dim] == p.Hi-p.Lo || p.Hi == p.Lo && l.dims[p.Dim] == 1)
	for i := 0; ok && i < len(a.dims); i++ {
		ok = i == p.Dim || l.dims[i] == a.dims[i]
	}
	if !ok {
		return fmt.Errorf("dsm: the partition of %q %v, [%d, %d) along dimension %d, is not one of %q %v",
			p.Array, l.dims, p.Lo, p.Hi, p.Dim, a.name, a.dims)
	}
	return nil
}

// WriteBack merges the partition's contents back into the full array.
func (p *Partition) WriteBack(a *DistArray) {
	if a.Name() != p.Array {
		panic(fmt.Sprintf("dsm: writing partition of %q into %q", p.Array, a.Name()))
	}
	if p.Hi == p.Lo {
		return
	}
	if a.IsDense() && p.Local.IsDense() && p.Dim == len(a.dims)-1 {
		copy(a.dense[p.Lo*a.stride[p.Dim]:p.Hi*a.stride[p.Dim]], p.Local.dense)
		return
	}
	p.Local.ForEach(func(idx []int64, v float64) {
		idx[p.Dim] += p.Lo
		a.SetAt(v, idx...)
	})
}

// At reads an element using *global* coordinates.
func (p *Partition) At(idx ...int64) float64 {
	return p.Local.atOff(p.Local.flattenFrom(p.Dim, p.Lo, idx))
}

// SetAt writes an element using *global* coordinates.
func (p *Partition) SetAt(v float64, idx ...int64) {
	p.Local.setOff(p.Local.flattenFrom(p.Dim, p.Lo, idx), v)
}

// Bytes estimates the partition's wire size (8 bytes per element plus
// 16 bytes per sparse entry for the coordinates).
func (p *Partition) Bytes() int64 {
	if p.Local.IsDense() {
		return int64(p.Local.Len()) * 8
	}
	return int64(p.Local.Len()) * 24
}

// RangePartitions splits the array into parts contiguous ranges along
// dim using the given boundaries; boundaries[k] is the first coordinate
// of partition k+1 (len == parts-1). Use sched.Partitioner to compute
// balanced boundaries.
func (a *DistArray) RangePartitions(dim, parts int, boundaries []int64) []*Partition {
	if len(boundaries) != parts-1 {
		panic(fmt.Sprintf("dsm: %d boundaries for %d parts", len(boundaries), parts))
	}
	out := make([]*Partition, parts)
	lo := int64(0)
	for k := 0; k < parts; k++ {
		hi := a.dims[dim]
		if k < parts-1 {
			hi = boundaries[k]
		}
		if a.IsDense() {
			out[k] = a.ExtractRange(dim, lo, hi)
		} else {
			out[k] = a.emptyPartition(dim, lo, hi)
		}
		lo = hi
	}
	if !a.IsDense() {
		a.splitSparse(dim, out)
	}
	return out
}

// splitSparse copies a sparse array's elements into the empty
// partitions ps, ascending and disjoint ranges along dim, dropping
// those no range holds. One walk in offset order routes every element;
// within one range, the rebased offsets ascend in the same order, so
// each partition's columns are built by appending.
func (a *DistArray) splitSparse(dim int, ps []*Partition) {
	offs, vals := make([][]int64, len(ps)), make([][]float64, len(ps))
	idx := make([]int64, len(a.dims))
	a.sparse.walk(func(off int64, v float64) bool {
		c := a.unflattenInto(idx, off)[dim]
		k, _ := slices.BinarySearchFunc(ps, c, func(p *Partition, c int64) int { return cmp.Compare(p.Hi-1, c) }) // the first range ending above c
		if k < len(ps) && ps[k].Lo <= c {
			offs[k] = append(offs[k], ps[k].Local.flattenFrom(dim, ps[k].Lo, idx))
			vals[k] = append(vals[k], v)
		}
		return true
	})
	for k, p := range ps {
		p.Local.sparse = sortedColumns(offs[k], vals[k])
	}
}

// EqualRangePartitions splits into equal-width ranges along dim.
func (a *DistArray) EqualRangePartitions(dim, parts int) []*Partition {
	boundaries := make([]int64, 0, parts-1)
	for k := 1; k < parts; k++ {
		boundaries = append(boundaries, a.dims[dim]*int64(k)/int64(parts))
	}
	return a.RangePartitions(dim, parts, boundaries)
}
