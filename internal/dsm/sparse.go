package dsm

import (
	"math/bits"
	"slices"
)

// columns is a sparse array's storage: offsets and values side by side,
// offs[:sorted] ascending and offs[sorted:] a tail of inserts in arrival
// order, with one Index over both. A write to a present offset is in
// place; an insert appends to the tail, and a write merges the tail
// into the columns once it outgrows a fixed fraction of them.
//
// A zero write stores +0, and the element stops counting as stored:
// nnz, walks and encoding skip it, and the next merge drops it — a
// map's delete, bit for bit. No read writes a field, so concurrent
// readers are as safe as concurrent map reads.
type columns struct {
	offs   []int64
	vals   []float64
	sorted int
	nnz    int // elements stored: values that are not zero
	idx    Index
}

// A write merges the tail once it is longer than mergeMin and than
// 1/mergeFrac of the sorted columns: n inserts move O(n) elements in
// all, and a walk sorts at most a third of them.
const (
	mergeMin  = 32
	mergeFrac = 2
)

func (c *columns) get(off int64) float64 {
	if i := c.idx.Slot(off, c.offs); i >= 0 {
		return c.vals[i]
	}
	return 0
}

func (c *columns) set(off int64, v float64) {
	if i := c.idx.Slot(off, c.offs); i >= 0 {
		c.put(i, v)
	} else if v != 0 {
		c.insert(off, v)
	}
}

// put writes slot i, storing +0 for any zero.
func (c *columns) put(i int32, v float64) {
	was := c.vals[i] != 0
	if v == 0 {
		c.vals[i] = 0
		if was {
			c.nnz--
		}
		return
	}
	c.vals[i] = v
	if !was {
		c.nnz++
	}
}

func (c *columns) insert(off int64, v float64) {
	if n := len(c.offs); n == cap(c.offs) {
		// Double: append grows large slices by a quarter, and an array
		// built by inserts would copy its columns over several times.
		c.offs, c.vals = slices.Grow(c.offs, n+1), slices.Grow(c.vals, n+1)
	}
	c.offs, c.vals = append(c.offs, off), append(c.vals, v)
	c.nnz++
	c.idx.Add(c.offs)
	if tail := len(c.offs) - c.sorted; tail > mergeMin && tail > c.sorted/mergeFrac {
		c.merge()
	}
}

// merge sorts the tail into the columns in place, drops what is no
// longer stored, and indexes the result.
func (c *columns) merge() {
	tail := c.sortedTail()
	n := 0
	for i, v := range c.vals[:c.sorted] {
		if v != 0 {
			c.offs[n], c.vals[n] = c.offs[i], v
			n++
		}
	}
	k := n + len(tail)
	offs, vals := c.offs[:k], c.vals[:k]
	for i, j := n-1, len(tail)-1; j >= 0; { // from the back, so nothing is overwritten unread
		k--
		if i >= 0 && offs[i] > tail[j].off {
			offs[k], vals[k] = offs[i], vals[i]
			i--
		} else {
			offs[k], vals[k] = tail[j].off, tail[j].v
			j--
		}
	}
	c.offs, c.vals, c.sorted, c.nnz = offs, vals, len(offs), len(offs)
	c.idx.build(offs, len(offs)+max(mergeMin, len(offs)/mergeFrac)+1) // room for the next tail
}

// elem is one stored element.
type elem struct {
	off int64
	v   float64
}

// sortedTail copies the tail's stored elements out in offset order.
func (c *columns) sortedTail() []elem {
	n := len(c.offs) - c.sorted
	if n == 0 {
		return nil
	}
	buf := make([]elem, 2*n)
	tail, scratch := buf[:0:n], buf[n:]
	var hi int64
	for j := c.sorted; j < len(c.offs); j++ {
		if v := c.vals[j]; v != 0 {
			tail = append(tail, elem{c.offs[j], v})
			hi = max(hi, c.offs[j])
		}
	}
	return radixSort(tail, scratch[:len(tail)], bits.Len64(uint64(hi)))
}

// radixSort sorts es by offset, offsets of at most width bits: a least
// significant digit first radix sort, a byte a pass, through scratch
// (as long as es). It returns whichever of the two holds the result.
func radixSort(es, scratch []elem, width int) []elem {
	for shift := 0; shift < width; shift += 8 {
		var at [257]int
		for _, e := range es {
			at[e.off>>shift&0xff+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, e := range es {
			d := e.off >> shift & 0xff
			scratch[at[d]] = e
			at[d]++
		}
		es, scratch = scratch, es
	}
	return es
}

// walk visits the stored elements in ascending offset order until f
// returns false: the sorted columns merged with the sorted tail.
func (c *columns) walk(f func(off int64, v float64) bool) {
	tail := c.sortedTail()
	for i := 0; i < c.sorted || len(tail) > 0; {
		if len(tail) > 0 && (i == c.sorted || tail[0].off < c.offs[i]) {
			if !f(tail[0].off, tail[0].v) {
				return
			}
			tail = tail[1:]
			continue
		}
		if v := c.vals[i]; v != 0 && !f(c.offs[i], v) {
			return
		}
		i++
	}
}

// sortedColumns is the storage of offs, ascending, and vals, none of
// them zero.
func sortedColumns(offs []int64, vals []float64) *columns {
	return &columns{offs: offs, vals: vals, sorted: len(offs), nnz: len(offs), idx: NewIndex(offs)}
}

func (c *columns) clone() *columns {
	out := *c
	out.offs, out.vals, out.idx.table = slices.Clone(c.offs), slices.Clone(c.vals), slices.Clone(c.idx.table)
	return &out
}
