package dsm

// Index maps flattened offsets to slots for an owner that keeps the
// offsets itself: slot i holds offs[i] of the slice the owner passes to
// every call, so the index stores no keys and a lookup costs one table
// read, or a short probe. Sparse DistArrays, Buffers and the runtime's
// per-block prefetch tables all address their slots through it.
type Index struct {
	// table holds 1 + the slot of an offset, 0 for none. It is direct,
	// indexed by offset - lo, whenever the offsets' span fits in the
	// table hashing would allocate — so it never costs more memory, and
	// only a set spread sparsely over a large array hashes: open
	// addressing with linear probing, a power of two at least twice the
	// offsets' count long.
	table  []int32
	direct bool
	lo     int64
	shift  uint
}

// NewIndex indexes offs, which must be distinct, in any order.
func NewIndex(offs []int64) Index {
	var x Index
	x.build(offs, len(offs))
	return x
}

// build makes x an index of offs, distinct and in any order, in a table
// sized for room >= len(offs) offsets — a hashed one takes
// room - len(offs) Adds before it grows — reusing x's table when it is
// large enough.
func (x *Index) build(offs []int64, room int) {
	if len(offs) == 0 {
		x.table, x.direct = x.table[:0], false
		return
	}
	bits := tableBits(room)
	lo, hi := offs[0], offs[0]
	for _, off := range offs {
		lo, hi = min(lo, off), max(hi, off)
	}
	if span := hi - lo + 1; span > 0 && span <= 1<<bits {
		x.table, x.direct, x.lo = x.cleared(int(span)), true, lo
		for i, off := range offs {
			x.table[off-lo] = int32(i) + 1
		}
		return
	}
	x.rehash(offs, bits)
}

// rehash makes x a hashed index of offs with 1<<bits entries.
func (x *Index) rehash(offs []int64, bits uint) {
	x.table, x.direct, x.lo, x.shift = x.cleared(1<<bits), false, 0, 64-bits
	for i, off := range offs {
		x.table[x.free(off)] = int32(i) + 1
	}
}

// cleared is a zeroed table of n entries, x's own when it has room.
func (x *Index) cleared(n int) []int32 {
	if cap(x.table) < n {
		return make([]int32, n)
	}
	t := x.table[:n]
	clear(t)
	return t
}

// tableBits is the log2 of the hashed table for n offsets: a power of
// two at least 2n.
func tableBits(n int) uint {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}

// hash is Fibonacci hashing: runs of consecutive offsets (a column of
// the array) spread over the whole table.
func (x *Index) hash(off int64) uint64 { return uint64(off) * 0x9E3779B97F4A7C15 >> x.shift }

// free is the first empty entry of off's probe sequence.
func (x *Index) free(off int64) uint64 {
	h := x.hash(off)
	for x.table[h] != 0 {
		h = (h + 1) & uint64(len(x.table)-1)
	}
	return h
}

// Direct reports whether the index looks offsets up in a direct table,
// not by hashing.
//
//lint:ignore reach a test hook: the runtime's served-slot tests pin which table a block gets
func (x *Index) Direct() bool { return x.direct }

// Slot returns the slot of an offset, -1 when it has none.
func (x *Index) Slot(off int64, offs []int64) int32 {
	if x.direct {
		if d := uint64(off - x.lo); d < uint64(len(x.table)) {
			return x.table[d] - 1
		}
		return -1
	}
	return x.probe(off, offs)
}

func (x *Index) probe(off int64, offs []int64) int32 {
	if len(x.table) == 0 {
		return -1
	}
	for h := x.hash(off); ; h = (h + 1) & uint64(len(x.table)-1) {
		i := x.table[h] - 1
		if i < 0 || offs[i] == off {
			return i
		}
	}
}

// Add indexes the last of offs, which the owner has just appended and
// which has no slot yet. A direct index takes it in place when it lies
// in the table's span; otherwise the index hashes, into a table grown
// to twice the offsets' count whenever it would pass half full, so n
// Adds cost O(n) in all.
func (x *Index) Add(offs []int64) {
	n := len(offs)
	off := offs[n-1]
	if x.direct {
		if d := uint64(off - x.lo); d < uint64(len(x.table)) {
			x.table[d] = int32(n)
			return
		}
	} else if 2*n <= len(x.table) {
		x.table[x.free(off)] = int32(n)
		return
	}
	x.rehash(offs, tableBits(2*n))
}

// Reset forgets offs, every offset the index holds, keeping the table
// for reuse: a direct index clears only their entries.
func (x *Index) Reset(offs []int64) {
	if !x.direct {
		clear(x.table)
		return
	}
	for _, off := range offs {
		x.table[off-x.lo] = 0
	}
}
