package runtime

import "slices"

// iterPart is an executor's resident share of the iteration space: the
// samples as shipped, and an index of the blocks loops have cut from
// them. A MsgIterPart installs a new one, so the samples, the index
// and everything cached per block go together.
type iterPart struct {
	samples []IterSample
	blocks  map[blockKey]*iterBlock
}

// blockKey names one block of a partition: the samples whose timeDim
// coordinate lies in [lo, hi) — all of them when timeDim < 0 — in
// shipped order, or in lexicographic key order when ordered.
type blockKey struct {
	timeDim int
	lo, hi  int64
	ordered bool
}

// iterBlock is one indexed block. The keys alias the partition's
// samples; the slices are read-only once built.
type iterBlock struct {
	keys [][]int64
	vals []float64
	// prefetch caches, per served array, the block's sorted unique
	// prefetch offsets and the slot index over them under the
	// KernelSet.PrefetchID that produced them (§6.3's cached prefetch
	// indices).
	prefetch map[string]prefetchIndex
}

// prefetchIndex is the sorted unique prefetch offsets of one (block,
// served array) and the offset -> slot index over them: slot i of the
// block's table is offs[i]. Read-only once built — every block that
// reuses it aliases both slices.
type prefetchIndex struct {
	id   string
	offs []int64
	// table is open-addressed with linear probing: an entry is 1 + the
	// slot whose offset hashed there, 0 when empty. Its length is a power
	// of two, at least twice len(offs).
	table []int32
	shift uint
}

func newPrefetchIndex(id string, offs []int64) prefetchIndex {
	x := prefetchIndex{id: id, offs: offs}
	if len(offs) == 0 {
		return x
	}
	bits := uint(1)
	for 1<<bits < 2*len(offs) {
		bits++
	}
	x.table, x.shift = make([]int32, 1<<bits), 64-bits
	for i, off := range offs {
		h := x.hash(off)
		for x.table[h] != 0 {
			h = (h + 1) & uint64(len(x.table)-1)
		}
		x.table[h] = int32(i) + 1
	}
	return x
}

// hash is Fibonacci hashing: runs of consecutive offsets (a column of
// the array) spread over the whole table.
func (x *prefetchIndex) hash(off int64) uint64 {
	return uint64(off) * 0x9E3779B97F4A7C15 >> x.shift
}

// slot returns the slot of an offset, -1 when the block did not
// prefetch it.
func (x *prefetchIndex) slot(off int64) int32 {
	if len(x.table) == 0 {
		return -1
	}
	for h := x.hash(off); ; h = (h + 1) & uint64(len(x.table)-1) {
		i := x.table[h] - 1
		if i < 0 || x.offs[i] == off {
			return i
		}
	}
}

func newIterPart(samples []IterSample) *iterPart {
	return &iterPart{samples: samples, blocks: map[blockKey]*iterBlock{}}
}

// block returns the indexed block, building it on first use. An
// ordered block sorts its own copy of the index, never the partition:
// a loop that is not ordered runs in shipped order whatever ran before
// it over the same samples.
func (p *iterPart) block(k blockKey) *iterBlock {
	if b := p.blocks[k]; b != nil {
		return b
	}
	inBlock := func(s *IterSample) bool {
		return k.timeDim < 0 || (s.Key[k.timeDim] >= k.lo && s.Key[k.timeDim] < k.hi)
	}
	n := 0
	for i := range p.samples {
		if inBlock(&p.samples[i]) {
			n++
		}
	}
	in := make([]IterSample, 0, n)
	for i := range p.samples {
		if inBlock(&p.samples[i]) {
			in = append(in, p.samples[i])
		}
	}
	if k.ordered {
		slices.SortFunc(in, func(a, b IterSample) int { return slices.Compare(a.Key, b.Key) })
	}
	b := &iterBlock{keys: make([][]int64, len(in)), vals: make([]float64, len(in)), prefetch: map[string]prefetchIndex{}}
	for i, s := range in {
		b.keys[i], b.vals[i] = s.Key, s.Val
	}
	p.blocks[k] = b
	return b
}
