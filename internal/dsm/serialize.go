package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// A partition travels, and an array is checkpointed, as one record:
// uvarint name length · name · uvarint rank · extents · dim · lo · hi ·
// a layout byte, then for a dense partition the extent product's values
// in storage order, and for a sparse one a uvarint count · per stored
// element, in ascending offset order, its offset as a uvarint gap (the
// first from −1) · its value. Every value is framed by AppendFloat. An
// array's record is that of its whole range along dimension 0.
const (
	layoutDense, layoutSparse byte = 0, 1
	maxNameLen, maxRank            = 1 << 12, 16
	// growChunk is how many elements storage sized by a count still
	// unverified by arrived bytes grows by at a time.
	growChunk = 1 << 16
)

// AppendFloat appends v by gob's rule for a float64: its bits
// byte-reversed, so a value with a short mantissa (a small integer) has
// few significant bytes; below 128 that is one byte, and otherwise a
// byte holding the negated count of significant bytes, then those
// bytes, most significant first.
func AppendFloat(dst []byte, v float64) []byte {
	u := bits.ReverseBytes64(math.Float64bits(v))
	if u < 0x80 {
		return append(dst, byte(u))
	}
	n := 8 - bits.LeadingZeros64(u)/8
	for dst = append(dst, byte(-n)); n > 0; n-- {
		dst = append(dst, byte(u>>(8*n-8)))
	}
	return dst
}

// ReadFloat reads one value AppendFloat framed.
func ReadFloat(r io.ByteReader) (float64, error) {
	b, err := r.ReadByte()
	u := uint64(b)
	if n := 256 - int(b); err == nil && b >= 0x80 {
		if n > 8 {
			return 0, fmt.Errorf("dsm: a float of %d bytes", n)
		}
		for u = 0; n > 0 && err == nil; n-- {
			b, err = r.ReadByte()
			u = u<<8 | uint64(b)
		}
	}
	return math.Float64frombits(bits.ReverseBytes64(u)), err
}

// AppendPartition appends p's record to dst.
func AppendPartition(dst []byte, p *Partition) []byte {
	a := p.Local
	dst = binary.AppendUvarint(append(binary.AppendUvarint(dst, uint64(len(p.Array))), p.Array...), uint64(len(a.dims)))
	for _, d := range a.dims {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dst, uint64(p.Dim)), uint64(p.Lo)), uint64(p.Hi))
	if a.IsDense() {
		dst = append(dst, layoutDense)
		for _, v := range a.dense {
			dst = AppendFloat(dst, v)
		}
		return dst
	}
	dst, prev := binary.AppendUvarint(append(dst, layoutSparse), uint64(a.sparse.nnz)), int64(-1)
	a.sparse.walk(func(off int64, v float64) bool {
		dst, prev = AppendFloat(binary.AppendUvarint(dst, uint64(off-prev)), v), off
		return true
	})
	return dst
}

// ReadPartition reads one record from r. It refuses a record whose name
// is past 4 KiB, whose rank is 0 or past 16, whose extents are not
// positive or multiply past 2^63 − 1, whose range does not span its
// extent along dim (an empty range keeps extent 1), that stores more
// than limit values, whose sparse offsets do not ascend inside the
// extents, that stores a zero, or whose layout is unknown. Storage sized
// by a count grows a chunk at a time as the values arrive, so a forged
// count costs at most a chunk beyond the bytes that really follow it.
func ReadPartition(r io.ByteReader, limit uint64) (*Partition, error) {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("dsm: partition record: "+format, args...)
		}
	}
	uvarint := func() (v uint64) {
		if err == nil {
			v, err = binary.ReadUvarint(r)
		}
		return v
	}
	float := func() (v float64) {
		if err == nil {
			v, err = ReadFloat(r)
		}
		return v
	}
	name := make([]byte, min(uvarint(), maxNameLen+1))
	if len(name) > maxNameLen {
		fail("a name past %d bytes", maxNameLen)
	}
	for i := 0; i < len(name) && err == nil; i++ {
		name[i], err = r.ReadByte()
	}
	rank, total := uvarint(), uint64(1)
	if err == nil && (rank == 0 || rank > maxRank) {
		fail("rank %d outside 1..%d", rank, maxRank)
	}
	var shape [maxRank]int64 // newArray copies it
	dims := shape[:min(rank, maxRank)]
	for i := range dims {
		if dims[i] = int64(uvarint()); err == nil && (dims[i] <= 0 || uint64(dims[i]) > math.MaxInt64/total) {
			fail("extent %d after a product of %d", dims[i], total)
		}
		total *= uint64(dims[i])
	}
	dim, lo, hi := uvarint(), uvarint(), uvarint()
	if span := hi - lo; err == nil && (dim >= rank || lo > hi || hi > math.MaxInt64 || span != uint64(dims[dim]) && (span != 0 || dims[dim] != 1)) {
		fail("range [%d, %d) along dimension %d does not span its extent", lo, hi, dim)
	}
	var layout byte
	if err == nil {
		layout, err = r.ReadByte()
	}
	if err != nil {
		return nil, err
	}
	a := newArray(string(name), dims)
	switch layout {
	case layoutDense:
		if total > limit {
			fail("%d values past the cap %d", total, limit)
		}
		for uint64(len(a.dense)) < total && err == nil {
			a.dense = append(grow(a.dense, int(total)), float())
		}
	case layoutSparse:
		n := uvarint()
		if err == nil && (n > limit || n > total) {
			fail("%d stored values for %d elements under the cap %d", n, total, limit)
		}
		var offs []int64
		var vals []float64
		for next := uint64(0); uint64(len(offs)) < n && err == nil; { // next: one past the last offset
			if gap, v := uvarint(), float(); err == nil && (gap == 0 || gap > total-next || v == 0) {
				fail("offset gap %d after offset %d of %d elements, value %v", gap, int64(next)-1, total, v)
			} else if err == nil {
				next += gap
				offs, vals = append(grow(offs, int(n)), int64(next-1)), append(grow(vals, int(n)), v)
			}
		}
		a.sparse = sortedColumns(offs, vals)
	default:
		fail("unknown layout %d", layout)
	}
	if err != nil {
		return nil, err
	}
	return &Partition{Array: a.name, Dim: int(dim), Lo: int64(lo), Hi: int64(hi), Local: a}, nil
}

// grow makes room in s, bound for n elements, for one more: at most
// growChunk at a time.
func grow[T any](s []T, n int) []T {
	if len(s) == cap(s) {
		return slices.Grow(s, min(n-len(s), growChunk))
	}
	return s
}

// Encode serializes the array as its record.
func (a *DistArray) Encode() ([]byte, error) {
	return AppendPartition(nil, &Partition{Array: a.name, Hi: a.dims[0], Local: a}), nil
}

// DecodeArray deserializes an array produced by Encode.
func DecodeArray(data []byte) (*DistArray, error) {
	p, err := DecodePartition(data)
	if err != nil {
		return nil, err
	}
	return p.Local, nil
}

// Encode serializes the partition as its record.
func (p *Partition) Encode() ([]byte, error) { return AppendPartition(nil, p), nil }

// DecodePartition deserializes a partition produced by Encode, refusing
// bytes left after its record.
func DecodePartition(data []byte) (*Partition, error) {
	r := bytes.NewReader(data)
	p, err := ReadPartition(r, math.MaxUint64)
	if err == nil && r.Len() > 0 {
		p, err = nil, fmt.Errorf("dsm: %d bytes after the record", r.Len())
	}
	return p, err
}
