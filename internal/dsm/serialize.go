package dsm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
)

// wireArray is the gob wire form of a DistArray.
type wireArray struct {
	Name   string
	Dims   []int64
	Dense  []float64
	Sparse map[int64]float64
}

// wirePartition is the gob wire form of a Partition.
type wirePartition struct {
	Array string
	Dim   int
	Lo    int64
	Hi    int64
	Local wireArray
}

// wire is the array's wire form. A sparse array's columns travel as a
// map of its stored elements.
func (a *DistArray) wire() wireArray {
	w := wireArray{Name: a.name, Dims: a.dims, Dense: a.dense}
	if !a.IsDense() {
		w.Sparse = make(map[int64]float64, a.sparse.nnz)
		a.sparse.walk(func(off int64, v float64) bool {
			w.Sparse[off] = v
			return true
		})
	}
	return w
}

// fromWire rebuilds a decoded array. Its extents must be positive and
// their product representable, a dense array's payload must fill them
// exactly — a short one would fault on the first access past it — and
// a sparse array's offsets must lie inside them.
func fromWire(w wireArray) (*DistArray, error) {
	total := int64(1)
	for _, d := range w.Dims {
		if d <= 0 || total > math.MaxInt64/d {
			return nil, fmt.Errorf("dsm: decoded array %q has extents %v", w.Name, w.Dims)
		}
		total *= d
	}
	if len(w.Dims) == 0 {
		return nil, fmt.Errorf("dsm: decoded array %q has no extents", w.Name)
	}
	if w.Sparse == nil && int64(len(w.Dense)) != total {
		return nil, fmt.Errorf("dsm: decoded dense array %q carries %d values for extents %v", w.Name, len(w.Dense), w.Dims)
	}
	a := newArray(w.Name, w.Dims)
	if w.Sparse == nil {
		a.dense = w.Dense
		return a, nil
	}
	offs := make([]int64, 0, len(w.Sparse))
	for off, v := range w.Sparse {
		if off < 0 || off >= total {
			return nil, fmt.Errorf("dsm: decoded sparse array %q has offset %d outside extents %v", w.Name, off, w.Dims)
		}
		if v != 0 {
			offs = append(offs, off)
		}
	}
	slices.Sort(offs)
	vals := make([]float64, len(offs))
	for i, off := range offs {
		vals[i] = w.Sparse[off]
	}
	a.sparse = sortedColumns(offs, vals)
	return a, nil
}

// Encode serializes the array with encoding/gob.
func (a *DistArray) Encode() ([]byte, error) { return encode(a.wire()) }

// DecodeArray deserializes an array produced by Encode.
func DecodeArray(data []byte) (*DistArray, error) {
	var w wireArray
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	return fromWire(w)
}

func (p *Partition) wire() wirePartition {
	return wirePartition{Array: p.Array, Dim: p.Dim, Lo: p.Lo, Hi: p.Hi, Local: p.Local.wire()}
}

func (w wirePartition) partition() (*Partition, error) {
	local, err := fromWire(w.Local)
	if err != nil {
		return nil, err
	}
	return &Partition{Array: w.Array, Dim: w.Dim, Lo: w.Lo, Hi: w.Hi, Local: local}, nil
}

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode serializes the partition with encoding/gob.
func (p *Partition) Encode() ([]byte, error) { return encode(p.wire()) }

// DecodePartition deserializes a partition produced by Encode.
func DecodePartition(data []byte) (*Partition, error) {
	var w wirePartition
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	return w.partition()
}

// EncodePartitions serializes any number of partitions, none included,
// as one blob: what one worker holds of an array.
func EncodePartitions(ps []*Partition) ([]byte, error) {
	ws := make([]wirePartition, len(ps))
	for i, p := range ps {
		ws[i] = p.wire()
	}
	return encode(ws)
}

// DecodePartitions deserializes partitions produced by EncodePartitions.
func DecodePartitions(data []byte) ([]*Partition, error) {
	var ws []wirePartition
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ws); err != nil {
		return nil, err
	}
	ps := make([]*Partition, len(ws))
	for i, w := range ws {
		p, err := w.partition()
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}
