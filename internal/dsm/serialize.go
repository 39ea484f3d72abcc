package dsm

import (
	"bytes"
	"encoding/gob"
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

func (a *DistArray) wire() wireArray {
	return wireArray{Name: a.name, Dims: a.dims, Dense: a.dense, Sparse: a.sparse}
}

func fromWire(w wireArray) *DistArray {
	a := newArray(w.Name, w.Dims)
	a.dense = w.Dense
	a.sparse = w.Sparse
	return a
}

// Encode serializes the array with encoding/gob.
func (a *DistArray) Encode() ([]byte, error) { return encode(a.wire()) }

// DecodeArray deserializes an array produced by Encode.
func DecodeArray(data []byte) (*DistArray, error) {
	var w wireArray
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	return fromWire(w), nil
}

func (p *Partition) wire() wirePartition {
	return wirePartition{Array: p.Array, Dim: p.Dim, Lo: p.Lo, Hi: p.Hi, Local: p.Local.wire()}
}

func (w wirePartition) partition() *Partition {
	return &Partition{Array: w.Array, Dim: w.Dim, Lo: w.Lo, Hi: w.Hi, Local: fromWire(w.Local)}
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
	return w.partition(), nil
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
		ps[i] = w.partition()
	}
	return ps, nil
}
