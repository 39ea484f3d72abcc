package plan

import (
	"encoding/binary"
	"fmt"

	"orion/internal/dep"
	"orion/internal/ir"
)

// Binary artifact format: the magic "ORNPLAN1", then the fields of
// Artifact in declaration order using a varint wire encoding — uvarint
// lengths, zigzag varint integers, length-prefixed strings. The format
// is canonical (one artifact has exactly one encoding), so the
// round-trip guarantee decode(encode(a)) == a extends to bytes:
// encode(decode(b)) == b for every valid b.

var binaryMagic = []byte("ORNPLAN1")

// Decode limits: an artifact describes one loop nest, so every count in
// a well-formed encoding is small. Inputs exceeding these are rejected
// as malformed rather than allocated.
const (
	maxString = 1 << 20 // 1 MiB of loop/prefetch source
	maxCount  = 1 << 16
)

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	e.buf = append(e.buf, b[:binary.PutUvarint(b[:], v)]...)
}

func (e *encoder) varint(v int64) {
	var b [binary.MaxVarintLen64]byte
	e.buf = append(e.buf, b[:binary.PutVarint(b[:], v)]...)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) int64s(vs []int64) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.varint(v)
	}
}

func (e *encoder) partition(p Partition) {
	e.varint(p.Extent)
	e.uvarint(uint64(p.Parts))
	e.int64s(p.Cuts)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("plan: malformed binary artifact: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) count(what string, max uint64) int {
	v := d.uvarint()
	if v > max {
		d.fail("%s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count("string", maxString)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < uint64(n) {
		d.fail("truncated string of length %d", n)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail("truncated bool")
		return false
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	if b > 1 {
		d.fail("bool byte %d", b)
	}
	return b == 1
}

func (d *decoder) int64s() []int64 {
	n := d.count("int64 slice", maxCount)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		out = append(out, d.varint())
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *decoder) partition() Partition {
	var p Partition
	p.Extent = d.varint()
	p.Parts = d.count("partition parts", maxCount)
	p.Cuts = d.int64s()
	return p
}

// EncodeBinary renders the artifact in the compact binary format.
func (a *Artifact) EncodeBinary() []byte {
	e := &encoder{buf: append([]byte(nil), binaryMagic...)}
	e.uvarint(uint64(a.Version))
	e.str(a.ContentHash)

	// Loop information record.
	l := &a.Loop
	e.str(l.Name)
	e.str(l.IterSpaceArray)
	e.int64s(l.Dims)
	e.bool(l.Ordered)
	e.uvarint(uint64(len(l.Inherited)))
	for _, s := range l.Inherited {
		e.str(s)
	}
	e.uvarint(uint64(len(l.Refs)))
	for _, r := range l.Refs {
		e.str(r.Array)
		e.bool(r.IsWrite)
		e.bool(r.Buffered)
		e.varint(int64(r.Line))
		e.varint(int64(r.Col))
		e.uvarint(uint64(len(r.Subs)))
		for _, s := range r.Subs {
			e.uvarint(uint64(s.Kind))
			e.varint(int64(s.Dim))
			e.varint(s.Const)
			e.varint(s.Lo)
			e.varint(s.Hi)
			e.bool(s.Full)
			e.varint(s.Coeff)
			e.str(s.CoeffVar)
			e.varint(s.Span)
		}
	}

	// Dependence vectors.
	e.uvarint(uint64(len(a.Deps)))
	for _, v := range a.Deps {
		e.uvarint(uint64(len(v)))
		for _, c := range v {
			e.uvarint(uint64(c.Kind))
			e.varint(c.Val)
		}
	}

	// Strategy and dims.
	e.str(a.Strategy)
	e.varint(int64(a.SpaceDim))
	e.varint(int64(a.TimeDim))
	e.uvarint(uint64(len(a.Transform)))
	for _, row := range a.Transform {
		e.int64s(row)
	}
	e.uvarint(uint64(a.Workers))
	e.uvarint(uint64(a.TimeParts))
	e.partition(a.Space)
	e.partition(a.Time)

	// Array placements.
	e.uvarint(uint64(len(a.Arrays)))
	for _, ap := range a.Arrays {
		e.str(ap.Array)
		e.str(ap.Place)
		e.varint(int64(ap.PartDim))
	}

	// Prefetch.
	e.bool(a.Prefetch != nil)
	if a.Prefetch != nil {
		e.str(a.Prefetch.Src)
		e.uvarint(uint64(len(a.Prefetch.Arrays)))
		for _, s := range a.Prefetch.Arrays {
			e.str(s)
		}
	}

	// Guard.
	e.bool(a.Guard != nil)
	if a.Guard != nil {
		e.uvarint(uint64(len(a.Guard.Atoms)))
		for _, g := range a.Guard.Atoms {
			e.str(g.Var)
			e.varint(g.Min)
		}
	}

	e.str(a.LoopSrc)
	e.str(a.WeightsDigest)
	e.str(a.Backend)
	return e.buf
}

// DecodeBinary parses the compact binary format, validating structure
// and rejecting version skew with ErrVersionSkew.
func DecodeBinary(b []byte) (*Artifact, error) {
	if len(b) < len(binaryMagic) || string(b[:len(binaryMagic)]) != string(binaryMagic) {
		return nil, fmt.Errorf("plan: not a binary artifact (missing %q magic)", binaryMagic)
	}
	d := &decoder{buf: b[len(binaryMagic):]}
	a := &Artifact{}
	a.Version = int(d.uvarint())
	if d.err == nil && a.Version != Version {
		return nil, fmt.Errorf("%w: artifact has version %d, this build expects %d", ErrVersionSkew, a.Version, Version)
	}
	a.ContentHash = d.str()

	l := &a.Loop
	l.Name = d.str()
	l.IterSpaceArray = d.str()
	l.Dims = d.int64s()
	l.Ordered = d.bool()
	if n := d.count("inherited", maxCount); d.err == nil {
		for i := 0; i < n; i++ {
			l.Inherited = append(l.Inherited, d.str())
		}
	}
	if n := d.count("refs", maxCount); d.err == nil {
		for i := 0; i < n && d.err == nil; i++ {
			var r ir.ArrayRef
			r.Array = d.str()
			r.IsWrite = d.bool()
			r.Buffered = d.bool()
			r.Line = int(d.varint())
			r.Col = int(d.varint())
			ns := d.count("subscripts", maxCount)
			for j := 0; j < ns && d.err == nil; j++ {
				var s ir.Subscript
				s.Kind = ir.SubscriptKind(d.uvarint())
				s.Dim = int(d.varint())
				s.Const = d.varint()
				s.Lo = d.varint()
				s.Hi = d.varint()
				s.Full = d.bool()
				s.Coeff = d.varint()
				s.CoeffVar = d.str()
				s.Span = d.varint()
				r.Subs = append(r.Subs, s)
			}
			l.Refs = append(l.Refs, r)
		}
	}

	if n := d.count("deps", maxCount); d.err == nil {
		for i := 0; i < n && d.err == nil; i++ {
			nc := d.count("vector components", maxCount)
			var v dep.Vector
			for j := 0; j < nc && d.err == nil; j++ {
				v = append(v, dep.Dist{Kind: dep.DistKind(d.uvarint()), Val: d.varint()})
			}
			a.Deps = append(a.Deps, v)
		}
	}

	a.Strategy = d.str()
	a.SpaceDim = int(d.varint())
	a.TimeDim = int(d.varint())
	if n := d.count("transform rows", maxCount); d.err == nil {
		for i := 0; i < n && d.err == nil; i++ {
			a.Transform = append(a.Transform, d.int64s())
		}
	}
	a.Workers = d.count("workers", maxCount)
	a.TimeParts = d.count("time parts", maxCount)
	a.Space = d.partition()
	a.Time = d.partition()

	if n := d.count("arrays", maxCount); d.err == nil {
		for i := 0; i < n && d.err == nil; i++ {
			var ap ArrayPlan
			ap.Array = d.str()
			ap.Place = d.str()
			ap.PartDim = int(d.varint())
			a.Arrays = append(a.Arrays, ap)
		}
	}

	if d.bool() {
		p := &Prefetch{Src: d.str()}
		if n := d.count("prefetch arrays", maxCount); d.err == nil {
			for i := 0; i < n && d.err == nil; i++ {
				p.Arrays = append(p.Arrays, d.str())
			}
		}
		a.Prefetch = p
	}

	if d.bool() {
		g := &dep.Guard{}
		if n := d.count("guard atoms", maxCount); d.err == nil {
			for i := 0; i < n && d.err == nil; i++ {
				g.Atoms = append(g.Atoms, dep.GuardAtom{Var: d.str(), Min: d.varint()})
			}
		}
		a.Guard = g
	}

	a.LoopSrc = d.str()
	a.WeightsDigest = d.str()
	a.Backend = d.str()

	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("plan: malformed binary artifact: %d trailing bytes", len(d.buf))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
