package dsm

import "math"

// Stamp records exactly what an array held at one moment, so that a
// holder of something derived from it — the runtime's resident
// iteration space — can tell later whether the derivation still
// stands. A sparse array is identified by its mutation version. A
// dense array hands out live views (Vec, DenseData) that no counter
// sees, so its stamp keeps a copy of the values and compares bits.
type Stamp struct {
	a       *DistArray
	version uint64
	dense   []float64
}

// Stamp captures the array's current contents.
func (a *DistArray) Stamp() Stamp {
	return Stamp{a: a, version: a.version, dense: append([]float64(nil), a.dense...)}
}

// Holds reports whether a is the stamped array and still holds the
// stamped elements. The zero Stamp holds for nothing.
func (s Stamp) Holds(a *DistArray) bool {
	if a == nil || a != s.a || a.version != s.version || len(a.dense) != len(s.dense) {
		return false
	}
	for i, v := range a.dense {
		if math.Float64bits(v) != math.Float64bits(s.dense[i]) {
			return false
		}
	}
	return true
}
