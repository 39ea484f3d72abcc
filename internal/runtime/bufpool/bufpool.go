// Package bufpool pools the large payload slices of the runtime's
// transport hot path. Rotation frames decode straight into pooled
// float64 storage that a dsm.Partition then adopts; when the next
// rotation replaces that partition, the executor returns the storage
// here — so a steady-state rotation ring recycles a fixed set of
// buffers instead of allocating one partition payload per message.
//
// Ownership discipline: a Get hands the caller exclusive ownership of
// the slice; Put transfers it back. Callers must never Put a slice
// while anything can still read through it (the msgretain lint flags
// retained aliases of pooled transport payloads).
package bufpool

import "sync"

var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

// GetF64 returns a float64 slice of length n with unspecified
// contents (callers overwrite every element).
func GetF64(n int) []float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return (*p)[:n]
}

// PutF64 returns a slice obtained from GetF64 (or any slice the
// caller owns outright) to the pool.
func PutF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	f64Pool.Put(&s)
}
