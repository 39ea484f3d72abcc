// Package bufpool pools the large payload slices of the runtime's
// transport hot path. Rotation frames decode straight into pooled
// float64 storage that a dsm.Partition adopts; once an executor has
// sent a dense partition on, it returns the storage here — so a
// steady-state rotation ring recycles a fixed set of buffers instead of
// allocating one partition payload per message.
//
// Ownership discipline: a Get hands the caller exclusive ownership of
// the slice; Put transfers it back. Callers must never Put a slice
// while anything can still read through it.
package bufpool

import "sync"

// Slices travel through f64Pool behind pointers, and the emptied
// pointers wait in headers for the next Put, so neither Get nor Put
// allocates in the steady state.
var (
	f64Pool = sync.Pool{New: func() any { return new([]float64) }}
	headers = sync.Pool{New: func() any { return new([]float64) }}
)

// GetF64 returns a float64 slice of length n with unspecified
// contents (callers overwrite every element).
func GetF64(n int) []float64 {
	p := f64Pool.Get().(*[]float64)
	s := *p
	*p = nil
	headers.Put(p)
	if cap(s) < n {
		s = make([]float64, n)
	}
	return s[:n]
}

// PutF64 returns a slice obtained from GetF64 (or any slice the
// caller owns outright) to the pool.
func PutF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	p := headers.Get().(*[]float64)
	*p = s[:0]
	f64Pool.Put(p)
}
