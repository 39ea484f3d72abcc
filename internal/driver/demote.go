package driver

import (
	"fmt"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
	"orion/internal/obs"
)

// runDemoted executes the loop serially in the driver process — the
// ORN204 fallback taken when a guarded plan's runtime predicate fails
// at dispatch. It runs the body on one VM kernel, the executors'
// backend, and its semantics match the reference interpreter exactly:
// the body runs over the session's own DistArray copies in
// deterministic element order, DistArray Buffer writes flush at each
// pass boundary, and accumulator deltas fold into the session's
// accumulator base so Accumulate stays exact. Every array is fetched
// first; nothing is shipped to the executors, and what the pass writes
// re-ships at the next parallel loop like any other driver-side write.
func (s *Session) runDemoted(e *compiledLoop, passes int) error {
	if passes <= 0 {
		passes = 1
	}
	obs.GetCounter("driver.guard_demotions").Inc()
	if err := s.fetch("read"); err != nil {
		return err
	}

	accums := lang.Accumulators(e.loop)
	globals := append([]string(nil), accums...)
	for g := range s.globals {
		globals = append(globals, g)
	}
	prog, err := vm.Compile(e.loop, &lang.CompileEnv{Arrays: s.env.Arrays, Buffers: s.env.Buffers, Globals: globals})
	if err != nil {
		return fmt.Errorf("driver: demoted serial pass: %w", err)
	}
	k := prog.NewKernel()
	for name, a := range s.arrays {
		if err := k.BindArray(name, a); err != nil {
			return fmt.Errorf("driver: demoted serial pass: %w", err)
		}
	}
	var flushes []func()
	for bname, target := range s.env.Buffers {
		a := s.arrays[target]
		b := dsm.NewBuffer(a, nil)
		if err := k.BindBuffer(bname, b); err != nil {
			return fmt.Errorf("driver: demoted serial pass: %w", err)
		}
		flushes = append(flushes, func() { b.Flush(a) })
	}
	for _, g := range globals {
		k.SetGlobal(g, s.globals[g]) // an accumulator the session never set starts at 0
	}

	for p := 0; p < passes; p++ {
		if err := k.RunLoop(); err != nil {
			return fmt.Errorf("driver: demoted serial pass %d: %w", p+1, err)
		}
		for _, flush := range flushes {
			flush()
		}
	}

	for _, a := range accums {
		end, _ := k.Global(a)
		s.accumBase[a] += end - s.globals[a]
	}
	return nil
}
