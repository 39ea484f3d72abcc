package driver

import (
	"fmt"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/obs"
)

// runDemoted executes the loop serially in the driver process — the
// ORN204 fallback taken when a guarded plan's runtime predicate fails
// at dispatch. Semantics match the reference interpreter exactly: the
// body runs over the session's own DistArray copies in deterministic
// element order, DistArray Buffer writes flush at each pass boundary,
// and accumulator deltas fold into the session's accumulator base so
// Accumulate stays exact. Every array is fetched first; nothing is
// shipped to the executors, and what the pass writes re-ships at the
// next parallel loop like any other driver-side write.
func (s *Session) runDemoted(e *compiledLoop, passes int) error {
	if passes <= 0 {
		passes = 1
	}
	obs.GetCounter("driver.guard_demotions").Inc()
	if err := s.fetch("read"); err != nil {
		return err
	}

	m := lang.NewMachine()
	for name, a := range s.arrays {
		m.Arrays[name] = a
	}
	type boundBuf struct {
		buf    *dsm.Buffer
		target *dsm.DistArray
	}
	var bufs []boundBuf
	for bname, target := range s.env.Buffers {
		a, ok := m.Arrays[target].(*dsm.DistArray)
		if !ok {
			return fmt.Errorf("driver: buffer %q targets unknown array %q", bname, target)
		}
		b := dsm.NewBuffer(a, nil)
		m.Buffers[bname] = b
		bufs = append(bufs, boundBuf{buf: b, target: a})
	}
	for g, v := range s.globals {
		m.Globals[g] = v
	}
	accums := lang.Accumulators(e.loop)
	start := map[string]float64{}
	for _, a := range accums {
		if _, ok := m.Globals[a]; !ok {
			m.Globals[a] = float64(0)
		}
		start[a], _ = m.Globals[a].(float64)
	}

	for p := 0; p < passes; p++ {
		if err := m.RunLoop(e.loop); err != nil {
			return fmt.Errorf("driver: demoted serial pass %d: %w", p+1, err)
		}
		for _, b := range bufs {
			b.buf.Flush(b.target)
		}
	}

	for _, a := range accums {
		end, _ := m.Globals[a].(float64)
		s.accumBase[a] += end - start[a]
	}
	// No runtime kernel ran, so the previous loop's execution report
	// must not masquerade as this one's.
	s.mu.Lock()
	s.lastKernel = ""
	s.mu.Unlock()
	return nil
}
