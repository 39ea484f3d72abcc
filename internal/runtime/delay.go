package runtime

import (
	"sync/atomic"
	"time"
)

// blockDelayFn holds the process-wide synthetic block delay hook
// (SetBlockDelay); nil-func when unset.
var blockDelayFn atomic.Value // of func(execID, iters int) time.Duration

// SetBlockDelay installs a synthetic per-block compute delay: after
// each kernel block finishes, executor execID sleeps for fn(execID,
// iters) *inside* its compute-timing window, so the extra time shows
// up in LoopReports as honest per-worker compute skew. The hook is
// timing-only — it never changes results — and exists to fabricate
// reproducible stragglers for the adaptive re-planning tests
// (TestChaosAdaptGenuineRecutReducesSkew in internal/driver). nil
// removes the hook.
//
//lint:ignore reach ROADMAP item 24 makes it a Chaos fault
func SetBlockDelay(fn func(execID, iters int) time.Duration) {
	if fn == nil {
		fn = func(int, int) time.Duration { return 0 }
	}
	blockDelayFn.Store(fn)
}

// blockDelay returns the configured synthetic delay (0 when unset).
func blockDelay(execID, iters int) time.Duration {
	fn, _ := blockDelayFn.Load().(func(execID, iters int) time.Duration)
	if fn == nil {
		return 0
	}
	return fn(execID, iters)
}
