package main

import (
	"math/rand"
	goruntime "runtime"
	"sort"
	"time"

	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
)

// keyStream flattens the iteration space into the key and value
// slices every kernel entry point takes, in lexicographic key order —
// the order an ordered loop must preserve.
func keyStream(iter *dsm.DistArray) (keys [][]int64, vals []float64) {
	keys, vals = iter.Entries()
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		for d := range ka {
			if ka[d] != kb[d] {
				return ka[d] < kb[d]
			}
		}
		return false
	})
	sk, sv := make([][]int64, len(keys)), make([]float64, len(keys))
	for i, j := range order {
		sk[i], sv[i] = keys[j], vals[j]
	}
	return sk, sv
}

// compileEnv is the environment every backend compiles the loop
// against: the fixture's arrays, buffers, globals and accumulators.
func compileEnv(f *fixture, loop *lang.Loop) *lang.CompileEnv {
	env := &lang.CompileEnv{Arrays: map[string][]int64{}, Buffers: map[string]string{}}
	for _, a := range f.arrays {
		env.Arrays[a.Name()] = a.Dims()
	}
	for _, b := range f.buffers {
		env.Buffers[b[0]] = b[1]
	}
	for g := range f.globals {
		env.Globals = append(env.Globals, g)
	}
	sort.Strings(env.Globals)
	env.Globals = append(env.Globals, lang.Accumulators(loop)...)
	return env
}

// serialKernel is the loop bound directly to the fixture's arrays on
// the bytecode VM: no master, no executors, no partitions.
type serialKernel struct {
	k       *vm.Kernel
	buffers map[string]*dsm.Buffer
	arr     arrays
}

// kernel is what the bytecode VM's and the closure compiler's kernels
// have in common: the slots a loop is bound through.
type kernel interface {
	BindArray(name string, a lang.ArrayAccess) error
	BindBuffer(name string, b lang.BufferAccess) error
	SetGlobal(name string, v float64) bool
	SetRng(r lang.RandSource)
}

// bind binds a compiled loop directly to the fixture's arrays, with a
// dsm.Buffer (returned, keyed by target array) behind every DistArray
// Buffer. Like the executors, it leaves the iteration space unbound.
func bind(k kernel, f *fixture, loop *lang.Loop, seed int64) (map[string]*dsm.Buffer, error) {
	own := f.own()
	for _, a := range f.arrays[1:] {
		if err := k.BindArray(a.Name(), a); err != nil {
			return nil, err
		}
	}
	buffers := map[string]*dsm.Buffer{}
	for _, b := range f.buffers {
		buffers[b[1]] = dsm.NewBuffer(own(b[1]), nil)
		if err := k.BindBuffer(b[0], buffers[b[1]]); err != nil {
			return nil, err
		}
	}
	for g, v := range f.globals {
		k.SetGlobal(g, v)
	}
	for _, a := range lang.Accumulators(loop) {
		k.SetGlobal(a, 0)
	}
	k.SetRng(rand.New(rand.NewSource(seed)))
	return buffers, nil
}

func newSerialKernel(f *fixture, loop *lang.Loop, seed int64) (*serialKernel, error) {
	prog, err := vm.Compile(loop, compileEnv(f, loop))
	if err != nil {
		return nil, err
	}
	s := &serialKernel{k: prog.NewKernel(), arr: f.own()}
	if s.buffers, err = bind(s.k, f, loop, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// pass runs the whole iteration space once and applies the buffered
// writes, as the runtime does at the end of a block.
func (s *serialKernel) pass(keys [][]int64, vals []float64) error {
	if _, err := s.k.RunBlock(keys, vals, nil); err != nil {
		return err
	}
	for target, buf := range s.buffers {
		buf.Flush(s.arr(target))
	}
	return nil
}

// serialResult is the one-core baseline of a workload.
type serialResult struct {
	trainLog
	iters         int // iterations per pass
	allocsPerIter float64
}

// serialPassSeconds is the serial pass time: the lower decile of the
// samples. A serial pass is short and repeated many times, and what
// the host adds to it is only ever added, so a low quantile is far
// steadier from run to run than the median (README, "Host noise").
func serialPassSeconds(log trainLog) float64 { return percentile(seconds(log.durs), 0.1) }

// newSerial binds the loop to a fresh fixture on one core and returns
// a trainer whose pass is one run over the whole iteration space.
func newSerial(w workload, cfg config, o *ops) (*trainer, error) {
	f := w.build(cfg.seed, cfg.smoke)
	loop, err := lang.Parse(w.src)
	if err != nil {
		return nil, err
	}
	sk, err := newSerialKernel(f, loop, cfg.seed)
	if err != nil {
		return nil, err
	}
	keys, vals := keyStream(f.iterArray())
	return &trainer{f: f, cfg: cfg, ops: o, tag: "serial", arr: sk.arr,
		pass: func() error { return sk.pass(keys, vals) }}, nil
}

const (
	// serialSeconds is how much pass time runSerial samples (it always
	// makes the digestAt passes every phase makes).
	serialSeconds   = 1.5
	maxSerialPasses = 400
)

// runSerial is the serial baseline of the per-layer run: passes back
// to back, with the allocations counted.
func runSerial(w workload, cfg config, o *ops) (*serialResult, error) {
	t, err := newSerial(w, cfg, o)
	if err != nil {
		return nil, err
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var sampled time.Duration
	for n := 0; n < cfg.digestAt() || (!cfg.smoke && sampled.Seconds() < serialSeconds && n < maxSerialPasses); n++ {
		if err := t.step(); err != nil {
			return nil, err
		}
		sampled += t.log.durs[n]
	}
	goruntime.ReadMemStats(&after)
	return &serialResult{
		trainLog:      t.log,
		iters:         t.f.iters,
		allocsPerIter: float64(after.Mallocs-before.Mallocs) / float64(t.f.iters*len(t.log.durs)),
	}, nil
}
