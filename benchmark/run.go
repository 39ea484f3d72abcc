package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"orion/internal/driver"
	"orion/internal/dsm"
	"orion/internal/runtime"
)

// workers is fixed: the benchmark measures a 2-worker fleet whatever
// the host, so numbers from different machines describe one program.
const workers = 2

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the end-to-end timed window
	smoke   bool    // tiny fixtures and two passes, for the test
	outDir  string  // where the trace file goes
}

// Every phase begins with the same single-pass calls, so the state
// after pass digestAt is comparable across phases. The first warm
// passes of a phase are trained on but not timed.
func (c config) e2eWarm() int {
	if c.smoke {
		return 1
	}
	return 2
}

func (c config) layerWarm() int { return 1 }

func (c config) layerTimed() int {
	if c.smoke {
		return 1
	}
	return 4
}

func (c config) digestAt() int { return c.layerWarm() + c.layerTimed() }

// multiPasses is the Passes(n) of the traced phase's one multi-pass call.
func (c config) multiPasses() int {
	if c.smoke {
		return 2
	}
	return 5
}

// ops counts operations — ParallelFor calls and correctness checks —
// and the ones that failed.
type ops struct {
	attempted, failed int
}

func (o *ops) record(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
	}
}

// session is a driver.Session over a counting transport.
type session struct {
	*driver.Session
	wire *wireCounts
}

// openSession starts a 2-worker session on the workload's transport
// (or loopback TCP when forceTCP), adopts the fixture's arrays and
// declares its buffers and globals.
func openSession(w workload, f *fixture, forceTCP bool) (*session, error) {
	var tr *countingTransport
	var addr string
	if w.tcp || forceTCP {
		tr, addr = newCountingTransport(runtime.TCP{}), "127.0.0.1:0"
	} else {
		tr = newCountingTransport(runtime.NewInProc())
	}
	sess, err := driver.NewLocalSessionOver(tr, addr, addr, workers)
	if err != nil {
		return nil, err
	}
	for _, a := range f.arrays {
		sess.RegisterArray(a)
	}
	for _, b := range f.buffers {
		if err := sess.CreateBuffer(b[0], b[1]); err != nil {
			sess.Close()
			return nil, err
		}
	}
	for k, v := range f.globals {
		sess.SetGlobal(k, v)
	}
	return &session{Session: sess, wire: &tr.counts}, nil
}

func (w workload) options(extra ...driver.Option) []driver.Option {
	if w.ordered {
		return append(extra, driver.Ordered())
	}
	return extra
}

// trainLog is what a sequence of single-pass calls produced.
type trainLog struct {
	durs   []time.Duration // one per ParallelFor call
	losses []float64       // losses[0] is before the first pass
	// state is a copy of every written array after pass digestAt, and
	// digest its hash.
	state  map[string]*dsm.DistArray
	digest string
}

// trainer issues single-pass calls in a closed loop: the next is
// issued when the previous returns, and the loss is evaluated between
// them, outside the timed call.
type trainer struct {
	f    *fixture
	cfg  config
	ops  *ops
	rec  *recorder
	cal  *calibrated  // when set, a reference run follows every pass
	arr  arrays       // current state of the arrays
	pass func() error // runs one pass
	log  trainLog
	tag  string // phase name, for messages
	span string // span name of one pass (when recording)
}

func (t *trainer) step() error {
	if t.log.losses == nil {
		t.log.losses = []float64{t.f.loss(t.arr)}
	}
	n := len(t.log.durs) + 1
	d, err := t.rec.do(t.span, t.pass)
	t.ops.record(fmt.Sprintf("%s pass %d", t.tag, n), err)
	if err != nil {
		return err
	}
	t.log.durs = append(t.log.durs, d)
	if t.cal != nil {
		t.cal.add(d)
	}
	t.log.losses = append(t.log.losses, t.f.loss(t.arr))
	if n == t.cfg.digestAt() {
		t.log.state = map[string]*dsm.DistArray{}
		for _, name := range t.f.written() {
			t.log.state[name] = t.arr(name).Clone()
		}
		t.log.digest = digest(t.f, t.log.state)
	}
	return nil
}

func (t *trainer) steps(n int) error {
	for i := 0; i < n; i++ {
		if err := t.step(); err != nil {
			return err
		}
	}
	return nil
}

// sessionTrainer trains through Session.ParallelFor.
func sessionTrainer(w workload, f *fixture, cfg config, o *ops, rec *recorder, sess *session, tag string) *trainer {
	return &trainer{f: f, cfg: cfg, ops: o, rec: rec, tag: tag,
		arr: sess.Array,
		pass: func() error {
			_, err := sess.ParallelFor(w.src, w.options()...)
			return err
		}}
}

// written lists the arrays the loop can change: everything but the
// iteration space.
func (f *fixture) written() []string {
	var names []string
	for _, a := range f.arrays[1:] {
		names = append(names, a.Name())
	}
	return names
}

// digest is an FNV-1a hash over the exact bits of every written array.
func digest(f *fixture, state map[string]*dsm.DistArray) string {
	h := fnv.New64a()
	var buf [16]byte
	for _, name := range f.written() {
		h.Write([]byte(name))
		a := state[name]
		if data, _ := a.DenseData(); data != nil {
			for _, v := range data {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
				h.Write(buf[:8])
			}
			continue
		}
		a.ForEach(func(idx []int64, v float64) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(a.Flatten(idx...)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v))
			h.Write(buf[:])
		})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// checkState runs the checks every phase shares: the loss moved toward
// the target on each of the first digestAt passes, every array is
// finite, and the workload's own invariants hold.
func checkState(t *trainer) {
	n := t.cfg.digestAt()
	if len(t.log.losses) <= n {
		n = len(t.log.losses) - 1
	}
	var err error
	for i := 1; i <= n; i++ {
		prev, cur := t.log.losses[i-1], t.log.losses[i]
		if (t.f.rising && !(cur > prev)) || (!t.f.rising && !(cur < prev)) {
			err = fmt.Errorf("loss went %g -> %g on pass %d", prev, cur, i)
			break
		}
	}
	t.ops.record(t.tag+" loss monotone", err)

	err = nil
	for _, name := range t.f.written() {
		t.arr(name).ForEachUntil(func(idx []int64, v float64) bool {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				err = fmt.Errorf("%s%v = %g", name, idx, v)
			}
			return err == nil
		})
	}
	t.ops.record(t.tag+" arrays finite", err)

	if t.f.invariants != nil {
		t.ops.record(t.tag+" invariants", t.f.invariants(t.arr))
	}
}

// sameState checks that two phases reached the same arrays after pass
// digestAt: bitwise, unless the workload sets a relative tolerance.
func sameState(w workload, o *ops, what string, a, b trainLog) {
	var err error
	switch {
	case a.state == nil || b.state == nil:
		err = fmt.Errorf("a phase stopped before the compared pass")
	case w.relTol > 0:
		err = closeArrays(a.state, b.state, w.relTol)
	case a.digest != b.digest:
		err = fmt.Errorf("digest %s != %s", a.digest, b.digest)
	}
	o.record(what, err)
}

func closeArrays(a, b map[string]*dsm.DistArray, tol float64) error {
	for _, name := range sortedKeys(a) {
		x, _ := a[name].DenseData()
		y, _ := b[name].DenseData()
		if x == nil || len(x) != len(y) {
			return fmt.Errorf("%s: no dense data to compare", name)
		}
		for i := range x {
			if d := math.Abs(x[i] - y[i]); d > tol*math.Max(math.Abs(x[i]), math.Abs(y[i])) {
				return fmt.Errorf("%s[%d]: %g vs %g", name, i, x[i], y[i])
			}
		}
	}
	return nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s, n := sorted(xs), len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile uses the nearest rank, so it is always one of the samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) // "  123456 kB"
			return kb / 1024
		}
	}
	return 0
}

// sortedKeys is for deterministic iteration over small maps.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
