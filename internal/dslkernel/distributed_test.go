package dslkernel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"orion/examples"
	"orion/internal/data"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/runtime"
	"orion/internal/sched"
)

// exampleLoop is the loop of a committed example program, without its
// preamble.
func exampleLoop(t *testing.T, program string) string {
	prog, err := lang.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Loop.String()
}

// iterSamples flattens an iteration array into samples in offset
// order, as the driver ships them.
func iterSamples(a *dsm.DistArray) (out []runtime.IterSample) {
	a.ForEach(func(idx []int64, v float64) {
		out = append(out, runtime.IterSample{Key: slices.Clone(idx), Val: v})
	})
	return out
}

// placedApp is a loop placed on a raw-runtime fleet as the driver plans
// it: an unordered 2D loop whose space dimension is 0 and time
// dimension 1, so rows follow the space cuts and columns rotate.
type placedApp struct {
	name       string
	src        string // program file
	globals    map[string]float64
	rows, cols int64
	samples    []runtime.IterSample
	// place distributes every array but the iteration space.
	place func(m *runtime.Master, space, time []int64) error
	// arrays are the ones compared after the run.
	arrays []string
}

// mfApp: dense W local, H rotated, the quickstart body.
func mfApp(t *testing.T) placedApp {
	const rows, cols, rank = 40, 30, 6
	f := examples.NewMF(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 600, Rank: rank, Noise: 0.05, Seed: 3})
	w, h := f.Arrays["W"], f.Arrays["H"]
	return placedApp{
		name: "mf",
		src: fmt.Sprintf("array ratings %d %d\narray W %d %d\narray H %d %d\nglobal step_size\n---\n", rows, cols, rank, rows, rank, cols) +
			exampleLoop(t, examples.MF),
		globals: map[string]float64{"step_size": 0.05},
		rows:    rows, cols: cols, samples: iterSamples(f.Arrays["ratings"]),
		place: func(m *runtime.Master, space, time []int64) error {
			return errors.Join(m.DistributeLocal(w.Clone(), 1, space), m.DistributeRotatedAt(h.Clone(), 1, time, 0))
		},
		arrays: []string{"W", "H"},
	}
}

// ldaApp: sparse z and doc_topic local, word_topic rotated, totals
// served and updated through tot_buf, rand() in the body.
func ldaApp(t *testing.T) placedApp {
	const docs, vocab, topics = 40, 30, 4
	f := examples.NewLDA(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: topics, MeanDocLen: 20, Seed: 4})
	z, dt, wt, totals := f.Arrays["z"], f.Arrays["doc_topic"], f.Arrays["word_topic"], f.Arrays["totals"]
	return placedApp{
		name: "lda",
		src: fmt.Sprintf("array tokens %d %d\narray z %d %d\narray doc_topic %d %d\narray word_topic %d %d\narray totals %d\n",
			docs, vocab, docs, vocab, topics, docs, topics, vocab, topics) +
			"buffer tot_buf totals\nglobal K alpha beta vbeta\n---\n" + exampleLoop(t, examples.LDA),
		globals: f.Globals,
		rows:    docs, cols: vocab, samples: iterSamples(f.Arrays["tokens"]),
		place: func(m *runtime.Master, space, time []int64) error {
			return errors.Join(m.DistributeLocal(z.Clone(), 0, space), m.DistributeLocal(dt.Clone(), 1, space),
				m.DistributeRotatedAt(wt.Clone(), 1, time, 0), m.DistributeServed(totals.Clone()))
		},
		arrays: []string{"z", "doc_topic", "word_topic", "totals"},
	}
}

// runApp runs app for three passes on a fresh fleet of n executors
// compiling loops with compile, over loopback TCP or in-process pipes,
// and returns the bits of every element of the arrays it compares and
// of every accumulator.
func runApp(t *testing.T, app placedApp, n int, compile runtime.LoopCompiler, tcp bool) map[string]uint64 {
	t.Helper()
	runtime.SetLoopCompiler(compile)
	defer Install()
	m, stop := startFleet(t, fmt.Sprintf("%s-tcp%v", app.name, tcp), n, tcp)
	space, timeCut := sched.NewRangePartitioner(app.rows, n), sched.NewRangePartitioner(app.cols, n)
	cuts := func(p *sched.Partitioner) (out []int64) {
		for k := 0; k < n-1; k++ {
			_, hi := p.Bounds(k)
			out = append(out, hi)
		}
		return out
	}
	def := defineMsg(t, app.name, app.src)
	for i, g := range def.GlobalNames {
		def.GlobalVals[i] = app.globals[g]
	}
	for _, err := range []error{
		app.place(m, cuts(space), cuts(timeCut)),
		m.DistributeIterSpace(app.samples, 0, space),
		m.DefineLoop(def),
		m.ParallelFor(runtime.LoopDef{Kernel: def.LoopName, TimeDim: 1, TimePart: timeCut, Rotate: true, Passes: 3}),
	} {
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
	}
	bits := map[string]uint64{}
	for _, name := range def.AccumNames {
		v, err := m.AccumSum(name)
		if err != nil {
			t.Fatal(err)
		}
		bits[name] = math.Float64bits(v)
	}
	for _, name := range app.arrays {
		a, err := m.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		a.ForEach(func(idx []int64, v float64) {
			bits[fmt.Sprint(name, idx)] = math.Float64bits(v)
		})
	}
	if err := stop(); err != nil {
		t.Fatalf("%s: executor exit: %v", app.name, err)
	}
	return bits
}

// equalBits fails unless got holds exactly want's elements and bits.
func equalBits(t *testing.T, what string, got, want map[string]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for at, bits := range want {
		if got[at] != bits {
			t.Fatalf("%s: %s = %x, want %x", what, at, got[at], bits)
		}
	}
}

// TestDriverBackendsBitwiseEqualDistributed: three executors, three
// passes, partitions rotating — the VM, which runs each block on the
// partitions bound into it as dense windows, leaves every array and
// accumulator bit-identical to the reference interpreter
// (referenceCompile), which asks the executor for the partition on every
// access, for MF (dense W local, H rotated) and LDA (sparse z, rotated
// counts, totals served through a buffer, rand() in the body). Over
// loopback TCP the VM leaves them bit-identical to the VM over
// in-process pipes.
func TestDriverBackendsBitwiseEqualDistributed(t *testing.T) {
	const executors = 3
	for _, app := range []placedApp{mfApp(t), ldaApp(t)} {
		vm := runApp(t, app, executors, Compile, false)
		equalBits(t, app.name+": the VM against the interpreter", vm, runApp(t, app, executors, referenceCompile, false))
		if !testing.Short() { // real sockets
			equalBits(t, app.name+": the VM over TCP against in-process", runApp(t, app, executors, Compile, true), vm)
		}
	}
}
