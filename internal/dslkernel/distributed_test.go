package dslkernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"orion/internal/data"
	"orion/internal/driver"
	"orion/internal/dslkernel"
	"orion/internal/lang"
	"orion/internal/obs"
	"orion/internal/runtime"
)

// exampleLoop is the loop of a shipped example program, without its
// preamble.
func exampleLoop(t *testing.T, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseProgram(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return prog.Loop.String()
}

// fillMF and fillLDA declare the driver tests' MF and LDA problems
// (same sizes and seeds).
func fillMF(t *testing.T, sess *driver.Session) {
	const rows, cols, rank = 40, 30, 6
	ds := data.NewRatings(data.RatingsConfig{Rows: rows, Cols: cols, NNZ: 600, Rank: rank, Noise: 0.05, Seed: 3})
	ratings := sess.CreateArray("ratings", false, rows, cols)
	for i := range ds.I {
		ratings.SetAt(ds.V[i], ds.I[i], ds.J[i])
	}
	rng := rand.New(rand.NewSource(1))
	sess.CreateArray("W", true, rank, rows).FillRandn(rng, 1.0/rank)
	sess.CreateArray("H", true, rank, cols).FillRandn(rng, 1.0)
	sess.SetGlobal("step_size", 0.05)
	sess.SetGlobal("err", 0)
}

func fillLDA(t *testing.T, sess *driver.Session) {
	const docs, vocab, topics = 40, 30, 4
	c := data.NewCorpus(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: topics, MeanDocLen: 20, Seed: 4})
	tokens := sess.CreateArray("tokens", false, docs, vocab)
	z := sess.CreateArray("z", false, docs, vocab)
	dt := sess.CreateArray("doc_topic", true, topics, docs)
	wt := sess.CreateArray("word_topic", true, topics, vocab)
	totals := sess.CreateArray("totals", true, topics)
	if err := sess.CreateBuffer("tot_buf", "totals"); err != nil {
		t.Fatal(err)
	}
	i := 0
	for d, words := range c.Words {
		for _, w := range words {
			if tokens.At(int64(d), w) != 0 {
				continue
			}
			tokens.SetAt(1, int64(d), w)
			topic := int64(i%topics) + 1
			z.SetAt(float64(topic), int64(d), w)
			dt.AddAt(1, topic-1, int64(d))
			wt.AddAt(1, topic-1, w)
			totals.AddAt(1, topic-1)
			i++
		}
	}
	sess.SetGlobal("K", topics)
	sess.SetGlobal("alpha", 0.5)
	sess.SetGlobal("beta", 0.1)
	sess.SetGlobal("vbeta", 0.1*vocab)
}

// TestDriverBackendsBitwiseEqualDistributed: three workers, three
// passes, partitions rotating — the VM, which runs each block on the
// partitions bound into it as dense windows, and the interpreter, which
// asks the executor for the partition on every access, leave every
// array bit-identical, for MF (dense W local, H rotated) and LDA (sparse
// z, rotated counts, totals served through a buffer, rand() in the
// body), over in-process pipes and loopback TCP. Both loops lie inside
// the VM's subset, so the interpreter leg is forced through
// InterpretOnly, and the kernel counters confirm which backend each leg
// ran on.
func TestDriverBackendsBitwiseEqualDistributed(t *testing.T) {
	const executors = 3
	apps := []struct {
		name   string
		src    string
		fill   func(*testing.T, *driver.Session)
		arrays []string
	}{
		{"mf", exampleLoop(t, "../../examples/quickstart/mf.orion"), fillMF, []string{"W", "H"}},
		{"lda", exampleLoop(t, "../../examples/lda_dsl/lda.orion"), fillLDA, []string{"z", "doc_topic", "word_topic", "totals"}},
	}
	for _, tcp := range []bool{false, true} {
		if tcp && testing.Short() {
			continue // real sockets
		}
		for _, app := range apps {
			run := func(backend string) map[string]uint64 {
				counter := obs.GetCounter("kernel.vm")
				if backend == "interp" {
					defer dslkernel.InterpretOnly()()
					counter = obs.GetCounter("kernel.interp_fallback")
				}
				c0 := counter.Value()
				var tr runtime.Transport = runtime.NewInProc()
				addr := ""
				if tcp {
					tr, addr = runtime.TCP{}, "127.0.0.1:0"
				}
				sess, err := driver.NewLocalSessionOver(tr, addr, addr, executors)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				app.fill(t, sess)
				if _, err := sess.ParallelFor(app.src, driver.Passes(3)); err != nil {
					t.Fatalf("%s tcp=%v backend %s: %v", app.name, tcp, backend, err)
				}
				if got := counter.Value() - c0; got != executors {
					t.Fatalf("%s tcp=%v: %d of %d executors compiled the loop for the %s backend", app.name, tcp, got, executors, backend)
				}
				bits := map[string]uint64{}
				for _, name := range app.arrays {
					sess.Array(name).ForEach(func(idx []int64, v float64) {
						bits[fmt.Sprint(name, idx)] = math.Float64bits(v)
					})
				}
				return bits
			}
			interp, vm := run("interp"), run("vm")
			if len(vm) != len(interp) {
				t.Fatalf("%s tcp=%v: %d elements on the VM, %d interpreted", app.name, tcp, len(vm), len(interp))
			}
			for at, bits := range interp {
				if vm[at] != bits {
					t.Fatalf("%s tcp=%v: %s = %x on the VM, %x interpreted", app.name, tcp, at, vm[at], bits)
				}
			}
		}
	}
}
