// LDA written entirely in Orion's DSL: collapsed Gibbs sampling with an
// inner loop over topics, rand()-driven sampling, element-wise topic
// assignments in a DistArray, and the global topic totals relaxed
// through a DistArray Buffer. The driver analyzes the loop, plans it as
// 2D (doc-topic local, word-topic rotated, totals served), and runs it
// on the distributed runtime — no Go kernel anywhere.
//
// Run with: go run ./examples/lda_dsl
package main

import (
	_ "embed"
	"fmt"
	"log"
	"math"

	"orion/internal/data"
	"orion/internal/driver"
	"orion/internal/lang"
)

//go:embed lda.orion
var ldaProgram string

const (
	docs   = 120
	vocab  = 80
	topics = 6
	passes = 8
)

func main() {
	c := data.NewCorpus(data.CorpusConfig{Docs: docs, Vocab: vocab, Topics: topics, MeanDocLen: 30, Seed: 4})
	sess, err := driver.NewLocalSession(4)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	tokens := sess.CreateArray("tokens", false, docs, vocab)
	z := sess.CreateArray("z", false, docs, vocab)
	dt := sess.CreateArray("doc_topic", true, topics, docs)
	wt := sess.CreateArray("word_topic", true, topics, vocab)
	totals := sess.CreateArray("totals", true, topics)
	if err := sess.CreateBuffer("tot_buf", "totals"); err != nil {
		log.Fatal(err)
	}

	i := 0
	for d, words := range c.Words {
		seen := map[int64]bool{}
		for _, w := range words {
			if seen[w] {
				continue
			}
			seen[w] = true
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

	prog, err := lang.ParseProgram(ldaProgram)
	if err != nil {
		log.Fatal(err)
	}
	_, _, plan, err := sess.PlanOf(prog.LoopSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Plan derived from the DSL source:")
	fmt.Print(plan)

	fmt.Println("\npass  log-likelihood (higher is better)")
	for pass := 1; pass <= passes; pass++ {
		if _, err := sess.ParallelFor(prog.LoopSrc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %.1f\n", pass, logLik(sess))
	}
}

func logLik(s *driver.Session) float64 {
	dt, wt, totals := s.Array("doc_topic"), s.Array("word_topic"), s.Array("totals")
	var ll float64
	for k := int64(0); k < topics; k++ {
		g, _ := math.Lgamma(totals.At(k) + 0.1*vocab)
		ll -= g
		for w := int64(0); w < vocab; w++ {
			g, _ := math.Lgamma(wt.At(k, w) + 0.1)
			ll += g
		}
		for d := int64(0); d < docs; d++ {
			g, _ := math.Lgamma(dt.At(k, d) + 0.5)
			ll += g
		}
	}
	return ll
}
