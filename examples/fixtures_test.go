package examples

import (
	"testing"

	"orion/internal/data"
)

// TestLDAFixtureCountsAgree: the count tables NewLDA builds agree with
// its assignments — per topic, doc_topic and word_topic each sum to
// totals; the totals sum to the token count, which is z's nonzero
// count; and every assignment is a topic in 1..K.
func TestLDAFixtureCountsAgree(t *testing.T) {
	const topics = 6
	f := NewLDA(data.CorpusConfig{Docs: 120, Vocab: 80, Topics: topics, MeanDocLen: 30, Seed: 4})
	tokens, z := f.Arrays["tokens"], f.Arrays["z"]
	dt, wt, totals := f.Arrays["doc_topic"], f.Arrays["word_topic"], f.Arrays["totals"]
	if got := f.Globals["K"]; got != topics {
		t.Fatalf("K = %v, want %d", got, topics)
	}
	var sumTotals float64
	for k := int64(0); k < topics; k++ {
		var sumDT, sumWT float64
		for d := int64(0); d < dt.Dims()[1]; d++ {
			sumDT += dt.At(k, d)
		}
		for w := int64(0); w < wt.Dims()[1]; w++ {
			sumWT += wt.At(k, w)
		}
		if sumDT != totals.At(k) || sumWT != totals.At(k) {
			t.Errorf("topic %d: doc_topic sums to %v, word_topic to %v, totals reads %v", k+1, sumDT, sumWT, totals.At(k))
		}
		sumTotals += totals.At(k)
	}
	if n := tokens.Len(); n == 0 || sumTotals != float64(n) || z.Len() != n {
		t.Errorf("totals sum to %v over %d tokens and %d assignments", sumTotals, n, z.Len())
	}
	z.ForEach(func(idx []int64, v float64) {
		if v < 1 || v > topics || v != float64(int64(v)) {
			t.Errorf("z%v = %v, not a topic in 1..%d", idx, v, topics)
		}
		if tokens.At(idx...) != 1 {
			t.Errorf("z%v is assigned, but no token is there", idx)
		}
	})
}
