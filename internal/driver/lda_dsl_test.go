package driver

import (
	"testing"

	"orion/examples"
	"orion/internal/sched"
)

func TestDriverLDADSLPlansAndRuns(t *testing.T) {
	const topics = 4
	sess, err := NewLocalSession(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fillLDA(t, sess, topics)
	nTokens := int64(sess.Array("tokens").Len())
	ldaLogLik := func() float64 {
		return examples.LDALogLik(sess.Array("doc_topic"), sess.Array("word_topic"), sess.Array("totals"))
	}

	spec, _, plan, err := sess.PlanOf(ldaDSL)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != sched.TwoD {
		t.Fatalf("LDA DSL plan = %v (spec %v), want 2D", plan.Kind, spec)
	}
	places := map[string]sched.Placement{}
	for _, ap := range plan.Arrays {
		places[ap.Array] = ap.Place
	}
	if places["doc_topic"] != sched.Local {
		t.Errorf("doc_topic placement = %v, want local", places["doc_topic"])
	}
	if places["word_topic"] != sched.Rotated {
		t.Errorf("word_topic placement = %v, want rotated", places["word_topic"])
	}
	if places["totals"] != sched.Served {
		t.Errorf("totals placement = %v, want served", places["totals"])
	}
	if places["z"] != sched.Local {
		t.Errorf("z placement = %v, want local", places["z"])
	}

	before := ldaLogLik()
	for pass := 0; pass < 3; pass++ {
		if _, err := sess.ParallelFor(ldaDSL); err != nil {
			t.Fatal(err)
		}
	}
	after := ldaLogLik()
	if !(after > before) {
		t.Fatalf("Gibbs sampling should improve the likelihood: %v -> %v", before, after)
	}

	// Count conservation: tokens moved between topics, never lost.
	var dtSum, wtSum, totSum float64
	for k := int64(0); k < topics; k++ {
		totSum += sess.Array("totals").At(k)
		for d := int64(0); d < sess.Array("doc_topic").Dims()[1]; d++ {
			dtSum += sess.Array("doc_topic").At(k, d)
		}
		for w := int64(0); w < sess.Array("word_topic").Dims()[1]; w++ {
			wtSum += sess.Array("word_topic").At(k, w)
		}
	}
	if dtSum != float64(nTokens) || wtSum != float64(nTokens) || totSum != float64(nTokens) {
		t.Fatalf("count conservation violated: dt=%v wt=%v tot=%v tokens=%v",
			dtSum, wtSum, totSum, nTokens)
	}

	// Every assignment is a valid topic.
	sess.Array("z").ForEach(func(_ []int64, v float64) {
		if v < 1 || v > topics {
			t.Fatalf("assignment %v outside 1..%d", v, topics)
		}
	})
}
