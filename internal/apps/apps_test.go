package apps

import (
	"math"
	"testing"

	"orion/internal/cluster"
	"orion/internal/data"
	"orion/internal/dep"
	"orion/internal/engine"
	"orion/internal/optim"
	"orion/internal/sched"
)

func testCluster() cluster.Config {
	c := cluster.Default()
	c.Machines = 4
	c.WorkersPerMachine = 4
	c.FlopsPerSec = 1e6
	c.LatencySec = 1e-5
	return c
}

func mfApp(opt optim.Optimizer) *MF {
	r := data.NewRatings(data.RatingsConfig{
		Rows: 50, Cols: 40, NNZ: 1200, Rank: 6, Noise: 0.05, Seed: 3,
	})
	return NewMF(r, opt)
}

func TestMFSerialConverges(t *testing.T) {
	app := mfApp(optim.NewSGD(0.1))
	res := engine.RunSerial(app, engine.Config{Workers: 1, Passes: 10, Seed: 1, Cluster: testCluster()})
	if res.FinalLoss() >= res.Loss[0]*0.3 {
		t.Fatalf("MF did not converge: %v", res.Loss)
	}
}

func TestMFPlansAs2DUnordered(t *testing.T) {
	app := mfApp(optim.NewSGD(0.1))
	deps, err := dep.Analyze(app.LoopSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewFromDeps(app.LoopSpec(), deps, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != sched.TwoD {
		t.Fatalf("MF strategy = %v, want 2D", p.Kind)
	}
	if app.LoopSpec().Ordered {
		t.Fatal("MF loop should be unordered")
	}
}

func TestMFAdaRevConverges(t *testing.T) {
	app := mfApp(optim.NewAdaRev(0.5))
	res := engine.RunSerial(app, engine.Config{Workers: 1, Passes: 10, Seed: 1, Cluster: testCluster()})
	if res.FinalLoss() >= res.Loss[0] {
		t.Fatalf("MF AdaRev did not improve: %v", res.Loss)
	}
}

func TestMFOrionMatchesSerial(t *testing.T) {
	passes := 6
	serial := engine.RunSerial(mfApp(optim.NewSGD(0.1)),
		engine.Config{Workers: 1, Passes: passes, Seed: 1, Cluster: testCluster()})
	orion, _, err := engine.RunOrion(mfApp(optim.NewSGD(0.1)),
		engine.Config{Workers: 8, Passes: passes, Seed: 1, Cluster: testCluster(), PipelineDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := orion.FinalLoss() / serial.FinalLoss()
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("orion MF convergence should match serial: %v vs %v", orion.FinalLoss(), serial.FinalLoss())
	}
}

func ldaApp() *LDA {
	c := data.NewCorpus(data.CorpusConfig{
		Docs: 60, Vocab: 50, Topics: 4, MeanDocLen: 30, Seed: 5,
	})
	return NewLDA(c, 4, 0.5, 0.1)
}

func TestLDACountsConsistent(t *testing.T) {
	app := ldaApp()
	tables := app.Init(1)
	dt, wt, tt := tables[0], tables[1], tables[2]
	var tokens float64
	for _, ws := range app.corpus.Words {
		tokens += float64(len(ws))
	}
	sumTable := func(a interface{ Vec(...int64) []float64 }, rows int64) float64 {
		var s float64
		for r := int64(0); r < rows; r++ {
			for _, v := range a.Vec(r) {
				s += v
			}
		}
		return s
	}
	if got := sumTable(dt, app.corpus.Docs); got != tokens {
		t.Fatalf("doc-topic counts sum %v, want %v", got, tokens)
	}
	if got := sumTable(wt, app.corpus.Vocab); got != tokens {
		t.Fatalf("word-topic counts sum %v, want %v", got, tokens)
	}
	if got := sumTable(tt, 1); got != tokens {
		t.Fatalf("totals sum %v, want %v", got, tokens)
	}
}

func TestLDASerialImprovesLikelihood(t *testing.T) {
	app := ldaApp()
	res := engine.RunSerial(app, engine.Config{Workers: 1, Passes: 8, Seed: 1, Cluster: testCluster()})
	if math.IsNaN(res.FinalLoss()) || math.IsInf(res.FinalLoss(), 0) {
		t.Fatalf("LDA loss degenerate: %v", res.Loss)
	}
	if res.FinalLoss() >= res.Loss[0] {
		t.Fatalf("Gibbs sampling should improve the collapsed likelihood: %v", res.Loss)
	}
}

func TestLDAPlansAs2D(t *testing.T) {
	app := ldaApp()
	deps, err := dep.Analyze(app.LoopSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.NewFromDeps(app.LoopSpec(), deps, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != sched.TwoD {
		t.Fatalf("LDA strategy = %v (deps %v), want 2D — the buffered totals write must be exempt",
			p.Kind, deps)
	}
}

func TestLDAOrionComparableToSerial(t *testing.T) {
	passes := 5
	serial := engine.RunSerial(ldaApp(), engine.Config{Workers: 1, Passes: passes, Seed: 1, Cluster: testCluster()})
	orion, _, err := engine.RunOrion(ldaApp(), engine.Config{Workers: 4, Passes: passes, Seed: 1, Cluster: testCluster(), PipelineDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Both should land in the same likelihood ballpark (Fig. 9c).
	diff := math.Abs(orion.FinalLoss()-serial.FinalLoss()) / math.Abs(serial.FinalLoss())
	if diff > 0.05 {
		t.Fatalf("orion LDA likelihood diverges from serial: %v vs %v", orion.FinalLoss(), serial.FinalLoss())
	}
}

func slrApp() *SLR {
	return NewSLR(data.NewLogistic(data.LogisticConfig{Samples: 400, Dim: 100, NNZPer: 8, Seed: 7}))
}

func TestTable2Strategies(t *testing.T) {
	// The Table 2 "Parallelizations" column: what the analyzer picks
	// for each app.
	mf := mfApp(optim.NewSGD(0.1))
	if p, _ := sched.New(mf.LoopSpec(), sched.DefaultOptions()); p.Kind != sched.TwoD {
		t.Errorf("MF: %v, want 2D", p.Kind)
	}
	lda := ldaApp()
	if p, _ := sched.New(lda.LoopSpec(), sched.DefaultOptions()); p.Kind != sched.TwoD {
		t.Errorf("LDA: %v, want 2D", p.Kind)
	}
	slr := slrApp()
	if p, _ := sched.New(slr.LoopSpec(), sched.DefaultOptions()); p.Kind != sched.Independent {
		t.Errorf("SLR: %v, want independent (data parallelism)", p.Kind)
	}
}

func TestGBTPlansAs1D(t *testing.T) {
	p, err := sched.New(GBTSplitSearch(8), sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != sched.Independent && p.Kind != sched.OneD {
		t.Fatalf("GBT split search should be 1D/independent, got %v", p.Kind)
	}
}
