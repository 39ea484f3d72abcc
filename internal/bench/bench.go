package bench

import (
	"fmt"
	"sort"
	"strings"

	"orion/internal/apps"
	"orion/internal/data"
	"orion/internal/engine"
	"orion/internal/metrics"
	"orion/internal/optim"
)

// Report is one experiment's output: rendered text plus the raw series.
type Report struct {
	ID     string
	Title  string
	Body   string
	Series []metrics.Series
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Body)
	return b.String()
}

// Runner executes one experiment at a scale.
type Runner func(Scale) (*Report, error)

// Experiments returns the registry of experiment runners keyed by the
// paper's table/figure ids.
func Experiments() map[string]Runner {
	return map[string]Runner{
		"table2":            Table2,
		"fig9a":             Fig9a,
		"fig9b":             Fig9b,
		"fig9c":             Fig9c,
		"table3":            Table3,
		"fig10":             Fig10,
		"fig11":             Fig11,
		"fig12":             Fig12,
		"fig13":             Fig13,
		"prefetch":          Prefetch,
		"tux2":              Tux2,
		"ablation-skew":     AblationSkew,
		"ablation-dims":     AblationDims,
		"ablation-pipeline": AblationPipeline,
	}
}

// ExperimentIDs returns the registry keys in stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0)
	for id := range Experiments() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ---- shared app builders -------------------------------------------------

func mfApp(s Scale, opt optim.Optimizer) *apps.MF {
	return apps.NewMF(data.NewRatings(s.MF), opt)
}

func ldaApp(cfg data.CorpusConfig, s Scale) *apps.LDA {
	return apps.NewLDA(data.NewCorpus(cfg), cfg.Topics, s.LDAAlpha, s.LDABeta)
}

func slrApp(s Scale) *apps.SLR {
	return apps.NewSLR(data.NewLogistic(s.SLR))
}

func baseConfig(s Scale, passes int) engine.Config {
	return engine.Config{
		Workers:       s.Workers,
		Cluster:       s.Cluster,
		Passes:        passes,
		Seed:          1,
		PipelineDepth: 2,
	}
}

// lossSeries converts a Result's loss-per-pass into iteration and time
// series.
func lossSeries(name string, r *engine.Result) (perIter, perTime metrics.Series) {
	perIter = metrics.Series{Name: name}
	perTime = metrics.Series{Name: name}
	for i := range r.Loss {
		perIter.X = append(perIter.X, float64(i+1))
		perIter.Y = append(perIter.Y, r.Loss[i])
		perTime.X = append(perTime.X, r.Time[i])
		perTime.Y = append(perTime.Y, r.Loss[i])
	}
	return perIter, perTime
}
