package bench

import (
	"flag"
	"strings"
	"testing"
)

// TestAllExperimentsRunAtSmallScale executes every registered
// experiment at the small scale and checks that each produces a
// non-empty report with no SHAPE MISMATCH markers.
func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	// The obs, vm and transport entries ignore Scale: they time real
	// code with testing.Benchmark, a second per measurement by default.
	// One iteration each proves their measurement and report paths work;
	// the numbers that matter are the committed BENCH_*.json baselines.
	benchtime := flag.Lookup("test.benchtime")
	defer flag.Set("test.benchtime", benchtime.Value.String())
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	s := Small()
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Experiments()[id](s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.Body == "" {
				t.Fatalf("%s: empty report", id)
			}
			if strings.Contains(rep.Body, "SHAPE MISMATCH") {
				t.Errorf("%s: shape check failed:\n%s", id, rep.Body)
			}
		})
	}
}

func TestExperimentIDsStable(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(Experiments()) {
		t.Fatal("id count mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not sorted")
		}
	}
}
