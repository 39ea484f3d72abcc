package bench

import (
	"strings"
	"testing"
)

// TestAllExperimentsRunAtSmallScale executes every registered
// experiment at the small scale and checks that each produces a
// non-empty report with no SHAPE MISMATCH markers.
func TestAllExperimentsRunAtSmallScale(t *testing.T) {
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
