package driver

import (
	"testing"

	"orion/internal/obs"
)

// TestPlanReusedWithinSession asserts compile-once behavior: a second
// ParallelFor over the same program must hit the session's in-memory
// artifact cache ("driver.plan_reuse") instead of re-running the static
// pipeline ("plan.builds").
func TestPlanReusedWithinSession(t *testing.T) {
	sess := setupMF(t, 3)
	defer sess.Close()

	builds := obs.GetCounter("plan.builds")
	reuse := obs.GetCounter("driver.plan_reuse")

	b0 := builds.Value()
	if _, err := sess.ParallelFor(mfSrc, Passes(1)); err != nil {
		t.Fatal(err)
	}
	if got := builds.Value() - b0; got != 1 {
		t.Fatalf("first run built %d artifacts, want 1", got)
	}

	b1, r1 := builds.Value(), reuse.Value()
	if _, err := sess.ParallelFor(mfSrc, Passes(1)); err != nil {
		t.Fatal(err)
	}
	if got := builds.Value() - b1; got != 0 {
		t.Errorf("second run re-built the plan %d times, want 0 (cache hit)", got)
	}
	if got := reuse.Value() - r1; got != 1 {
		t.Errorf("driver.plan_reuse delta = %d, want 1", got)
	}
}

// TestPlanArtifactAccessor asserts the public artifact accessor returns
// the session's materialized plan with its partitions cut and the loop
// backend recorded.
func TestPlanArtifactAccessor(t *testing.T) {
	sess := setupMF(t, 3)
	defer sess.Close()

	art, err := sess.PlanArtifact(mfSrc)
	if err != nil {
		t.Fatal(err)
	}
	if art.Strategy == "" || art.ContentHash == "" {
		t.Fatalf("artifact missing strategy/hash: %+v", art)
	}
	if art.Space.IsZero() {
		t.Fatal("driver artifact should carry a materialized space partition")
	}
	if art.WeightsDigest == "" {
		t.Fatal("driver artifact should record the weights digest it balanced on")
	}
	if art.Backend != "vm" {
		t.Fatalf("artifact records backend %q, want vm", art.Backend)
	}
}
