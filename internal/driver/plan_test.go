package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orion/internal/check"
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
// the session's materialized plan with its partitions cut.
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
}

// TestPlanArtifactMatchesCheck: the artifact orion-plan builds for a
// program (check.Result.BuildArtifact) and the one the driver runs the
// program's loop under agree on everything but the data-balanced cuts —
// strategy, placements, time parts, prefetch spec and content hash — for
// every example program, and for MF run ordered, whose H goes down the
// wavefront over finer time cuts.
func TestPlanArtifactMatchesCheck(t *testing.T) {
	const workers = 2
	paths, err := filepath.Glob("../../examples/*/*.orion")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	mf, err := os.ReadFile("../../examples/quickstart/mf.orion")
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]string{"ordered mf": "ordered true\n" + string(mf)}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(path)] = string(src)
	}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			res := check.Source(src, check.Options{})
			want, err := res.BuildArtifact(workers)
			if err != nil {
				t.Fatal(err)
			}
			// Dense arrays weigh what their declared extents estimate, so
			// the driver plans from the sizes orion-plan assumes.
			sess, err := NewLocalSession(workers)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			env := res.Program.Env
			for array, dims := range env.Arrays {
				sess.CreateArray(array, true, dims...)
			}
			for buf, target := range env.Buffers {
				if err := sess.CreateBuffer(buf, target); err != nil {
					t.Fatal(err)
				}
			}
			for _, g := range res.Program.Globals {
				sess.SetGlobal(g, 1)
			}
			e, err := sess.planFor(res.Loop.String(), env.Ordered)
			if e == nil {
				t.Fatalf("the driver did not plan the loop: %v", err)
			}
			got := e.art
			if got.Strategy != want.Strategy || got.ContentHash != want.ContentHash {
				t.Errorf("driver planned %s %.12s, orion-plan %s %.12s", got.Strategy, got.ContentHash, want.Strategy, want.ContentHash)
			}
			if !reflect.DeepEqual(got.Arrays, want.Arrays) {
				t.Errorf("driver places %v, orion-plan %v", got.Arrays, want.Arrays)
			}
			if got.Workers != want.Workers || got.TimeParts != want.TimeParts {
				t.Errorf("driver cuts %d x %d time parts, orion-plan %d x %d", got.Workers, got.TimeParts, want.Workers, want.TimeParts)
			}
			if !reflect.DeepEqual(got.Prefetch, want.Prefetch) {
				t.Errorf("driver prefetches %+v, orion-plan %+v", got.Prefetch, want.Prefetch)
			}
		})
	}
}
