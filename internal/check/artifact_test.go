package check

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"orion/internal/diag"
	"orion/internal/plan"
)

func readExample(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBuildArtifact(t *testing.T) {
	src := readExample(t, "../../examples/quickstart/mf.orion")
	res := Source(src, Options{File: "mf.orion"})
	if res.Err() != nil {
		t.Fatal(res.Err())
	}
	art, err := res.BuildArtifact(4)
	if err != nil {
		t.Fatal(err)
	}
	if art.Strategy == "" || art.ContentHash == "" || art.LoopSrc == "" {
		t.Fatalf("artifact missing fields: %+v", art)
	}
	// Static vetting has no data: partitions are uniform and the digest
	// is empty so consumers re-balance from real histograms.
	if art.WeightsDigest != "" {
		t.Errorf("static artifact should not claim a weights digest, got %q", art.WeightsDigest)
	}
	// Building twice is deterministic.
	art2, err := res.BuildArtifact(4)
	if err != nil {
		t.Fatal(err)
	}
	if art.ContentHash != art2.ContentHash {
		t.Error("BuildArtifact is not deterministic")
	}
}

func TestBuildArtifactNeedsPlan(t *testing.T) {
	res := Source("for (key, v) in nowhere\n    x = v\nend\n", Options{File: "bad.orion"})
	if _, err := res.BuildArtifact(4); err == nil {
		t.Fatal("BuildArtifact on a failed run should error")
	}
}

// TestCheckArtifactFresh: an artifact compiled from the program it is
// checked against produces no ORN108.
func TestCheckArtifactFresh(t *testing.T) {
	src := readExample(t, "../../examples/quickstart/mf.orion")
	res := Source(src, Options{File: "mf.orion"})
	art, err := res.BuildArtifact(4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	vet := CheckArtifact(blob, "mf.plan.json", src, Options{File: "mf.orion"})
	if d := vet.Diags.First(diag.CodeStalePlan); d != nil {
		t.Fatalf("fresh artifact flagged stale: %v", d)
	}
}

// TestCheckArtifactStale: checking an artifact against a different
// program reports a positioned ORN108 error at the loop, rendered with
// a source caret.
func TestCheckArtifactStale(t *testing.T) {
	mf := readExample(t, "../../examples/quickstart/mf.orion")
	stencil := readExample(t, "../../examples/wavefront/stencil.orion")
	res := Source(mf, Options{File: "mf.orion"})
	art, err := res.BuildArtifact(4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	vet := CheckArtifact(blob, "mf.plan.json", stencil, Options{File: "stencil.orion"})
	d := vet.Diags.First(diag.CodeStalePlan)
	if d == nil {
		t.Fatalf("stale artifact not flagged: %v", vet.Diags)
	}
	if d.Severity != diag.Error {
		t.Errorf("ORN108 severity = %v, want error", d.Severity)
	}
	if !d.Pos.IsValid() || d.Pos.File != "stencil.orion" {
		t.Errorf("ORN108 should be positioned at the loop, got %v", d.Pos)
	}
	if !strings.Contains(d.Message, "content hash") {
		t.Errorf("ORN108 message should name the hash mismatch: %s", d.Message)
	}
	if d.Note == "" {
		t.Error("ORN108 must carry a fix note")
	}

	var b strings.Builder
	diag.Render(&b, vet.Diags, map[string]string{"stencil.orion": stencil})
	rendered := b.String()
	if !strings.Contains(rendered, "error[ORN108]") {
		t.Errorf("rendered output missing ORN108:\n%s", rendered)
	}
	if !strings.Contains(rendered, "stencil.orion:") || !strings.Contains(rendered, "^") {
		t.Errorf("ORN108 should render with a positioned source caret:\n%s", rendered)
	}
}

// TestCheckArtifactMalformed: undecodable blobs and version skew are
// ORN108 errors positioned at the artifact file.
func TestCheckArtifactMalformed(t *testing.T) {
	src := readExample(t, "../../examples/quickstart/mf.orion")

	vet := CheckArtifact([]byte("not a plan"), "junk.plan", src, Options{File: "mf.orion"})
	d := vet.Diags.First(diag.CodeStalePlan)
	if d == nil {
		t.Fatalf("malformed artifact not flagged: %v", vet.Diags)
	}
	if d.Pos.File != "junk.plan" {
		t.Errorf("decode failure should be positioned at the artifact, got %v", d.Pos)
	}

	res := Source(src, Options{File: "mf.orion"})
	art, err := res.BuildArtifact(4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(blob), fmt.Sprintf(`"version": %d`, plan.Version), `"version": 99`, 1)
	vet = CheckArtifact([]byte(skewed), "old.plan.json", src, Options{File: "mf.orion"})
	d = vet.Diags.First(diag.CodeStalePlan)
	if d == nil {
		t.Fatalf("version-skewed artifact not flagged: %v", vet.Diags)
	}
	if !strings.Contains(d.Message, "schema version") {
		t.Errorf("skew message should name the schema version: %s", d.Message)
	}
}
