package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"orion/examples"
	"orion/internal/lang"
	"orion/internal/runtime"
)

// mfLoop is the loop source orion-run ships for -app mf.
func mfLoop(t *testing.T) string {
	t.Helper()
	prog, err := lang.ParseProgram(examples.MF)
	if err != nil {
		t.Fatal(err)
	}
	return prog.LoopSrc
}

// A worker dying mid-loop must surface as a positioned ORN301
// diagnostic plus a non-nil (→ non-zero exit) error, never as a
// successful run over partial results.
func TestRenderWorkerLostDiagnostic(t *testing.T) {
	lost := fmt.Errorf("runtime: executor 1 connection failed (EOF): %w", runtime.ErrWorkerLost)
	var buf bytes.Buffer
	err := renderWorkerLost(&buf, "mf", mfLoop(t), lost)
	if err == nil {
		t.Fatal("renderWorkerLost returned nil for a lost worker")
	}
	if !errors.Is(err, runtime.ErrWorkerLost) {
		t.Fatalf("returned error %v does not wrap ErrWorkerLost", err)
	}
	out := buf.String()
	if !strings.Contains(out, "ORN301") {
		t.Fatalf("diagnostic output missing ORN301:\n%s", out)
	}
	if !strings.Contains(out, "mf.dsl:2") {
		t.Fatalf("diagnostic not positioned at the loop header (mf.dsl:2):\n%s", out)
	}
	if !strings.Contains(out, "for (key, rv) in ratings") {
		t.Fatalf("diagnostic missing the source context line:\n%s", out)
	}
}

// Unrelated ParallelFor errors must pass through untouched and render
// nothing.
func TestRenderWorkerLostPassthrough(t *testing.T) {
	plain := errors.New("some planning failure")
	var buf bytes.Buffer
	if err := renderWorkerLost(&buf, "mf", mfLoop(t), plain); err != plain {
		t.Fatalf("non-worker-lost error rewritten: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unexpected diagnostic output: %s", buf.String())
	}
}
