package driver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"orion/internal/diag"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/sched"
)

// tileSrc is the guarded tile loop (examples/guarded): parallel only
// under the synthesized predicate stride >= 8.
const tileSrc = `
for (key, v) in tiles
    for j = 1:8
        out[stride*key[1]+j] = out[stride*key[1]+j] + v
    end
    total += v
end
`

// tileBufSrc is the tile loop also reading hist and writing it through
// a DistArray Buffer, so a pass reads what the previous one flushed.
const tileBufSrc = `
for (key, v) in tiles
    for j = 1:8
        out[stride*key[1]+j] = out[stride*key[1]+j] + v * hist[key[1]]
    end
    hist_buf[key[1]] += v
    total += v
end
`

const (
	tileCount = 16
	tileOut   = 300
)

// tileArrays builds the tile loops' arrays: tiles holds 1..16, out
// zeros, and hist ones, buffered through hist_buf, when withHist.
func tileArrays(withHist bool) []*dsm.DistArray {
	in := dsm.NewDense("tiles", tileCount)
	for i := int64(0); i < tileCount; i++ {
		in.SetAt(float64(i+1), i)
	}
	arrays := []*dsm.DistArray{in, dsm.NewDense("out", tileOut)}
	if withHist {
		hist := dsm.NewDense("hist", tileCount)
		hist.Map(func(float64) float64 { return 1 })
		arrays = append(arrays, hist)
	}
	return arrays
}

func setupTile(t *testing.T, executors int, stride float64, withHist bool) *Session {
	t.Helper()
	sess, err := NewLocalSession(executors)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tileArrays(withHist) {
		sess.RegisterArray(a)
	}
	if withHist {
		if err := sess.CreateBuffer("hist_buf", "hist"); err != nil {
			t.Fatal(err)
		}
	}
	sess.SetGlobal("stride", stride)
	sess.SetGlobal("total", 0)
	return sess
}

// tileReference interprets src serially for the given stride and pass
// count, flushing hist_buf after every pass, and returns the arrays and
// the final accumulator.
func tileReference(t *testing.T, src string, stride float64, passes int, withHist bool) ([]*dsm.DistArray, float64) {
	t.Helper()
	arrays := tileArrays(withHist)
	m := lang.NewMachine()
	for _, a := range arrays {
		m.Arrays[a.Name()] = a
	}
	var buf *dsm.Buffer
	if withHist {
		buf = dsm.NewBuffer(arrays[2], nil)
		m.Buffers["hist_buf"] = buf
	}
	m.Globals["stride"] = stride
	m.Globals["total"] = float64(0)
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < passes; p++ {
		if err := m.RunLoop(loop); err != nil {
			t.Fatal(err)
		}
		if buf != nil {
			buf.Flush(arrays[2])
		}
	}
	return arrays, m.Globals["total"].(float64)
}

// diffTile names the first element of the reference arrays whose bits
// the session's copy does not carry — so NaN and -0 count — or "".
func diffTile(sess *Session, refs []*dsm.DistArray) string {
	var diff string
	for _, ref := range refs {
		got := sess.Array(ref.Name())
		ref.ForEach(func(idx []int64, v float64) {
			if g := got.At(idx...); diff == "" && math.Float64bits(g) != math.Float64bits(v) {
				diff = fmt.Sprintf("%s%v = %v, reference %v", ref.Name(), idx, g, v)
			}
		})
	}
	return diff
}

// TestDriverGuardHeldMatchesInterpreter: with stride = 16 the guard
// holds, the loop runs distributed under an Independent plan, and — the
// iterations touching pairwise disjoint windows — the result is bitwise
// identical to serial interpretation for any executor count.
func TestDriverGuardHeldMatchesInterpreter(t *testing.T) {
	const passes = 2
	for _, n := range []int{1, 3} {
		sess := setupTile(t, n, 16, false)
		pl, err := sess.ParallelFor(tileSrc, Passes(passes))
		if err != nil {
			t.Fatal(err)
		}
		if pl.Kind != sched.Independent {
			t.Fatalf("n=%d: plan kind = %v, want Independent", n, pl.Kind)
		}
		if d := sess.Diagnostics().First(diag.CodeGuarded); d == nil {
			t.Fatalf("n=%d: expected ORN203, got %v", n, sess.Diagnostics())
		}
		if d := sess.Diagnostics().First(diag.CodeGuardDemoted); d != nil {
			t.Fatalf("n=%d: guard holds, must not demote: %v", n, d)
		}
		ref, refTotal := tileReference(t, tileSrc, 16, passes, false)
		if diff := diffTile(sess, ref); diff != "" {
			t.Fatalf("n=%d: distributed guarded run differs from serial reference: %s", n, diff)
		}
		got, err := sess.Accumulate("total")
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(refTotal) {
			t.Fatalf("n=%d: accumulator = %v, want %v", n, got, refTotal)
		}
		sess.Close()
	}
}

// TestDriverGuardDemotedMatchesInterpreter: with stride = 3 the guard
// fails at dispatch; the driver emits ORN204, runs the loop as a serial
// driver-side pass on the VM, and the result — arrays and accumulators
// — is bitwise identical to the interpreter.
func TestDriverGuardDemotedMatchesInterpreter(t *testing.T) {
	const passes = 2
	sess := setupTile(t, 3, 3, false)
	defer sess.Close()
	pl, err := sess.ParallelFor(tileSrc, Passes(passes))
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil {
		t.Fatal("demoted run must still report its plan")
	}
	d := sess.Diagnostics().First(diag.CodeGuardDemoted)
	if d == nil {
		t.Fatalf("expected ORN204, got %v", sess.Diagnostics())
	}
	if d.Severity != diag.Info {
		t.Fatalf("ORN204 severity = %v, want info", d.Severity)
	}
	for _, want := range []string{"stride >= 8", "stride = 3"} {
		if !strings.Contains(d.Message, want) {
			t.Fatalf("ORN204 message %q missing %q", d.Message, want)
		}
	}
	ref, refTotal := tileReference(t, tileSrc, 3, passes, false)
	if diff := diffTile(sess, ref); diff != "" {
		t.Fatalf("demoted run differs from serial reference: %s", diff)
	}
	got, err := sess.Accumulate("total")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(refTotal) {
		t.Fatalf("accumulator after demotion = %v, want %v", got, refTotal)
	}

	// A later call with a passing stride must run distributed again —
	// demotion is per-dispatch, not sticky.
	sess.SetGlobal("stride", 11)
	if _, err := sess.ParallelFor(tileSrc, Passes(1)); err != nil {
		t.Fatal(err)
	}
	if d := sess.Diagnostics().First(diag.CodeGuardDemoted); d != nil {
		t.Fatalf("passing guard must not demote: %v", d)
	}
}

// TestDriverGuardDemotedBufferMatchesInterpreter: a demoted loop that
// writes through a DistArray Buffer flushes it after every pass, so the
// second pass reads what the first wrote — out, hist and the
// accumulator are bitwise the interpreter's, buffer flushed per pass.
func TestDriverGuardDemotedBufferMatchesInterpreter(t *testing.T) {
	const passes = 2
	sess := setupTile(t, 2, 3, true)
	defer sess.Close()
	if _, err := sess.ParallelFor(tileBufSrc, Passes(passes)); err != nil {
		t.Fatal(err)
	}
	if sess.Diagnostics().First(diag.CodeGuardDemoted) == nil {
		t.Fatalf("expected ORN204, got %v", sess.Diagnostics())
	}
	ref, refTotal := tileReference(t, tileBufSrc, 3, passes, true)
	if diff := diffTile(sess, ref); diff != "" {
		t.Fatalf("demoted run differs from serial reference: %s", diff)
	}
	if ref[2].At(0) != 3 {
		t.Fatalf("hist[1] = %v after two flushed passes, want 3", ref[2].At(0))
	}
	got, err := sess.Accumulate("total")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(refTotal) {
		t.Fatalf("accumulator after demotion = %v, want %v", got, refTotal)
	}
}
