package check

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"orion/internal/diag"
	"orion/internal/dsm"
	"orion/internal/lang"
	"orion/internal/lang/vm"
)

// safeBody generates loop-body lines from patterns that are
// parallel-safe by construction: element-wise writes under the loop's
// own subscripts, row reads/writes on a single key dimension, buffered
// scatter writes, and scalar accumulators.
func safeBody(rng *rand.Rand) []string {
	var body []string
	stmt := func(s string, args ...any) { body = append(body, fmt.Sprintf(s, args...)) }
	c := func() float64 { return float64(1+rng.Intn(9)) / 4 }

	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // element-wise update of the mirror array
			stmt("    A[key[1], key[2]] = v * %g + %g", c(), c())
		case 1: // row update on one key dimension (1D/2D-safe)
			stmt("    r%d = W[:, key[1]]", i)
			stmt("    W[:, key[1]] = r%d * %g", i, c())
		case 2: // buffered scatter write (exempt from dependence analysis)
			stmt("    b%d = floor(v * 7) + 1", i)
			stmt("    h_buf[b%d] += %g", i, c())
		default: // scalar accumulator
			stmt("    acc += v * %g", c())
		}
	}
	return body
}

func loopOf(body []string) string {
	return "for (key, v) in data\n" + strings.Join(body, "\n") + "\nend\n"
}

// untypedBody splices into a safe body one construct outside the
// statically typed subset the executors compile, and returns the
// position ORN018 must name: a vector alias (at its target), a local
// assigned a scalar in one branch and a vector in the other (at the
// vector assignment's target), or a read of a name nothing declares (at
// the name).
func untypedBody(rng *rand.Rand) (body []string, line, col int) {
	body = safeBody(rng)
	at := rng.Intn(len(body) + 1)
	var bad []string
	switch rng.Intn(3) {
	case 0:
		bad = []string{"    u = W[:, key[1]]", "    q = u", "    acc += q[1]"}
		line, col = at+3, 5
	case 1:
		bad = []string{"    if v > 0.5", "        u = v", "    else", "        u = W[:, key[1]]", "    end"}
		line, col = at+5, 9
	default:
		bad = []string{"    x = undeclared * 2", "    acc += x"}
		line, col = at+2, 9
	}
	body = append(body[:at], append(bad, body[at:]...)...)
	return body, line, col
}

// propertyEnv is the environment the generated programs run in.
func propertyEnv() *lang.Env {
	return &lang.Env{
		Arrays: map[string][]int64{
			"data": {6, 5},
			"A":    {6, 5},
			"W":    {3, 6},
			"hist": {8},
		},
		Buffers: map[string]string{"h_buf": "hist"},
	}
}

// propertyArrays are fresh copies of the generated programs' arrays,
// keyed by name; data's values stay in (0,1), so generated bins
// floor(v*7)+1 land inside hist.
func propertyArrays() map[string]*dsm.DistArray {
	data := dsm.NewSparse("data", 6, 5)
	data.SetAt(0.5, 1, 2)
	data.SetAt(0.9, 4, 3)
	w := dsm.NewDense("W", 3, 6)
	w.Map(func(float64) float64 { return 0.25 })
	return map[string]*dsm.DistArray{"data": data, "A": dsm.NewDense("A", 6, 5), "W": w, "hist": dsm.NewDense("hist", 8)}
}

// TestCheckCleanProgramsRun: any program the diagnostics engine passes
// without errors must also be accepted by the legacy Analyze API and
// compile onto the VM under the same environment — vet-clean implies
// runnable on the executors' backend — and the VM must leave every
// array, the buffer's target once flushed, and the accumulator bitwise
// where the reference interpreter leaves them.
func TestCheckCleanProgramsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := propertyEnv()
	for trial := 0; trial < 200; trial++ {
		src := loopOf(safeBody(rng))
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generator emitted unparsable program:\n%s\n%v", trial, src, err)
		}
		res := Run(loop, env, Options{File: "gen.orion"})
		if res.Err() != nil {
			t.Fatalf("trial %d: safe-by-construction program rejected:\n%s\n%v", trial, src, res.Diags)
		}

		// Vet-clean ⇒ the legacy API accepts it...
		if _, err := lang.Analyze(loop, env); err != nil {
			t.Fatalf("trial %d: check passed but Analyze failed: %v\n%s", trial, err, src)
		}
		// ...the VM compiles it...
		prog, err := vm.Compile(loop, &lang.CompileEnv{Arrays: env.Arrays, Buffers: env.Buffers, Globals: lang.Accumulators(loop)})
		if err != nil {
			t.Fatalf("trial %d: check passed but vm.Compile refused: %v\n%s", trial, err, src)
		}

		// ...and runs it bitwise as the interpreter does.
		m := lang.NewMachine()
		want := propertyArrays()
		for name, a := range want {
			m.Arrays[name] = a
		}
		wantBuf := dsm.NewBuffer(want["hist"], nil)
		m.Buffers["h_buf"] = wantBuf
		m.Globals["acc"] = float64(0)
		if err := m.RunLoop(loop); err != nil {
			t.Fatalf("trial %d: check-clean program failed to execute: %v\n%s", trial, err, src)
		}
		wantBuf.Flush(want["hist"])

		k := prog.NewKernel()
		got := propertyArrays()
		for name, a := range got {
			if err := k.BindArray(name, a); err != nil {
				t.Fatal(err)
			}
		}
		gotBuf := dsm.NewBuffer(got["hist"], nil)
		if err := k.BindBuffer("h_buf", gotBuf); err != nil {
			t.Fatal(err)
		}
		k.SetGlobal("acc", 0)
		if err := k.RunLoop(); err != nil {
			t.Fatalf("trial %d: check-clean program failed on the VM: %v\n%s", trial, err, src)
		}
		gotBuf.Flush(got["hist"])

		for name, a := range want {
			a.ForEach(func(idx []int64, v float64) {
				if g := got[name].At(idx...); math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("trial %d: %s%v = %v on the VM, %v interpreted\n%s", trial, name, idx, g, v, src)
				}
			})
		}
		wantAcc, _ := m.Globals["acc"].(float64)
		if gotAcc, _ := k.Global("acc"); math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
			t.Fatalf("trial %d: acc = %v on the VM, %v interpreted\n%s", trial, gotAcc, wantAcc, src)
		}
	}
}

// TestCheckRefusesUntypedPrograms: a safe program with one construct
// outside the statically typed subset spliced in draws ORN018 at that
// construct, the pipeline stops there, and vm.Compile refuses the same
// program.
func TestCheckRefusesUntypedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	env := propertyEnv()
	for trial := 0; trial < 100; trial++ {
		body, line, col := untypedBody(rng)
		src := loopOf(body)
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generator emitted unparsable program:\n%s\n%v", trial, src, err)
		}
		res := Run(loop, env, Options{File: "gen.orion"})
		d := res.Diags.First(diag.CodeNotCompilable)
		if d == nil || d.Pos.Line != line || d.Pos.Col != col || res.Plan != nil {
			t.Fatalf("trial %d: want ORN018 at %d:%d and no plan, got %v (plan %v)\n%s", trial, line, col, res.Diags, res.Plan, src)
		}
		if _, err := vm.Compile(loop, &lang.CompileEnv{Arrays: env.Arrays, Buffers: env.Buffers, Globals: lang.Accumulators(loop)}); err == nil {
			t.Fatalf("trial %d: check refused but vm.Compile accepted:\n%s", trial, src)
		}
	}
}
