package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary byte strings through the DSL front end. The
// invariants: the parser never panics, and any program it accepts
// round-trips — String() re-parses to an identical rendering (the
// property the DefineLoop wire protocol relies on). Its seeds, real
// example loops and a few degenerate ones, are the files in
// testdata/loops, which internal/dslkernel's FuzzCheckAgreesWithCompile
// also starts from.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("testdata/loops/*.loop")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed loops: %v", err)
	}
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		loop, err := Parse(src)
		if err != nil {
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("Parse error %T is not *SyntaxError: %v", err, err)
			}
			return
		}
		printed := loop.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\noriginal: %q\nprinted: %q", err, src, printed)
		}
		if again := back.String(); again != printed {
			t.Fatalf("print/parse round-trip not stable:\nfirst:  %q\nsecond: %q", printed, again)
		}
	})
}

// FuzzParseProgram exercises the whole program-file front end
// (preamble + loop) the same way.
func FuzzParseProgram(f *testing.F) {
	f.Add("array data 10 10\n---\nfor (key, v) in data\n    x = v\nend\n")
	f.Add("array samples 100\narray hist 10\nbuffer h hist\nordered true\n---\nfor (key, v) in samples\n    h[1] += v\nend\n")
	f.Add("garbage\n---\nfor (key, v) in data\nend\n")
	f.Add("---")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			switch err.(type) {
			case *SyntaxError, *PreambleError:
			default:
				t.Fatalf("ParseProgram error %T is not a typed front-end error: %v", err, err)
			}
			return
		}
		// An accepted program's loop positions must sit at or past the
		// separator line.
		if prog.Loop.At.Line > 0 && prog.Loop.At.Line < prog.LoopLine {
			t.Fatalf("loop position %d precedes the separator line %d", prog.Loop.At.Line, prog.LoopLine)
		}
		if !strings.Contains(src, "---") {
			t.Fatal("accepted a program with no separator")
		}
	})
}

// The execution differential fuzzer lives in internal/lang/vm
// (FuzzExecDifferential there), where it holds all three backends —
// interpreter, closure compiler, bytecode VM — to bitwise-identical
// results.
