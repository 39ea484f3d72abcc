package lint

import (
	"go/ast"
)

// deterministicPkgs are the packages whose behavior must be a pure
// function of their inputs: the static pipeline (fingerprints, golden
// plans) and the replay-deterministic execution semantics depend on
// it. A wall-clock read anywhere in them silently breaks plan-cache
// content hashes, golden tests, and chaos-harness replays.
var deterministicPkgs = map[string]bool{
	"orion/internal/ir":         true,
	"orion/internal/lang":       true,
	"orion/internal/dep":        true,
	"orion/internal/sched":      true,
	"orion/internal/unimodular": true,
	"orion/internal/plan":       true,
	"orion/internal/check":      true,
	"orion/internal/diag":       true,
	"orion/internal/dsm":        true,
	"orion/internal/dslkernel":  true,
	"orion/internal/engine":     true,
}

// wallClockFuncs are the time-package functions that observe or depend
// on the wall clock, each true when it waits on a real timer.
var wallClockFuncs = map[string]bool{
	"Now": false, "Since": false, "Until": false,
	"After": true, "AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true, "Sleep": true,
}

// waitPkgs are the packages whose protocol decisions belong to one
// ordered stream of events (ROADMAP item 20): a timer or a sleep there
// decides by the wall clock, outside the stream, so each one says why
// it stays under a `//lint:ignore timenow`. Measuring with it is fine.
var waitPkgs = map[string]bool{"orion/internal/runtime": true, "orion/internal/driver": true}

// TimeNow flags wall-clock reads inside the deterministic packages, and
// timers and sleeps inside the runtime and the driver.
var TimeNow = &Analyzer{
	Name: "timenow",
	Doc:  "no time.Now (or other wall-clock reads) in deterministic replay/fingerprint packages, no unexplained timer or sleep in the runtime and driver",
	Run:  runTimeNow,
}

func runTimeNow(p *Pass) []Finding {
	det := deterministicPkgs[p.Path]
	if !det && !waitPkgs[p.Path] {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		// Resolve the local name of the "time" import (usually "time").
		timeName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value != `"time"` {
				continue
			}
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
		if timeName == "" || timeName == "_" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			waits, clock := wallClockFuncs[sel.Sel.Name]
			if !ok || id.Name != timeName || !clock || !det && !waits {
				return true
			}
			msg := "wall-clock read " + timeName + "." + sel.Sel.Name + " in deterministic package " + p.Path +
				" (plan fingerprints and replay depend on it being input-pure; inject the clock from the caller)"
			if !det {
				msg = "wall-clock wait " + timeName + "." + sel.Sel.Name + " in " + p.Path +
					" (it decides outside the protocol's event stream; say why it stays with //lint:ignore timenow)"
			}
			out = append(out, Finding{Analyzer: "timenow", Pos: p.Fset.Position(sel.Pos()), Message: msg})
			return true
		})
	}
	return out
}
