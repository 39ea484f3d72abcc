// Package check is Orion's unified static diagnostics engine: it runs a
// multi-pass analysis over a DSL loop — the front-end analysis
// (internal/lang), dependence vectors (internal/dep), and the
// parallelization plan (internal/sched) — and reports everything it
// finds as positioned diag.Diagnostics with stable ORNxxx codes and fix
// notes.
//
// Passes, in order:
//
//  1. analysis   — lang.AnalyzeDiags: every front-end hard error as a
//     positioned diagnostic (ORN01x), then the executors' typing front
//     end (lang.ResolveLoop): a body outside the subset they compile is
//     ORN018; stops here on errors.
//  2. dependence — dep.AnalyzeDetail: vectors with provenance (which
//     reference pair produced each vector).
//  3. planning   — sched.NewFromDeps: the strategy decision.
//  4. lints      — safety warnings (ORN1xx): non-affine subscripts,
//     commutativity assumptions, cross-iteration flow dependences,
//     unused globals, rotated-array writes in unordered loops.
//  5. strategy   — ORN201 (not parallelizable, naming the blocking
//     dependence and references) / ORN202 (needs a unimodular
//     transformation) plus the §3.2 explanation trail.
//
// Errors abort compilation (driver.ParallelFor refuses to run);
// warnings and infos are surfaced but non-fatal. cmd/orion-vet is the
// stand-alone CLI over this package.
package check

import (
	"orion/internal/dep"
	"orion/internal/diag"
	"orion/internal/ir"
	"orion/internal/lang"
	"orion/internal/sched"
)

// Options configures a check run.
type Options struct {
	// File names the source in diagnostic positions (may be empty).
	File string
	// Globals lists driver variables known to be provided (SetGlobal
	// calls or 'global' preamble lines); ones never inherited by the
	// loop are linted (ORN104). Nil disables the lint.
	Globals []string
	// Sched tunes planning; zero search bounds get sched defaults, and
	// a nil ArrayBytes is estimated from the environment's extents.
	Sched sched.Options
}

// Result is the outcome of a check run. Spec, Detail, and Plan are nil
// when the corresponding pass did not run (front-end errors stop the
// pipeline).
type Result struct {
	Program *lang.Program // set by Source; nil for Run
	Loop    *lang.Loop
	Spec    *ir.LoopSpec
	Detail  *dep.Detail
	Plan    *sched.Plan
	// Guard is non-nil when Plan is conditional on a synthesized
	// runtime predicate (ORN203): planning against the full dependence
	// set refused, but the guarded set admits the strategy in Plan. The
	// driver evaluates the guard at dispatch and demotes to a serial
	// pass when it fails.
	Guard *dep.Guard
	Diags diag.List
	// Explanation is the strategy-explanation pass: which of §3.2's
	// conditions held and therefore why this strategy was chosen, plus
	// the provenance of each dependence vector.
	Explanation []string

	// arrayBytes is the effective per-array size map planning ran with
	// (caller-supplied or estimated from declared extents); the ORN107
	// rotation-ratio lint reads it.
	arrayBytes map[string]int64
	// schedOpts is the fully resolved planning options (defaults and
	// size estimates applied) — the exact inputs a plan artifact's
	// content hash covers (BuildArtifact, CheckArtifact).
	schedOpts sched.Options
	// env is the environment the loop was analyzed against, kept for
	// prefetch-slice synthesis when materializing an artifact.
	env *lang.Env
}

// Deps returns the dependence-vector set, or nil before that pass.
func (r *Result) Deps() *dep.Set {
	if r.Detail == nil {
		return nil
	}
	return r.Detail.Set
}

// Err returns a non-nil error iff the run produced error diagnostics.
func (r *Result) Err() error { return r.Diags.Err() }

// Verdict classifies the strategy outcome for downstream tooling
// (orion-vet -json): "proven" when the plan is unconditionally safe,
// "guarded" when it is conditional on a synthesized runtime predicate
// (ORN203), "refused" when the loop was rejected as not parallelizable
// (ORN201). Empty before the planning pass ran.
func (r *Result) Verdict() string {
	if r.Plan == nil {
		return ""
	}
	if r.Diags.First(diag.CodeNotParallel) != nil {
		return "refused"
	}
	if r.Guard != nil {
		return "guarded"
	}
	return "proven"
}

// executable reports whether the distributed runtime can run a plan of
// this kind directly (without a unimodular transformation).
func executable(k sched.Kind) bool {
	switch k {
	case sched.Independent, sched.OneD, sched.TwoD:
		return true
	}
	return false
}

// Source vets a whole program file (preamble + '---' + loop), the
// format of cmd/orion-vet and cmd/orion-plan.
func Source(src string, opts Options) *Result {
	r := &Result{}
	prog, err := lang.ParseProgram(src)
	if err != nil {
		r.Diags.Add(errToDiag(err, opts.File))
		return r
	}
	if len(prog.Globals) > 0 {
		opts.Globals = append(append([]string(nil), opts.Globals...), prog.Globals...)
	}
	rr := Run(prog.Loop, prog.Env, opts)
	rr.Program = prog
	return rr
}

// errToDiag converts a lang parse error into a positioned diagnostic.
func errToDiag(err error, file string) diag.Diagnostic {
	switch e := err.(type) {
	case *lang.SyntaxError:
		return diag.Errorf(diag.CodeSyntax, diag.Pos{File: file, Line: e.Pos.Line, Col: e.Pos.Col},
			"fix the syntax; the DSL grammar is: for (key, val) in array / statements / end", "%s", e.Msg)
	case *lang.PreambleError:
		return diag.Errorf(diag.CodePreamble, diag.Pos{File: file, Line: e.Line, Col: 1},
			"preamble lines are: array <name> <extents...>, buffer <name> <target>, global <names...>, ordered <bool>", "%s", e.Msg)
	default:
		return diag.Errorf(diag.CodeSyntax, diag.Pos{File: file},
			"fix the reported front-end problem", "%v", err)
	}
}

// Run vets an already-parsed loop against an environment — the entry
// point driver.ParallelFor routes through.
func Run(loop *lang.Loop, env *lang.Env, opts Options) *Result {
	r := &Result{Loop: loop, env: env}

	// Pass 1: front-end analysis, ending with the executors' typing front
	// end: every executor runs the body as VM bytecode, so it must resolve
	// against exactly the globals they compile it with — the provided ones
	// plus its accumulators — or it is refused here, before anything ships.
	spec, diags := lang.AnalyzeDiags(loop, env, opts.File)
	r.Diags = diags
	if !r.Diags.HasErrors() {
		globals := append(append([]string(nil), opts.Globals...), lang.Accumulators(loop)...)
		_, err := lang.ResolveLoop(loop, &lang.CompileEnv{Arrays: env.Arrays, Buffers: env.Buffers, Globals: globals})
		if nce, ok := err.(*lang.NotCompilableError); ok {
			r.Diags.Add(diag.Errorf(diag.CodeNotCompilable, r.pos(nce.At, opts),
				"executors run the loop body as compiled bytecode with one static type per local: give each local one kind (scalar, vector or boolean), copy a vector with an arithmetic expression instead of aliasing it, and read only locals, arrays, the key and globals the driver provides (SetGlobal, or a global preamble line)",
				"loop body is outside the statically typed subset the executors compile: %s", nce.Reason))
		}
	}
	if r.Diags.HasErrors() {
		r.Diags.Sort()
		return r
	}
	r.Spec = spec

	// Pass 2: dependence vectors with provenance.
	detail, err := dep.AnalyzeDetail(spec)
	if err != nil {
		r.Diags.Add(diag.Errorf(diag.CodeBadSpec, r.pos(loop.At, opts),
			"the loop spec is structurally invalid; check array declarations and subscript arities", "%v", err))
		r.Diags.Sort()
		return r
	}
	r.Detail = detail

	// Pass 3: planning. NewFromDeps fills in default search bounds;
	// array sizes are estimated from declared extents when the caller
	// (e.g. the driver, which knows real sizes) did not supply them.
	sopts := opts.Sched
	if sopts.ArrayBytes == nil {
		sopts.ArrayBytes = map[string]int64{}
		for name, dims := range env.Arrays {
			total := int64(8)
			for _, d := range dims {
				total *= d
			}
			sopts.ArrayBytes[name] = total
		}
	}
	r.arrayBytes = sopts.ArrayBytes
	r.schedOpts = sopts
	plan, err := sched.NewFromDeps(spec, detail.Set, sopts)
	if err != nil {
		r.Diags.Add(diag.Errorf(diag.CodeBadSpec, r.pos(loop.At, opts),
			"planning failed on a structurally invalid spec; fix the reported problem", "%v", err))
		r.Diags.Sort()
		return r
	}
	r.Plan = plan

	// Pass 3b: guarded replanning. When the full dependence set refuses
	// (or demands a transformation the runtime cannot execute) but the
	// analysis synthesized a runtime guard, replan against the guarded
	// dependence set — the constraints in effect whenever the guard
	// holds. An executable guarded plan replaces the refusal; strategy()
	// then reports ORN203 instead of ORN201/ORN202.
	if detail.Guard != nil && !executable(plan.Kind) {
		if gp, gerr := sched.NewFromDeps(spec, detail.GuardedSet, sopts); gerr == nil && executable(gp.Kind) {
			r.Plan = gp
			r.Guard = detail.Guard
		}
	}

	// Passes 4 and 5: safety lints and the strategy verdict.
	r.lint(opts)
	r.strategy(opts)
	r.Explanation = r.explain()
	r.Diags.Sort()
	return r
}

func (r *Result) pos(p lang.Pos, opts Options) diag.Pos {
	return diag.Pos{File: opts.File, Line: p.Line, Col: p.Col}
}

func refPos(file string, ref ir.ArrayRef) diag.Pos {
	return diag.Pos{File: file, Line: ref.Line, Col: ref.Col}
}
