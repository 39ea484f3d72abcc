// Package lint is Orion's project-specific static analysis suite for
// the Go runtime itself — a minimal, dependency-free go/analysis-style
// framework plus the analyzers cmd/orion-lint runs over this
// repository. The framework is deliberately small: an Analyzer
// inspects the parsed (not type-checked) syntax of one package and
// reports positioned findings. That is enough for the project
// invariants checked here, which are all syntactic:
//
//	timenow   — no wall-clock reads (time.Now and friends) inside the
//	            deterministic packages that replay and fingerprinting
//	            depend on
//	spanend   — every obs trace span started with Begin() is ended on
//	            every return path (or covered by a defer)
//	msgretain — runtime message payload slices (Msg.Offsets/.Values)
//	            are never retained past the handler: Msg.reset() reuses
//	            their backing storage, so a stored alias is corrupted
//	            by the next message
//	nogob     — no file of the module, test files included, imports
//	            the gob package: every byte written is framed by hand
//
// A finding can be suppressed with a directive comment on the flagged
// line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// One more check is a test, not an analyzer, because it needs the
// linker: `make reach` (reach_test.go, behind the reach build tag)
// fails on any non-test function or method no program under cmd/,
// examples/ or benchmark/ links. Its directive is
// //lint:ignore reach <reason>, which also covers a type's methods
// when placed on the type and a whole file when placed above the
// package clause.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a package's syntax.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package and returns its findings.
	Run func(p *Pass) []Finding
}

// Pass is the unit of work handed to an analyzer: one parsed package.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path (e.g. "orion/internal/dep").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Files is every parsed .go file in the directory, test files
	// included; analyzers that only apply to production code skip
	// files via IsTestFile.
	Files []*ast.File
}

// IsTestFile reports whether the file is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Finding is one reported problem.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzers is the project suite, in the order cmd/orion-lint runs it.
func Analyzers() []*Analyzer {
	return []*Analyzer{TimeNow, SpanEnd, MsgRetain, NoGob}
}

// Run applies the analyzers to every pass, filters findings suppressed
// by //lint:ignore directives, and returns them in file/line order.
func Run(passes []*Pass, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range passes {
		ignores := collectIgnores(p)
		for _, a := range analyzers {
			for _, f := range a.Run(p) {
				if ignores.suppressed(a.Name, f.Pos) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreSet records //lint:ignore directives: analyzer name → file →
// set of directive lines. A directive suppresses findings of that
// analyzer on its own line and on the following line (the usual
// placement is the line above the flagged statement).
type ignoreSet map[string]map[string]map[int]bool

func (s ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	files := s[analyzer]
	if files == nil {
		return false
	}
	lines := files[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

func collectIgnores(p *Pass) ignoreSet {
	set := ignoreSet{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				name := fields[0]
				if set[name] == nil {
					set[name] = map[string]map[int]bool{}
				}
				if set[name][pos.Filename] == nil {
					set[name][pos.Filename] = map[int]bool{}
				}
				set[name][pos.Filename][pos.Line] = true
			}
		}
	}
	return set
}

// inspectShallow walks the statements of a function body without
// descending into nested function literals — each function is analyzed
// in its own scope.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != n {
			return false
		}
		return fn(node)
	})
}

// funcBodies yields every function scope in the file: declarations and
// function literals, each paired with its body.
func funcBodies(f *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				fn(x.Body)
			}
		case *ast.FuncLit:
			fn(x.Body)
		}
		return true
	})
}
