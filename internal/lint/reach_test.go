//go:build reach

package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reach check (`make reach`, `go test -tags reach ./internal/lint`):
// every non-test top-level function and method of the module must be
// linked into at least one program built from a main package under
// cmd/, examples/ or benchmark/. The programs are built without
// inlining (-gcflags=all=-l), so a function whose every call would be
// inlined still leaves a symbol, and their symbol tables (`go tool nm`)
// are the answer: the linker's dead-code pass has already decided
// which methods an interface call can reach (a method stays when its
// type is converted to an interface and a method of that name and
// signature is called through one, e.g. String through fmt).
//
// Not checked: empty methods without parameters or results (interface
// markers such as exprNode, which nothing calls) and anything covered
// by a directive
//
//	//lint:ignore reach <reason>
//
// on the declaration's line or the line above it; on a type it covers
// the type's methods, above the package clause the whole file. Code in
// another module nested under the root (benchmark/) is a root, not a
// subject.

// TestReachEveryFunctionIsLinked runs the check over the repository.
func TestReachEveryFunctionIsLinked(t *testing.T) {
	findings, directives := reach(t, "../..", "cmd", "examples", "benchmark")
	for _, f := range findings {
		t.Error(f)
	}
	t.Logf("%d reach directives", directives)
}

// TestReachFixture runs the check over testdata/reach, one program and
// one library, and expects exactly the planted unreferenced function.
func TestReachFixture(t *testing.T) {
	findings, _ := reach(t, "testdata/reach", "app")
	want := []string{"lib.Unreferenced"}
	var got []string
	for _, f := range findings {
		got = append(got, f.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fixture findings %v, want %v", findings, want)
	}
}

// unlinked is one finding: a declaration no program links.
type unlinked struct {
	pos   string // file:line
	name  string // package name, receiver type, function: "dsm.Builder.Add"
	lines int    // source lines of the declaration, doc comment included
}

func (u unlinked) String() string {
	return fmt.Sprintf("%s: %s (%d lines) is linked by no program", u.pos, u.name, u.lines)
}

// reach builds every main package under the given directories of root,
// then returns the module's declarations none of them links, and the
// number of reach directives it honoured.
func reach(t *testing.T, root string, under ...string) ([]unlinked, int) {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	passes, err := Load(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mains []string
	for _, p := range passes {
		if isMain(p) && within(root, p.Dir, under) {
			mains = append(mains, p.Dir)
		}
	}
	if len(mains) == 0 {
		t.Fatalf("no main package under %v in %s", under, root)
	}
	// Library symbols from any program; a main package's own symbols
	// only from its program.
	mainSyms := linkedSymbols(t, root, mains)
	linked := map[string]bool{}
	for _, syms := range mainSyms {
		for s := range syms {
			if !strings.HasPrefix(s, "main.") {
				linked[s] = true
			}
		}
	}

	var out []unlinked
	directives := 0
	for _, p := range passes {
		if moduleOf(root, p.Dir) != root {
			continue
		}
		syms, prefix := linked, p.Path+"."
		if isMain(p) {
			syms, prefix = mainSyms[p.Dir], "main."
		}
		for _, f := range p.Files {
			if p.IsTestFile(f) {
				continue
			}
			cover := reachDirectives(t, p, f)
			directives += cover.count
			if cover.file {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || (isMain(p) && fn.Name.Name == "main" && fn.Recv == nil) {
					continue
				}
				key, recv := fn.Name.Name, receiverName(fn)
				if recv != "" {
					key = recv + "." + key
				}
				line := p.Fset.Position(fn.Pos()).Line
				if syms[prefix+key] || cover.types[recv] || cover.lines[line] || cover.lines[line-1] || isMarker(fn) {
					continue
				}
				first := line
				if fn.Doc != nil {
					first = p.Fset.Position(fn.Doc.Pos()).Line
				}
				rel, _ := filepath.Rel(root, p.Fset.Position(fn.Pos()).Filename)
				out = append(out, unlinked{
					pos:   fmt.Sprintf("%s:%d", rel, line),
					name:  filepath.Base(p.Path) + "." + key,
					lines: p.Fset.Position(fn.End()).Line - first + 1,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out, directives
}

// isMain reports whether the pass is a main package.
func isMain(p *Pass) bool {
	for _, f := range p.Files {
		if !p.IsTestFile(f) {
			return f.Name.Name == "main"
		}
	}
	return false
}

// within reports whether dir lies under one of root's subdirectories.
func within(root, dir string, under []string) bool {
	for _, u := range under {
		rel, err := filepath.Rel(filepath.Join(root, u), dir)
		if err == nil && !strings.HasPrefix(rel, "..") {
			return true
		}
	}
	return false
}

// moduleOf returns the directory of the module that holds dir: the
// nearest one from dir up to root with a go.mod.
func moduleOf(root, dir string) string {
	for ; dir != root && len(dir) > len(root); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
	}
	return root
}

// linkedSymbols builds the main packages in dirs without inlining,
// one go build per module that holds some, and returns for each
// directory the functions its binary links, as package.Func or
// package.Type.Method with type arguments and pointer receivers
// dropped.
func linkedSymbols(t *testing.T, root string, dirs []string) map[string]map[string]bool {
	t.Helper()
	byModule := map[string][]string{}
	for _, dir := range dirs {
		mod := moduleOf(root, dir)
		byModule[mod] = append(byModule[mod], dir)
	}
	out := map[string]map[string]bool{}
	for mod, dirs := range byModule {
		bin := t.TempDir()
		args := []string{"build", "-C", mod, "-buildvcs=false", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
		for _, dir := range dirs {
			rel, err := filepath.Rel(mod, dir)
			if err != nil {
				t.Fatal(err)
			}
			args = append(args, "./"+filepath.ToSlash(rel))
		}
		if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("building the programs of %s: %v\n%s", mod, err, msg)
		}
		for _, dir := range dirs {
			out[dir] = symbols(t, filepath.Join(bin, filepath.Base(dir)))
		}
	}
	return out
}

// symbols reads a binary's text symbols with go tool nm.
func symbols(t *testing.T, binary string) map[string]bool {
	t.Helper()
	nm, err := exec.Command("go", "tool", "nm", binary).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", binary, err)
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(nm))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[len(fields)-2] != "T" && fields[len(fields)-2] != "t") {
			continue
		}
		syms[symbolKey(fields[len(fields)-1])] = true
	}
	return syms
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// symbolKey normalises a linker symbol: "p/q.(*T[go.shape.int]).M"
// becomes "p/q.T.M".
func symbolKey(sym string) string {
	for typeArgs.MatchString(sym) {
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}

// receiverName returns the base type name of a method's receiver, or ""
// for a function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// isMarker reports an empty method without parameters or results: an
// interface marker (exprNode, stmtNode) that nothing calls.
func isMarker(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && fn.Body != nil && len(fn.Body.List) == 0 &&
		fn.Type.Params.NumFields() == 0 && fn.Type.Results.NumFields() == 0
}

// reachCover is what a file's reach directives exempt.
type reachCover struct {
	file  bool            // a directive above the package clause
	types map[string]bool // types whose methods are exempt
	lines map[int]bool    // lines holding a directive
	count int
}

// reachDirectives reads a file's //lint:ignore reach directives; each
// must give a reason.
func reachDirectives(t *testing.T, p *Pass, f *ast.File) reachCover {
	cover := reachCover{types: map[string]bool{}, lines: map[int]bool{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
			if len(fields) < 2 || fields[0] != "lint:ignore" || fields[1] != "reach" {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			if len(fields) < 3 {
				t.Errorf("%s:%d: a reach directive needs a reason", pos.Filename, pos.Line)
			}
			cover.count++
			if c.Pos() < f.Package {
				cover.file = true
			}
			cover.lines[pos.Line] = true
		}
	}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gen.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			// A directive above a one-type declaration or above the
			// spec inside a group.
			line := p.Fset.Position(ts.Pos()).Line
			if !gen.Lparen.IsValid() {
				line = p.Fset.Position(gen.Pos()).Line
			}
			if cover.lines[line] || cover.lines[line-1] {
				cover.types[ts.Name.Name] = true
			}
		}
	}
	return cover
}
