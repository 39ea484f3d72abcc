package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameLiveTargetsAndFiles: every `make <target>` the documents
// name is a target of the Makefile, every bare file name they put in
// backticks (`DESIGN.md`, not a path or a command's argument) is a file
// at the top of the tree, every `Session.X` in their code is a method of
// driver.Session, and every flag of an `orion-run …` command in their
// code is one cmd/orion-run defines, DESIGN.md's flight-event "Kinds"
// table lists exactly the obs.FlightKind constants, every ORNxxx code
// the documents or diag's package comment name is a diag.Code*
// constant's value, and README's diagnostics table has a row for every
// such constant. Deleting a target, a committed file, a method, a flag,
// a kind or a code — or adding a kind or a code — then fails here until
// the documents follow.
func TestDocsNameLiveTargetsAndFiles(t *testing.T) {
	const root = "../.."
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	methods := sessionMethods(t, root)
	flags := flagNames(t, root)
	codes, diagDoc := diagCodes(t, root)
	codeRef := regexp.MustCompile(`ORN\d{3}`)
	for _, c := range codeRef.FindAllString(diagDoc, -1) {
		if !codes[c] {
			t.Errorf("diag's package comment lists %s, which no diag.Code* constant is", c)
		}
	}
	// In a code span or at the start of a code-block line, so that
	// prose ("and make all ...") is not a target.
	makeRef := regexp.MustCompile("(?m)(?:`|^\\s*)make ([a-z][a-z0-9-]*)")
	fileRef := regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_.-]*\\.(?:json|md|txt))`")
	sessionRef := regexp.MustCompile(`\bSession\.([A-Za-z_][A-Za-z0-9_]*)`)
	flagRef := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codeRef.FindAll(text, -1) {
			if !codes[string(c)] {
				t.Errorf("%s names %s, which no diag.Code* constant is", doc, c)
			}
		}
		for _, m := range makeRef.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, m := range fileRef.FindAllSubmatch(text, -1) {
			if _, err := os.Stat(filepath.Join(root, string(m[1]))); err != nil {
				t.Errorf("%s names the top-level file `%s`, which is not in the tree (name a run's output as a path or as the command's argument)", doc, m[1])
			}
		}
		for _, code := range codePieces(string(text)) {
			for _, m := range sessionRef.FindAllStringSubmatch(code, -1) {
				if !methods[m[1]] {
					t.Errorf("%s names `Session.%s`, which is not a method of driver.Session", doc, m[1])
				}
			}
			for _, cmd := range strings.Split(code, "orion-run")[1:] {
				for _, arg := range strings.Fields(shellCommand(cmd)) {
					if m := flagRef.FindStringSubmatch(arg); m != nil && !flags[m[1]] {
						t.Errorf("%s runs `orion-run … %s`, a flag cmd/orion-run does not define", doc, arg)
					}
				}
			}
		}
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for c := range codes {
		if !regexp.MustCompile("(?m)^\\| `" + c + "` \\|").Match(readme) {
			t.Errorf("README.md's diagnostics table has no row for diag code %s", c)
		}
	}

	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	defined := flightKinds(t, root)
	if documented := flightKindRows(string(design)); !slices.Equal(documented, defined) {
		t.Errorf("DESIGN.md's flight-event table lists the kinds\n  %v\ninternal/obs defines the FlightKind constants\n  %v", documented, defined)
	}
}

// diagCodes returns the values of internal/diag's Code* constants and
// its package comment.
func diagCodes(t *testing.T, root string) (map[string]bool, string) {
	codes := map[string]bool{}
	var doc string
	for _, f := range nonTestFiles(t, root, "./internal/diag") {
		if f.Doc != nil {
			doc += f.Doc.Text()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if !strings.HasPrefix(name.Name, "Code") || i >= len(spec.Values) {
					continue
				}
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					code, _ := strconv.Unquote(lit.Value)
					codes[code] = true
				}
			}
			return false
		})
	}
	if len(codes) == 0 {
		t.Fatal("no Code constants found in internal/diag")
	}
	return codes, doc
}

// flightKinds returns, sorted, the values of the FlightKind constants
// internal/obs declares.
func flightKinds(t *testing.T, root string) []string {
	var kinds []string
	for _, f := range nonTestFiles(t, root, "./internal/obs") {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			if typ, ok := spec.Type.(*ast.Ident); !ok || typ.Name != "FlightKind" {
				return false
			}
			for _, v := range spec.Values {
				if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					kind, _ := strconv.Unquote(lit.Value)
					kinds = append(kinds, kind)
				}
			}
			return false
		})
	}
	if len(kinds) == 0 {
		t.Fatal("no FlightKind constants found in internal/obs")
	}
	slices.Sort(kinds)
	return kinds
}

// flightKindRows returns, sorted, the kind in the first cell of every
// row of the table under DESIGN.md's "Flight-recorder event log".
func flightKindRows(design string) []string {
	_, section, _ := strings.Cut(design, "## Flight-recorder event log")
	section, _, _ = strings.Cut(section, "\n## ")
	var kinds []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z.]+)` \\|").FindAllStringSubmatch(section, -1) {
		kinds = append(kinds, m[1])
	}
	slices.Sort(kinds)
	return kinds
}

// codePieces returns a Markdown document's code: every line of a fenced
// block, with backslash-continued lines joined, and every inline code
// span, which may wrap across lines.
func codePieces(text string) []string {
	var pieces []string
	var prose strings.Builder
	fenced, continued := false, ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced:
			prose.WriteString(line + "\n")
		case strings.HasSuffix(line, `\`):
			continued += strings.TrimSuffix(line, `\`)
		default:
			pieces = append(pieces, continued+line)
			continued = ""
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		pieces = append(pieces, m[1])
	}
	return pieces
}

// shellCommand cuts a command line at the first shell operator or
// comment: what follows belongs to another command.
func shellCommand(s string) string {
	for _, op := range []string{" | ", " || ", " && ", ";", " &", " #", " >", " 2>"} {
		if i := strings.Index(s, op); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

// sessionMethods lists the methods declared on driver.Session.
func sessionMethods(t *testing.T, root string) map[string]bool {
	methods := map[string]bool{}
	for _, f := range nonTestFiles(t, root, "./internal/driver") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == "Session" {
				methods[fn.Name.Name] = true
			}
		}
	}
	if len(methods) == 0 {
		t.Fatal("no Session methods found in internal/driver")
	}
	return methods
}

// flagNames lists the flags cmd/orion-run defines: the name argument of
// every flag.X("name", …) call.
func flagNames(t *testing.T, root string) map[string]bool {
	flags := map[string]bool{}
	for _, f := range nonTestFiles(t, root, "./cmd/orion-run") {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatal("no flags found in cmd/orion-run")
	}
	return flags
}

// nonTestFiles parses one package directory and returns its non-test
// files.
func nonTestFiles(t *testing.T, root, dir string) []*ast.File {
	passes, err := Load(root, []string{dir})
	if err != nil || len(passes) != 1 {
		t.Fatalf("loading %s: %d packages, %v", dir, len(passes), err)
	}
	var files []*ast.File
	for _, f := range passes[0].Files {
		if !strings.HasSuffix(passes[0].Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}
