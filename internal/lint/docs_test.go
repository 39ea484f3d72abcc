package lint

import (
	"go/ast"
	"go/parser"
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
// at the top of the tree, every command they name (`orion-<name>`,
// `cmd/<name>`) is a directory of cmd/, every `go run ./examples/<dir>`
// they name is a main package, every `driver.X` and `dsm.X` in
// their code is a top-level declaration of that package, every
// `Session.X` a method of driver.Session and every `DistArray.X` a
// method of dsm.DistArray, and every flag of an `orion-<name> …`
// command in their code is one cmd/orion-<name> defines, DESIGN.md's
// flight-event "Kinds" table lists exactly the obs.FlightKind
// constants and its VM instruction-set table exactly the opcodes of
// internal/lang/vm, its "Wire format" table lists exactly the rows of
// internal/runtime's schema table — each kind, and its fields and their
// wire types in frame order — every ORNxxx code the documents or diag's
// package comment name is a diag.Code* constant's value, and README's
// diagnostics table has a row for every such constant. Deleting a
// target, a committed file, a command, an example's main, a
// declaration, a method, a flag, a kind, an opcode, a wire field or a
// code — or adding a kind, an opcode, a wire field or a code, or
// reordering a row — then fails here until the documents follow.
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
	// Each reference form in the documents' code, with what it may name.
	// A lower-case name after driver. or dsm. is a metric
	// (driver.pass_s), not a declaration.
	refs := []struct {
		re    *regexp.Regexp
		names map[string]bool
		what  string
	}{
		{regexp.MustCompile(`(?:^|[^/\w])driver\.([A-Z]\w*)`), topLevelNames(t, root, "./internal/driver"), "a top-level declaration of internal/driver"},
		{regexp.MustCompile(`(?:^|[^/\w])dsm\.([A-Z]\w*)`), topLevelNames(t, root, "./internal/dsm"), "a top-level declaration of internal/dsm"},
		{regexp.MustCompile(`\bSession\.([A-Za-z_]\w*)`), methodsOf(t, root, "./internal/driver", "Session"), "a method of driver.Session"},
		{regexp.MustCompile(`\bDistArray\.([A-Za-z_]\w*)`), methodsOf(t, root, "./internal/dsm", "DistArray"), "a method of dsm.DistArray"},
		{regexp.MustCompile(`\bMaster\.([A-Za-z_]\w*)`), methodsOf(t, root, "./internal/runtime", "Master"), "a method of runtime.Master"},
	}
	flags := commandFlags(t, root)
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
	flagRef := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
	cmdRef := regexp.MustCompile(`\b(?:cmd/([a-z][a-z0-9-]*)|(orion-[a-z][a-z0-9]*(?:-[a-z][a-z0-9]*)*))`)
	exampleRef := regexp.MustCompile(`go run \./examples/([a-z][a-z0-9_]*)`)
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
		for _, m := range cmdRef.FindAllStringSubmatch(string(text), -1) {
			if name := m[1] + m[2]; flags[name] == nil {
				t.Errorf("%s names the command %s, which is not a directory of cmd/", doc, name)
			}
		}
		for _, m := range exampleRef.FindAllSubmatch(text, -1) {
			if !mainPackage(filepath.Join(root, "examples", string(m[1]))) {
				t.Errorf("%s runs `go run ./examples/%s`, which is not a main package", doc, m[1])
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
			for _, ref := range refs {
				for _, m := range ref.re.FindAllStringSubmatch(code, -1) {
					if !ref.names[m[1]] {
						t.Errorf("%s names `%s`, which is not %s", doc, strings.TrimLeft(m[0], "([ \t"), ref.what)
					}
				}
			}
			// Each command's arguments run to the next command named.
			refs := cmdRef.FindAllStringSubmatchIndex(code, -1)
			for i, ref := range refs {
				name := strings.TrimPrefix(code[ref[0]:ref[1]], "cmd/")
				if flags[name] == nil {
					continue
				}
				end := len(code)
				if i+1 < len(refs) {
					end = refs[i+1][0]
				}
				for _, arg := range strings.Fields(shellCommand(code[ref[1]:end])) {
					if m := flagRef.FindStringSubmatch(arg); m != nil && !flags[name][m[1]] {
						t.Errorf("%s runs `%s … %s`, a flag cmd/%s does not define", doc, name, arg, name)
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
	if documented, defined := opcodeRows(string(design)), vmOpcodes(t, root); !slices.Equal(documented, defined) {
		t.Errorf("DESIGN.md's VM instruction-set table lists the opcodes\n  %v\ninternal/lang/vm defines\n  %v", documented, defined)
	}
	if documented, defined := wireRows(string(design)), wireSchema(t, root); !slices.Equal(documented, defined) {
		t.Errorf("DESIGN.md's wire-format table lists the rows\n  %s\ninternal/runtime's schema table has\n  %s",
			strings.Join(documented, "\n  "), strings.Join(defined, "\n  "))
	}
}

// wireSchema renders each row of internal/runtime's schema table, in
// kind order, as its kind and its fields with their wire types in frame
// order: "MsgHello: Version uint, ExecutorID int, …", each name its
// constant's without the f or t prefix.
func wireSchema(t *testing.T, root string) []string {
	var rows []string
	for _, f := range nonTestFiles(t, root, "./internal/runtime") {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "schema" || len(spec.Values) != 1 {
				return true
			}
			for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
				kv := elt.(*ast.KeyValueExpr)
				var cols []string
				for _, c := range kv.Value.(*ast.CompositeLit).Elts {
					pair := c.(*ast.CompositeLit).Elts
					typ := strings.TrimPrefix(pair[1].(*ast.Ident).Name, "t")
					cols = append(cols, strings.TrimPrefix(pair[0].(*ast.Ident).Name, "f")+" "+strings.ToLower(typ[:1])+typ[1:])
				}
				rows = append(rows, kv.Key.(*ast.Ident).Name+": "+strings.Join(cols, ", "))
			}
			return false
		})
	}
	if len(rows) == 0 {
		t.Fatal("no schema table found in internal/runtime")
	}
	return rows
}

// wireRows renders each row of the table under DESIGN.md's "Wire
// format" as wireSchema does: the kind in its first cell, then the code
// spans of its second cell in order.
func wireRows(design string) []string {
	_, section, _ := strings.Cut(design, "## Wire format")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(Msg[A-Za-z]+)` \\|([^|\n]*)\\|").FindAllStringSubmatch(section, -1) {
		var cols []string
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(m[2], -1) {
			cols = append(cols, span[1])
		}
		rows = append(rows, m[1]+": "+strings.Join(cols, ", "))
	}
	return rows
}

// mainPackage reports whether dir holds a non-test Go file of package
// main.
func mainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}

// vmOpcodes returns, sorted and without their op prefix, the names of
// the const block that declares internal/lang/vm's opcodes.
func vmOpcodes(t *testing.T, root string) []string {
	var ops []string
	for _, f := range nonTestFiles(t, root, "./internal/lang/vm") {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST || len(gen.Specs) == 0 {
				continue
			}
			if typ, ok := gen.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "opcode" {
				continue
			}
			for _, spec := range gen.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					ops = append(ops, strings.TrimPrefix(name.Name, "op"))
				}
			}
		}
	}
	if len(ops) == 0 {
		t.Fatal("no opcode constants found in internal/lang/vm")
	}
	slices.Sort(ops)
	return ops
}

// opcodeRows returns, sorted, every opcode a code span in the second
// cell of a row of the table under DESIGN.md's "Bytecode VM instruction
// set" names; an ellipsis names none.
func opcodeRows(design string) []string {
	_, section, _ := strings.Cut(design, "## Bytecode VM instruction set")
	section, _, _ = strings.Cut(section, "\n## ")
	opName := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)
	var ops []string
	for _, row := range regexp.MustCompile("(?m)^\\|[^|\n]*\\|([^|\n]*)\\|").FindAllStringSubmatch(section, -1) {
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(row[1], -1) {
			for _, op := range strings.Fields(span[1]) {
				if opName.MatchString(op) {
					ops = append(ops, op)
				}
			}
		}
	}
	slices.Sort(ops)
	return ops
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

// methodsOf lists the methods a package declares on the named type.
func methodsOf(t *testing.T, root, dir, typ string) map[string]bool {
	methods := map[string]bool{}
	for _, f := range nonTestFiles(t, root, dir) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == typ {
				methods[fn.Name.Name] = true
			}
		}
	}
	if len(methods) == 0 {
		t.Fatalf("no %s methods found in %s", typ, dir)
	}
	return methods
}

// topLevelNames lists a package's top-level functions, types, variables
// and constants.
func topLevelNames(t *testing.T, root, dir string) map[string]bool {
	names := map[string]bool{}
	for _, f := range nonTestFiles(t, root, dir) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no declarations found in %s", dir)
	}
	return names
}

// commandFlags maps each command under cmd/ to the flags it defines:
// the name argument of every flag.X("name", …) or flagSet.X("name", …)
// call, X one of the flag package's definers.
func commandFlags(t *testing.T, root string) map[string]map[string]bool {
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	definer := regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)$`)
	commands := map[string]map[string]bool{}
	for _, dir := range dirs {
		flags := map[string]bool{}
		for _, f := range nonTestFiles(t, root, "./cmd/"+dir.Name()) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !definer.MatchString(sel.Sel.Name) {
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
		commands[dir.Name()] = flags
	}
	if len(commands["orion-run"]) == 0 {
		t.Fatal("no flags found in cmd/orion-run")
	}
	return commands
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
