package lint

import "strconv"

// NoGob flags any import of the standard library's gob package, test
// files included. Every
// byte the system writes — link frames, partition records, checkpoint
// files — is framed by hand from one table or one record layout, each
// bounds-checked as it is read; a gob stream would bring back a second,
// reflection-driven format that re-sends its type descriptors and
// decodes twice.
var NoGob = &Analyzer{
	Name: "nogob",
	Doc:  "no import of the gob package: frames, records and checkpoints are framed by hand",
	Run:  runNoGob,
}

// gobPath is spelled in two parts, so that a plain text search for the
// import finds no file of the module, this one included.
const gobPath = "encoding" + "/gob"

func runNoGob(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == gobPath {
				out = append(out, Finding{
					Analyzer: "nogob",
					Pos:      p.Fset.Position(imp.Pos()),
					Message:  "import of " + gobPath + ": frame the bytes by hand (internal/runtime's schema table, dsm's partition record)",
				})
			}
		}
	}
	return out
}
