package diag

import (
	"fmt"
	"io"
	"strings"
)

// Render writes human-readable diagnostics with source-line carets:
//
//	demo.orion:7:5: error[ORN201]: loop is not parallelizable: ...
//	    hist[b] = hist[b] + v
//	        ^
//	  note: route the write through a DistArrayBuffer (Section 3.3)
//
// sources maps a Pos.File to that file's full text; diagnostics whose
// file is absent (or whose position is unknown) render without the
// source excerpt. The list is rendered in its current order; call Sort
// first for positional ordering.
func Render(w io.Writer, diags List, sources map[string]string) {
	lines := map[string][]string{}
	for file, src := range sources {
		lines[file] = strings.Split(src, "\n")
	}
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
		if src, ok := lines[d.Pos.File]; ok && d.Pos.IsValid() && d.Pos.Line <= len(src) {
			line := strings.ReplaceAll(src[d.Pos.Line-1], "\t", " ")
			fmt.Fprintf(w, "    %s\n", line)
			col := d.Pos.Col
			if col < 1 {
				col = 1
			}
			if col > len(line)+1 {
				col = len(line) + 1
			}
			fmt.Fprintf(w, "    %s^\n", strings.Repeat(" ", col-1))
		}
		if d.Note != "" {
			fmt.Fprintf(w, "  note: %s\n", d.Note)
		}
	}
}
