package lang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Program is a self-contained DSL program file: a preamble declaring
// the DistArray environment, a '---' separator, then the parallel loop
// source. This is the on-disk format consumed by cmd/orion-vet and
// cmd/orion-plan:
//
//	array ratings 100 80
//	array W 8 100
//	buffer w_buf W
//	global step_size
//	ordered false
//	---
//	for (key, rv) in ratings
//	    ...
//	end
type Program struct {
	Env *Env
	// Globals lists driver variables declared with 'global' lines (the
	// programmer's statement of which inherited variables the driver
	// will provide; may be empty, in which case no unused-global lint
	// applies).
	Globals []string
	// LoopSrc is the raw loop source after the separator; LoopLine is
	// the 1-based file line the separator sits on, so loop positions
	// cite lines of the whole file.
	LoopSrc  string
	LoopLine int
	// Loop is the parsed loop.
	Loop *Loop
}

// ParseProgram parses a program file. Preamble problems yield
// *PreambleError; loop problems yield *SyntaxError with positions
// relative to the whole file.
func ParseProgram(src string) (*Program, error) {
	parts := strings.SplitN(src, "---", 2)
	if len(parts) != 2 {
		return nil, &PreambleError{Line: 1, Msg: "missing '---' separator between declarations and loop"}
	}
	p := &Program{Env: &Env{Arrays: map[string][]int64{}, Buffers: map[string]string{}}}
	bufferLine := map[string]int{}
	for lineNo, line := range strings.Split(parts[0], "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "array":
			if len(fields) < 3 {
				return nil, &PreambleError{Line: lineNo + 1, Msg: "array needs a name and at least one extent"}
			}
			dims := make([]int64, 0, len(fields)-2)
			for _, f := range fields[2:] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil || v <= 0 {
					return nil, &PreambleError{Line: lineNo + 1, Msg: fmt.Sprintf("bad extent %q (want a positive integer)", f)}
				}
				dims = append(dims, v)
			}
			p.Env.Arrays[fields[1]] = dims
		case "buffer":
			if len(fields) != 3 {
				return nil, &PreambleError{Line: lineNo + 1, Msg: "buffer needs a name and a target array"}
			}
			p.Env.Buffers[fields[1]] = fields[2]
			bufferLine[fields[1]] = lineNo + 1
		case "global":
			if len(fields) < 2 {
				return nil, &PreambleError{Line: lineNo + 1, Msg: "global needs at least one variable name"}
			}
			p.Globals = append(p.Globals, fields[1:]...)
		case "ordered":
			p.Env.Ordered = len(fields) > 1 && fields[1] == "true"
		default:
			return nil, &PreambleError{Line: lineNo + 1, Msg: fmt.Sprintf("unknown declaration %q (want array, buffer, global, or ordered)", fields[0])}
		}
	}
	// Buffer targets must be declared arrays (checked after the whole
	// preamble so order does not matter).
	for _, name := range sortedKeys(p.Env.Buffers) {
		target := p.Env.Buffers[name]
		if _, ok := p.Env.Arrays[target]; !ok {
			return nil, &PreambleError{Line: bufferLine[name], Msg: fmt.Sprintf("buffer %q targets unknown array %q", name, target)}
		}
	}
	p.LoopSrc = parts[1]
	p.LoopLine = 1 + strings.Count(parts[0], "\n")
	loop, err := ParseAt(p.LoopSrc, p.LoopLine)
	if err != nil {
		return nil, err
	}
	p.Loop = loop
	return p, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out) // deterministic error attribution
	return out
}
