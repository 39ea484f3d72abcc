// Package diag defines Orion's structured static diagnostics: records
// with a severity, a stable code (ORNxxx), a file:line:col position, a
// message, and a "why / how to fix" note, plus list utilities and a
// renderer with source-line carets (render.go).
//
// The diagnostic codes are stable identifiers, safe to grep for and to
// match in tools consuming `orion-vet -json` output:
//
//	ORN001  error    syntax error (lexer / parser)
//	ORN002  error    malformed program preamble declaration
//	ORN010  error    iteration space is not a known DistArray
//	ORN011  error    write to a subscripted name that is neither a
//	                 DistArray nor a DistArray Buffer
//	ORN012  error    invalid assignment target
//	ORN013  error    call to an unknown function
//	ORN014  error    subscripted name is neither a DistArray, a buffer,
//	                 nor the loop key
//	ORN015  error    read of a write-only DistArray Buffer
//	ORN016  error    subscript uses a loop dimension outside the
//	                 iteration space
//	ORN017  error    malformed loop specification
//	ORN101  warning  data-dependent (non-affine) subscript forces
//	                 conservative dependence assumptions
//	ORN102  warning  cross-iteration write-write conflict assumed
//	                 commutative (unordered loop)
//	ORN103  warning  array read and written under different subscripts
//	                 (cross-iteration flow dependence)
//	ORN104  warning  declared global never read by the loop body
//	ORN105  info     unordered loop writes a rotated (time-partitioned)
//	                 array
//	ORN106  info     which loop-execution backend the executors use
//	                 (bytecode VM or the reference interpreter)
//	ORN107  info     expected rotation/compute byte ratio of the chosen
//	                 plan (compare against orion-run -report)
//	ORN108  error    serialized plan artifact is stale: schema-version
//	                 or content-hash mismatch vs the current program
//	ORN201  error    loop is not parallelizable
//	ORN202  warning  loop requires a unimodular transformation, which
//	                 the distributed runtime does not execute
//	ORN203  info     loop is parallelizable only under a synthesized
//	                 runtime guard, verified once at dispatch
//	ORN204  info     the runtime guard failed at dispatch; the loop ran
//	                 as a serial pass instead
//	ORN301  error    a worker died mid-loop; results are partial
//	ORN303  error    checkpoint resume rejected: manifest fingerprint
//	                 does not match the current plan artifact
//	ORN401  warning  measured compute skew: one worker's kernel time far
//	                 exceeds the fleet median (straggler)
//	ORN402  warning  loop is rotation-bound: measured rotation-wait
//	                 dominates compute (compare ORN107's static estimate)
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Stable diagnostic codes. See the package comment for the full table.
const (
	CodeSyntax         = "ORN001"
	CodePreamble       = "ORN002"
	CodeUnknownIter    = "ORN010"
	CodeBadWriteTarget = "ORN011"
	CodeBadAssign      = "ORN012"
	CodeUnknownFn      = "ORN013"
	CodeUnknownSub     = "ORN014"
	CodeBufferRead     = "ORN015"
	CodeDimRange       = "ORN016"
	CodeBadSpec        = "ORN017"
	CodeRuntimeSub     = "ORN101"
	CodeCommuteAssumed = "ORN102"
	CodeFlowDep        = "ORN103"
	CodeUnusedGlobal   = "ORN104"
	CodeRotatedWrite   = "ORN105"
	CodeBackend        = "ORN106"
	CodeRotationRatio  = "ORN107"
	CodeStalePlan      = "ORN108"
	CodeNotParallel    = "ORN201"
	CodeNeedsTransform = "ORN202"
	CodeGuarded        = "ORN203"
	CodeGuardDemoted   = "ORN204"
	CodeWorkerLost     = "ORN301"
	CodeResumeMismatch = "ORN303"
	CodeComputeSkew    = "ORN401"
	CodeRotationBound  = "ORN402"
)

// Severity classifies a diagnostic. Errors abort compilation/execution;
// warnings and infos are surfaced but do not.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON encodes the severity as its lower-case name so -json
// output is self-describing.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("diag: unknown severity %s", b)
	}
	return nil
}

// Pos is a source position. Line and Col are 1-based; a zero Line
// marks an unknown position (e.g. a programmatically built LoopSpec).
type Pos struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// IsValid reports whether the position carries a real source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	switch {
	case p.Line <= 0:
		if p.File != "" {
			return p.File
		}
		return "<unknown>"
	case p.File == "":
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	default:
		return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
	}
}

// Diagnostic is one finding of the static analysis.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Pos      Pos      `json:"pos"`
	Message  string   `json:"message"`
	// Note explains why the diagnostic matters and how to fix it.
	Note string `json:"note,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Errorf builds an error diagnostic.
func Errorf(code string, pos Pos, note, format string, args ...any) Diagnostic {
	return Diagnostic{Code: code, Severity: Error, Pos: pos, Message: fmt.Sprintf(format, args...), Note: note}
}

// Warningf builds a warning diagnostic.
func Warningf(code string, pos Pos, note, format string, args ...any) Diagnostic {
	return Diagnostic{Code: code, Severity: Warning, Pos: pos, Message: fmt.Sprintf(format, args...), Note: note}
}

// Infof builds an info diagnostic.
func Infof(code string, pos Pos, note, format string, args ...any) Diagnostic {
	return Diagnostic{Code: code, Severity: Info, Pos: pos, Message: fmt.Sprintf(format, args...), Note: note}
}

// List is an ordered collection of diagnostics.
type List []Diagnostic

// Add appends diagnostics.
func (l *List) Add(ds ...Diagnostic) { *l = append(*l, ds...) }

// Count returns the number of diagnostics at the given severity.
func (l List) Count(sev Severity) int {
	n := 0
	for _, d := range l {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is an error.
func (l List) HasErrors() bool { return l.Count(Error) > 0 }

// First returns a pointer to the first diagnostic with the given code,
// or nil.
func (l List) First(code string) *Diagnostic {
	for i := range l {
		if l[i].Code == code {
			return &l[i]
		}
	}
	return nil
}

// Sort orders the list by file, line, column, then code (stable for
// rendering and tests).
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}

// Err converts the list's errors into a single Go error, or nil when
// the list contains no error-severity diagnostics. The first error's
// position, code, message, and fix note are preserved in the text.
func (l List) Err() error {
	var first *Diagnostic
	n := 0
	for i := range l {
		if l[i].Severity == Error {
			if first == nil {
				first = &l[i]
			}
			n++
		}
	}
	if first == nil {
		return nil
	}
	msg := first.String()
	if first.Note != "" {
		msg += " (" + first.Note + ")"
	}
	if n > 1 {
		msg += fmt.Sprintf(" [and %d more errors]", n-1)
	}
	return fmt.Errorf("%s", msg)
}
