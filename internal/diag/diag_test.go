package diag

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, sev := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(sev)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Fatalf("severity %v round-tripped to %v via %s", sev, back, b)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Fatal("unknown severity name must fail to unmarshal")
	}
}

func TestDiagnosticJSONRoundTrip(t *testing.T) {
	d := Errorf(CodeNotParallel, Pos{File: "x.orion", Line: 7, Col: 3},
		"route the write through a DistArrayBuffer", "loop %q is not parallelizable", "hist")
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("diagnostic round-trip mismatch:\n got %+v\nwant %+v", back, d)
	}
	// The wire names must be stable (machine consumers key on them).
	for _, key := range []string{`"code":"ORN201"`, `"severity":"error"`, `"line":7`, `"col":3`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("JSON %s lacks %s", b, key)
		}
	}
}

func TestListErrAndSort(t *testing.T) {
	var l List
	if l.Err() != nil {
		t.Fatal("empty list must have nil Err")
	}
	l.Add(Warningf(CodeCommuteAssumed, Pos{File: "f", Line: 9, Col: 1}, "", "late warning"))
	l.Add(Errorf(CodeUnknownFn, Pos{File: "f", Line: 3, Col: 5}, "check the builtin list", "unknown function %q", "foo"))
	l.Add(Errorf(CodeBufferRead, Pos{File: "f", Line: 5, Col: 2}, "", "buffers are write-only"))
	if l.Err() == nil {
		t.Fatal("list with errors must have non-nil Err")
	}
	l.Sort()
	if l[0].Pos.Line != 3 || l[2].Pos.Line != 9 {
		t.Fatalf("Sort must order by position, got lines %d,%d,%d", l[0].Pos.Line, l[1].Pos.Line, l[2].Pos.Line)
	}
	msg := l.Err().Error()
	for _, want := range []string{"f:3:5", "ORN013", `unknown function "foo"`, "1 more error"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Err() = %q, missing %q", msg, want)
		}
	}
}

func TestRenderCaret(t *testing.T) {
	src := "for (key, v) in data\n    x = nope(v)\nend\n"
	var l List
	l.Add(Errorf(CodeUnknownFn, Pos{File: "t.orion", Line: 2, Col: 9}, "pick a builtin", "unknown function %q", "nope"))
	var b strings.Builder
	Render(&b, l, map[string]string{"t.orion": src})
	out := b.String()
	for _, want := range []string{
		"t.orion:2:9: error[ORN013]",
		"    x = nope(v)",
		"        ^",
		"note: pick a builtin",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestPosString(t *testing.T) {
	cases := []struct {
		pos  Pos
		want string
	}{
		{Pos{File: "a.orion", Line: 3, Col: 5}, "a.orion:3:5"},
		{Pos{Line: 3, Col: 5}, "3:5"},
		{Pos{}, "<unknown>"},
	}
	for _, c := range cases {
		if got := c.pos.String(); got != c.want {
			t.Fatalf("Pos%+v.String() = %q, want %q", c.pos, got, c.want)
		}
	}
}
