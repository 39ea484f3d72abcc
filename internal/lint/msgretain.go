package lint

import (
	"go/ast"
	"strings"
)

// MsgRetain flags aliases of runtime message payload slices that
// outlive the message. runtime.Msg.reset() reuses the backing storage
// of the hot-path payload slices (Offsets, Values) across messages on a
// connection, so storing one of them — into a struct field, a non-Msg
// composite literal, or a return value — hands out memory the next
// message will overwrite. The correct idiom is an explicit clone:
//
//	saved.offs = append([]int64(nil), msg.Offsets...)
//
// Transient uses stay allowed: element reads (msg.Values[i]), len/cap,
// range, passing the slice to a call, and building a response Msg
// literal (encoded and sent before the received message is reused).
// The runtime's subpackages, the transport buffer pool among them, are
// in scope too.
var MsgRetain = &Analyzer{
	Name: "msgretain",
	Doc:  "runtime Msg payload slices (Offsets/Values) must not be retained past the handler",
	Run:  runMsgRetain,
}

// payloadSel reports whether e is exactly a payload-slice selector
// (<recv>.Offsets or <recv>.Values), unwrapping parentheses.
func payloadSel(e ast.Expr) (string, bool) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Offsets" && sel.Sel.Name != "Values" {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); ok {
		return x.Name + "." + sel.Sel.Name, true
	}
	return sel.Sel.Name, true
}

// isMsgLit reports whether the composite literal builds a Msg (a
// response that is encoded before the aliased message is reused).
func isMsgLit(lit *ast.CompositeLit) bool {
	switch t := lit.Type.(type) {
	case *ast.Ident:
		return t.Name == "Msg"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Msg"
	}
	return false
}

func runMsgRetain(p *Pass) []Finding {
	if !strings.HasPrefix(p.Path, "orion/internal/runtime") {
		return nil
	}
	var out []Finding
	report := func(n ast.Node, name, how string) {
		out = append(out, Finding{
			Analyzer: "msgretain",
			Pos:      p.Fset.Position(n.Pos()),
			Message: name + " " + how + " retains the message's backing storage " +
				"(Msg.reset reuses it for the next message); clone with append([]T(nil), s...)",
		})
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					name, ok := payloadSel(rhs)
					if !ok {
						continue
					}
					// Pairwise LHS when counts match; otherwise any
					// field-store LHS taints the multi-assign.
					var lhs []ast.Expr
					if len(x.Lhs) == len(x.Rhs) {
						lhs = x.Lhs[i : i+1]
					} else {
						lhs = x.Lhs
					}
					for _, l := range lhs {
						if _, isField := l.(*ast.SelectorExpr); isField {
							report(rhs, name, "assigned to a struct field")
						}
					}
				}
			case *ast.CompositeLit:
				if isMsgLit(x) {
					return true
				}
				for _, el := range x.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if name, ok := payloadSel(v); ok {
						report(v, name, "stored in a composite literal")
					}
				}
			case *ast.ReturnStmt:
				for _, res := range x.Results {
					if name, ok := payloadSel(res); ok {
						report(res, name, "returned")
					}
				}
			}
			return true
		})
	}
	return out
}
