package lang

import (
	"fmt"
)

// PrefetchSlice synthesizes the bulk-prefetch function of Section 4.4:
// a reduced loop body that, instead of reading remote DistArrays and
// computing, only evaluates and records the element indices the real
// loop body would read from the target arrays.
//
// The slice keeps exactly the statements the target subscripts have a
// data or control dependence on (in spirit dead code elimination), and
// skips any reference whose subscript, or whose guarding condition or
// loop bound, depends on values read from DistArrays — computing those
// would itself incur remote accesses, so the paper does not record them
// — or on rand(), whose draws the slice cannot reproduce. Skipped
// references are returned so callers know which reads remain on-demand.
//
// The loop's key and value variables are always available (the
// iteration-space data is local), so subscripts derived from them are
// prefetchable.
func PrefetchSlice(loop *Loop, env *Env, targets ...string) (*Loop, []string, error) {
	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		if _, ok := env.Arrays[t]; !ok {
			return nil, nil, fmt.Errorf("lang: prefetch target %q is not a known DistArray", t)
		}
		targetSet[t] = true
	}

	s := &slicer{loop: loop, env: env, targets: targetSet,
		tainted: map[string]bool{}, needed: map[string]bool{},
		bound: map[string]bool{}}
	s.bound[loop.KeyVar] = true
	if loop.ValVar != "" {
		s.bound[loop.ValVar] = true
	}
	collectBoundVars(loop.Body, s.bound)

	// Pass 1 (forward): taint variables whose definitions read any
	// DistArray, transitively.
	s.taintStmts(loop.Body)

	// Pass 2: find recordable references and seed the needed-variable
	// set with their subscript variables. Control conditions guarding a
	// recordable ref are needed too (handled in pass 3's fixpoint).
	s.collectRefs(loop.Body)

	// Pass 3 (fixpoint): grow needed with the free variables of every
	// statement defining a needed variable, plus guarding conditions.
	for changed := true; changed; {
		changed = s.propagate(loop.Body, false)
	}

	// Pass 4: emit the sliced body.
	body := s.emit(loop.Body)
	out := &Loop{KeyVar: loop.KeyVar, ValVar: loop.ValVar, IterVar: loop.IterVar, Body: body}
	return out, s.skipped, nil
}

type slicer struct {
	loop    *Loop
	env     *Env
	targets map[string]bool
	tainted map[string]bool
	needed  map[string]bool
	// bound holds loop-bound variables (the parallel loop's key/value
	// and inner for-range counters): defined by iteration, never
	// "needed" from outside.
	bound   map[string]bool
	skipped []string
}

// collectBoundVars gathers inner-loop counter names.
func collectBoundVars(body []Stmt, set map[string]bool) {
	for _, st := range body {
		switch x := st.(type) {
		case *If:
			collectBoundVars(x.Then, set)
			collectBoundVars(x.Else, set)
		case *ForRange:
			set[x.Var] = true
			collectBoundVars(x.Body, set)
		}
	}
}

// exprTainted reports whether evaluating e reads any DistArray (not
// the key tuple), calls rand(), or uses a tainted variable.
func (s *slicer) exprTainted(e Expr) bool {
	switch x := e.(type) {
	case *Num, *Bool, nil:
		return false
	case *Ident:
		return s.tainted[x.Name]
	case *UnOp:
		return s.exprTainted(x.X)
	case *BinOp:
		return s.exprTainted(x.L) || s.exprTainted(x.R)
	case *RangeExpr:
		if x.Full {
			return false
		}
		return s.exprTainted(x.Lo) || s.exprTainted(x.Hi)
	case *Call:
		if x.Fn == "rand" {
			// The slice would draw differently from the body: whatever
			// it computed from the draw is not what the body reads.
			return true
		}
		for _, a := range x.Args {
			if s.exprTainted(a) {
				return true
			}
		}
		return false
	case *Index:
		if x.Base == s.loop.KeyVar {
			return false
		}
		if _, isArr := s.env.Arrays[x.Base]; isArr {
			return true // reads a DistArray
		}
		// Local vector variable subscripting.
		if s.tainted[x.Base] {
			return true
		}
		for _, sub := range x.Subs {
			if s.exprTainted(sub) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

func (s *slicer) taintStmts(body []Stmt) {
	for _, st := range body {
		switch x := st.(type) {
		case *Assign:
			if id, ok := x.Target.(*Ident); ok {
				if s.exprTainted(x.Value) || (x.Op != "=" && s.tainted[id.Name]) {
					s.tainted[id.Name] = true
				}
			}
		case *If:
			// Conservative: values assigned under a tainted condition
			// are tainted (control dependence on array data).
			condTainted := s.exprTainted(x.Cond)
			if condTainted {
				markAssigned(x.Then, s.tainted)
				markAssigned(x.Else, s.tainted)
			} else {
				s.taintStmts(x.Then)
				s.taintStmts(x.Else)
			}
		case *ForRange:
			if s.exprTainted(x.Lo) || s.exprTainted(x.Hi) {
				markAssigned(x.Body, s.tainted)
			} else {
				// Run to a fixpoint: a loop body may feed a variable
				// back into itself across iterations.
				before := -1
				for before != len(s.tainted) {
					before = len(s.tainted)
					s.taintStmts(x.Body)
				}
			}
		}
	}
}

func markAssigned(body []Stmt, set map[string]bool) {
	for _, st := range body {
		switch x := st.(type) {
		case *Assign:
			if id, ok := x.Target.(*Ident); ok {
				set[id.Name] = true
			}
		case *If:
			markAssigned(x.Then, set)
			markAssigned(x.Else, set)
		case *ForRange:
			markAssigned(x.Body, set)
		}
	}
}

// collectRefs finds reads of target arrays and seeds needed vars.
func (s *slicer) collectRefs(body []Stmt) {
	guardTainted := false // inside a branch or loop whose guard is tainted
	var visitExpr func(e Expr)
	visitExpr = func(e Expr) {
		switch x := e.(type) {
		case *UnOp:
			visitExpr(x.X)
		case *BinOp:
			visitExpr(x.L)
			visitExpr(x.R)
		case *Call:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *RangeExpr:
			if !x.Full {
				visitExpr(x.Lo)
				visitExpr(x.Hi)
			}
		case *Index:
			for _, sub := range x.Subs {
				visitExpr(sub)
			}
			if s.targets[x.Base] {
				subsTainted := false
				for _, sub := range x.Subs {
					if s.exprTainted(sub) {
						subsTainted = true
						break
					}
				}
				if subsTainted || guardTainted {
					s.skipped = append(s.skipped, x.String())
					return
				}
				for _, sub := range x.Subs {
					s.addFreeVars(sub)
				}
			}
		}
	}
	var visitStmt func(st Stmt)
	visitStmt = func(st Stmt) {
		switch x := st.(type) {
		case *Assign:
			visitExpr(x.Value)
			if idx, ok := x.Target.(*Index); ok {
				// Subscripts of writes to target arrays are the same
				// addresses; buffered writes need no prefetch but
				// reads of the same element do — record read targets
				// only (writes are pushed, not pulled).
				for _, sub := range idx.Subs {
					visitExpr(sub)
				}
			}
		case *If:
			visitExpr(x.Cond)
			outer := guardTainted
			guardTainted = guardTainted || s.exprTainted(x.Cond)
			for _, t := range x.Then {
				visitStmt(t)
			}
			for _, t := range x.Else {
				visitStmt(t)
			}
			guardTainted = outer
		case *ForRange:
			visitExpr(x.Lo)
			visitExpr(x.Hi)
			outer := guardTainted
			guardTainted = guardTainted || s.exprTainted(x.Lo) || s.exprTainted(x.Hi)
			for _, t := range x.Body {
				visitStmt(t)
			}
			guardTainted = outer
		case *ExprStmt:
			visitExpr(x.X)
		}
	}
	for _, st := range body {
		visitStmt(st)
	}
}

func (s *slicer) addFreeVars(e Expr) {
	switch x := e.(type) {
	case *Ident:
		if !s.bound[x.Name] {
			s.needed[x.Name] = true
		}
	case *UnOp:
		s.addFreeVars(x.X)
	case *BinOp:
		s.addFreeVars(x.L)
		s.addFreeVars(x.R)
	case *Call:
		for _, a := range x.Args {
			s.addFreeVars(a)
		}
	case *RangeExpr:
		if !x.Full {
			s.addFreeVars(x.Lo)
			s.addFreeVars(x.Hi)
		}
	case *Index:
		if !s.bound[x.Base] {
			if _, isArr := s.env.Arrays[x.Base]; !isArr {
				s.needed[x.Base] = true
			}
		}
		for _, sub := range x.Subs {
			s.addFreeVars(sub)
		}
	}
}

// propagate grows the needed set; returns whether anything changed.
// guarded marks that the statements are control-dependent on a needed
// region (their conditions count).
func (s *slicer) propagate(body []Stmt, guarded bool) bool {
	changed := false
	for _, st := range body {
		switch x := st.(type) {
		case *Assign:
			if id, ok := x.Target.(*Ident); ok && s.needed[id.Name] {
				before := len(s.needed)
				s.addFreeVars(x.Value)
				if len(s.needed) != before {
					changed = true
				}
			}
		case *If:
			if s.exprTainted(x.Cond) {
				continue // dropped whole (emit): needs nothing
			}
			inner := s.propagate(x.Then, guarded) || s.propagate(x.Else, guarded)
			if inner || s.branchKept(x.Then, x.Else) {
				before := len(s.needed)
				s.addFreeVars(x.Cond)
				if len(s.needed) != before {
					changed = true
				}
			}
			changed = changed || inner
		case *ForRange:
			if s.exprTainted(x.Lo) || s.exprTainted(x.Hi) {
				continue
			}
			inner := s.propagate(x.Body, guarded)
			if inner || s.branchKept(x.Body) {
				before := len(s.needed)
				s.addFreeVars(x.Lo)
				s.addFreeVars(x.Hi)
				if len(s.needed) != before {
					changed = true
				}
			}
			changed = changed || inner
		}
	}
	return changed
}

// branchKept reports whether a guarded subtree contains a kept
// statement or a record point.
func (s *slicer) branchKept(bodies ...[]Stmt) bool {
	kept := false
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch y := st.(type) {
			case *Assign:
				if id, ok := y.Target.(*Ident); ok && s.needed[id.Name] {
					kept = true
				}
				if s.hasRecordableRef(y) {
					kept = true
				}
			case *ExprStmt:
				if s.hasRecordableRef(y) {
					kept = true
				}
			case *If:
				walk(y.Then)
				walk(y.Else)
			case *ForRange:
				walk(y.Body)
			}
		}
	}
	for _, b := range bodies {
		walk(b)
	}
	return kept
}

func (s *slicer) hasRecordableRef(st Stmt) bool {
	found := false
	var visitExpr func(e Expr)
	visitExpr = func(e Expr) {
		switch x := e.(type) {
		case *UnOp:
			visitExpr(x.X)
		case *BinOp:
			visitExpr(x.L)
			visitExpr(x.R)
		case *Call:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *Index:
			if s.targets[x.Base] && !s.refSkipped(x) {
				found = true
			}
			for _, sub := range x.Subs {
				visitExpr(sub)
			}
		}
	}
	switch y := st.(type) {
	case *Assign:
		visitExpr(y.Value)
		if idx, ok := y.Target.(*Index); ok {
			for _, sub := range idx.Subs {
				visitExpr(sub)
			}
		}
	case *ExprStmt:
		visitExpr(y.X)
	}
	return found
}

func (s *slicer) refSkipped(x *Index) bool {
	for _, sub := range x.Subs {
		if s.exprTainted(sub) {
			return true
		}
	}
	return false
}

// emit builds the sliced body: kept definitions plus __record calls at
// the positions of recordable references.
func (s *slicer) emit(body []Stmt) []Stmt {
	var out []Stmt
	for _, st := range body {
		switch x := st.(type) {
		case *Assign:
			// Record refs appearing in this statement first (reads
			// happen while evaluating the statement).
			out = append(out, s.recordsIn(x)...)
			if id, ok := x.Target.(*Ident); ok && s.needed[id.Name] {
				out = append(out, x)
			}
		case *If:
			if s.exprTainted(x.Cond) {
				continue // its reads stay on-demand (collectRefs)
			}
			thenB := s.emit(x.Then)
			elseB := s.emit(x.Else)
			if len(thenB) > 0 || len(elseB) > 0 {
				out = append(out, &If{Cond: x.Cond, Then: thenB, Else: elseB})
			}
		case *ForRange:
			if s.exprTainted(x.Lo) || s.exprTainted(x.Hi) {
				continue
			}
			body := s.emit(x.Body)
			if len(body) > 0 {
				out = append(out, &ForRange{Var: x.Var, Lo: x.Lo, Hi: x.Hi, Body: body})
			}
		case *ExprStmt:
			out = append(out, s.recordsIn(x)...)
		}
	}
	return out
}

// recordsIn returns __record statements for every recordable target
// reference inside st.
func (s *slicer) recordsIn(st Stmt) []Stmt {
	var out []Stmt
	seen := map[string]bool{}
	var visitExpr func(e Expr)
	visitExpr = func(e Expr) {
		switch x := e.(type) {
		case *UnOp:
			visitExpr(x.X)
		case *BinOp:
			visitExpr(x.L)
			visitExpr(x.R)
		case *Call:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *RangeExpr:
			if !x.Full {
				visitExpr(x.Lo)
				visitExpr(x.Hi)
			}
		case *Index:
			for _, sub := range x.Subs {
				visitExpr(sub)
			}
			if s.targets[x.Base] && !s.refSkipped(x) && !seen[x.String()] {
				seen[x.String()] = true
				out = append(out, &ExprStmt{X: &Call{Fn: "__record", Args: []Expr{x}}})
			}
		}
	}
	switch y := st.(type) {
	case *Assign:
		visitExpr(y.Value)
		if idx, ok := y.Target.(*Index); ok {
			for _, sub := range idx.Subs {
				visitExpr(sub)
			}
		}
	case *ExprStmt:
		visitExpr(y.X)
	}
	return out
}
