package lang

import (
	"fmt"
	"math"
	"sort"
)

// This file is the compile-once, run-many backend for DSL loop bodies.
// The tree-walking interpreter (interp.go) re-resolves every name in a
// map, boxes every float in an interface, and allocates fresh scopes,
// key copies, and vectors on every iteration. The compiler instead
// performs a resolution pass that assigns every local, global, array,
// and buffer a fixed integer slot, then lowers the AST bottom-up into
// specialized closures — func(*frame) float64 for float expressions,
// func(*frame) for statements — over a reusable per-kernel frame. On
// the steady state a compiled iteration performs zero allocations.
//
// The interpreter remains the reference semantics: any construct the
// compiler cannot prove it reproduces bit-for-bit (key tuples used as
// values, vector aliasing assignments, statically ill-typed programs
// whose exact runtime error the interpreter defines) is rejected with
// *NotCompilableError.
// Differential tests (compile_test.go, fuzz_test.go) hold the two
// backends to bitwise-identical DistArray and accumulator results.

// CompileEnv is the statically known environment a loop is compiled
// against: array extents, buffer targets, and the names of driver
// globals (inherited variables and accumulators).
type CompileEnv struct {
	Arrays  map[string][]int64
	Buffers map[string]string // buffer name -> target array
	Globals []string
}

// NotCompilableError reports that a loop is outside the compiled
// backends' subset; only the interpreter, which defines the semantics
// (including the exact runtime error) for these programs, runs them.
// The checker reports it as ORN018.
type NotCompilableError struct {
	Reason string
	At     Pos
}

func (e *NotCompilableError) Error() string {
	return fmt.Sprintf("lang: loop not compilable: %s", e.Reason)
}

// VecAccess is the optional fast-path contract for full-first-dimension
// range reads: a dense array that can hand out a live contiguous
// parameter vector without copying. *dsm.DistArray implements it.
type VecAccess interface {
	ArrayAccess
	IsDense() bool
	Vec(rest ...int64) []float64
}

// kernelFault carries a runtime error out of compiled closures; the
// closures keep allocation-free signatures and RunIteration recovers it
// back into an error. Non-fault panics (array bounds violations, which
// the interpreter also surfaces as panics) propagate unchanged.
type kernelFault struct{ err error }

func fail(format string, args ...interface{}) {
	panic(kernelFault{fmt.Errorf(format, args...)})
}

// frame is the per-kernel mutable state compiled closures execute
// against: one slot array per value kind, bound arrays/buffers, and
// per-node scratch storage reused across iterations.
type frame struct {
	key []int64 // current iteration key (borrowed, read-only)

	fl     []float64 // float locals
	flDef  []bool
	vec    [][]float64 // vector locals (slice headers into node scratch)
	vecDef []bool
	bo     []bool // boolean locals
	boDef  []bool
	gl     []float64 // globals (inherited variables and accumulators)
	glDef  []bool

	arrays  []ArrayAccess
	fast    []VecAccess // non-nil where the dense zero-copy path applies
	buffers []BufferAccess
	rng     RandSource

	scratch [][]float64 // per-vector-node result storage, grown on demand
	idx     [][]int64   // per-access-node subscript storage, fixed arity

	budget   int64 // remaining for-range steps; 0 disables the budget
	vecLimit int64 // max zeros() length; 0 disables the limit
}

// growScratch returns node sid's scratch resized to n, reusing the
// backing array whenever capacity allows. A negative n panics exactly
// like the interpreter's make([]float64, n).
func (f *frame) growScratch(sid, n int) []float64 {
	s := f.scratch[sid]
	if n < 0 || cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	f.scratch[sid] = s
	return s
}

type (
	floatFn func(*frame) float64
	vecFn   func(*frame) []float64
	boolFn  func(*frame) bool
	stmtFn  func(*frame)
)

// vtype is a variable's statically inferred kind.
type vtype uint8

const (
	tNone vtype = iota // not yet known (read would be a runtime error)
	tFloat
	tVec
	tBool
)

func (t vtype) String() string {
	switch t {
	case tFloat:
		return "scalar"
	case tVec:
		return "vector"
	case tBool:
		return "boolean"
	}
	return "undefined"
}

// vecMode says how a vector expression's result will be used, which
// decides whether a live or borrowed slice may be returned.
type vecMode int

const (
	// vecConsume: the result is read element-wise into separate storage
	// before any array write can occur (builtin/operator operands).
	// Live array views and variable slots may be returned directly.
	vecConsume vecMode = iota
	// vecStore: the result is stored in a variable slot; it must be
	// uniquely owned scratch (the interpreter allocates fresh vectors,
	// so a stored result never aliases an array or another variable).
	vecStore
	// vecWrite: the result is written into an array range; it must not
	// alias any array (overlapping in-place range copies would diverge
	// from the interpreter's copy-then-write), but variable slots are
	// fine.
	vecWrite
)

type compiler struct {
	loop *Loop
	env  *CompileEnv

	types   map[string]vtype
	changed bool
	strict  bool

	globalIx    map[string]int
	globalNames []string
	arrayIx     map[string]int
	arrayNames  []string
	arrayDims   [][]int64
	bufIx       map[string]int
	bufNames    []string

	floatIx map[string]int
	vecIx   map[string]int
	boolIx  map[string]int

	nScratch int
	idxSizes []int
}

func (c *compiler) nc(at Pos, format string, args ...interface{}) {
	panic(&NotCompilableError{Reason: fmt.Sprintf(format, args...), At: at})
}

func (c *compiler) newScratch() int {
	id := c.nScratch
	c.nScratch++
	return id
}

func (c *compiler) newIdx(n int) int {
	c.idxSizes = append(c.idxSizes, n)
	return len(c.idxSizes) - 1
}

// CompiledLoop is a loop lowered to closures. It is immutable and safe
// to share; each executor obtains its own mutable state via NewKernel.
type CompiledLoop struct {
	loop *Loop

	numFloat, numVec, numBool int
	valSlot                   int // ValVar's float slot, -1 when absent

	globalIx    map[string]int
	globalNames []string
	arrayIx     map[string]int
	arrayNames  []string
	arrayDims   [][]int64
	bufIx       map[string]int
	bufNames    []string

	nScratch int
	idxSizes []int

	body stmtFn
}

// CompileLoop lowers a loop body to closures against the given
// environment. It returns *NotCompilableError when the loop is outside
// the compiled subset; run it on the interpreter instead.
func CompileLoop(loop *Loop, env *CompileEnv) (cl *CompiledLoop, err error) {
	defer func() {
		if r := recover(); r != nil {
			if nce, ok := r.(*NotCompilableError); ok {
				cl, err = nil, nce
				return
			}
			panic(r)
		}
	}()
	c := &compiler{loop: loop, env: env, types: map[string]vtype{}}
	c.setup()
	c.infer()
	c.assignSlots()
	body := c.compileStmts(loop.Body)
	return &CompiledLoop{
		loop:        loop,
		numFloat:    len(c.floatIx),
		numVec:      len(c.vecIx),
		numBool:     len(c.boolIx),
		valSlot:     c.valSlot(),
		globalIx:    c.globalIx,
		globalNames: c.globalNames,
		arrayIx:     c.arrayIx,
		arrayNames:  c.arrayNames,
		arrayDims:   c.arrayDims,
		bufIx:       c.bufIx,
		bufNames:    c.bufNames,
		nScratch:    c.nScratch,
		idxSizes:    c.idxSizes,
		body:        body,
	}, nil
}

func (c *compiler) valSlot() int {
	if c.loop.ValVar == "" {
		return -1
	}
	return c.floatIx[c.loop.ValVar]
}

// setup assigns array/buffer/global slots and rejects name collisions
// whose dynamic shadowing behavior the interpreter defines.
func (c *compiler) setup() {
	l := c.loop
	c.arrayIx = map[string]int{}
	names := make([]string, 0, len(c.env.Arrays))
	for n := range c.env.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.arrayIx[n] = len(c.arrayNames)
		c.arrayNames = append(c.arrayNames, n)
		c.arrayDims = append(c.arrayDims, append([]int64(nil), c.env.Arrays[n]...))
	}
	c.bufIx = map[string]int{}
	names = names[:0]
	for n := range c.env.Buffers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, dup := c.arrayIx[n]; dup {
			c.nc(l.At, "name %q is both an array and a buffer", n)
		}
		c.bufIx[n] = len(c.bufNames)
		c.bufNames = append(c.bufNames, n)
	}
	c.globalIx = map[string]int{}
	for _, n := range c.env.Globals {
		if _, dup := c.globalIx[n]; dup {
			continue
		}
		if _, isArr := c.arrayIx[n]; isArr {
			c.nc(l.At, "name %q is both a global and an array", n)
		}
		c.globalIx[n] = len(c.globalNames)
		c.globalNames = append(c.globalNames, n)
	}

	if _, ok := c.globalIx[l.KeyVar]; ok {
		c.nc(l.At, "key variable %q shadows a global", l.KeyVar)
	}
	if _, ok := c.arrayIx[l.KeyVar]; ok {
		c.nc(l.At, "key variable %q shadows an array", l.KeyVar)
	}
	if l.ValVar != "" {
		if l.ValVar == l.KeyVar {
			c.nc(l.At, "key and value variables share the name %q", l.KeyVar)
		}
		if _, ok := c.globalIx[l.ValVar]; ok {
			c.nc(l.At, "value variable %q shadows a global", l.ValVar)
		}
		c.types[l.ValVar] = tFloat
	}

	// Assigned local names must not collide with arrays, buffers, or
	// the key: the interpreter resolves such names dynamically per
	// definedness, which the static slot scheme does not model.
	assigned := map[string]Pos{}
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case *Assign:
				if id, ok := s.Target.(*Ident); ok {
					if _, g := c.globalIx[id.Name]; !g {
						assigned[id.Name] = id.At
					}
				}
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *ForRange:
				if _, g := c.globalIx[s.Var]; g {
					c.nc(s.At, "inner loop variable %q shadows a global", s.Var)
				}
				assigned[s.Var] = s.At
				walk(s.Body)
			}
		}
	}
	walk(l.Body)
	for name, at := range assigned {
		if name == l.KeyVar {
			c.nc(at, "assignment to the key variable %q", name)
		}
		if _, isArr := c.arrayIx[name]; isArr {
			c.nc(at, "local variable %q shadows an array", name)
		}
		if _, isBuf := c.bufIx[name]; isBuf {
			c.nc(at, "local variable %q shadows a buffer", name)
		}
	}
	// Names collected for checks above also collide with ValVar checks
	// implicitly: ValVar is an ordinary float local.
	if _, isArr := c.arrayIx[l.ValVar]; l.ValVar != "" && isArr {
		c.nc(l.At, "value variable %q shadows an array", l.ValVar)
	}
	if _, isBuf := c.bufIx[l.ValVar]; l.ValVar != "" && isBuf {
		c.nc(l.At, "value variable %q shadows a buffer", l.ValVar)
	}
}

// infer runs type inference to a fixpoint, then a strict pass that
// rejects anything still untyped or statically ill-typed.
func (c *compiler) infer() {
	for i := 0; ; i++ {
		c.changed = false
		c.inferStmts(c.loop.Body)
		if !c.changed {
			break
		}
		if i > len(c.types)+8 {
			c.nc(c.loop.At, "type inference did not converge")
		}
	}
	c.strict = true
	c.inferStmts(c.loop.Body)
}

func (c *compiler) assignSlots() {
	names := make([]string, 0, len(c.types))
	for n := range c.types {
		names = append(names, n)
	}
	sort.Strings(names)
	c.floatIx = map[string]int{}
	c.vecIx = map[string]int{}
	c.boolIx = map[string]int{}
	for _, n := range names {
		switch c.types[n] {
		case tFloat:
			c.floatIx[n] = len(c.floatIx)
		case tVec:
			c.vecIx[n] = len(c.vecIx)
		case tBool:
			c.boolIx[n] = len(c.boolIx)
		}
	}
}

// binResult types op over (l, r), mirroring applyBin's broadcasting.
func (c *compiler) binResult(op string, at Pos, l, r vtype) vtype {
	if l == tNone || r == tNone {
		if c.strict {
			c.nc(at, "operand of %q has no inferable type", op)
		}
		return tNone
	}
	switch op {
	case "+", "-", "*", "/", "^":
		switch {
		case l == tFloat && r == tFloat:
			return tFloat
		case l == tVec && (r == tVec || r == tFloat):
			return tVec
		case l == tFloat && r == tVec:
			return tVec
		}
		c.nc(at, "cannot apply %q to %s and %s", op, l, r)
	case "==", "!=", "<", "<=", ">", ">=":
		if l == tFloat && r == tFloat {
			return tBool
		}
		c.nc(at, "comparison %q needs scalar operands, got %s and %s", op, l, r)
	}
	c.nc(at, "unsupported operator %q", op)
	return tNone
}

func (c *compiler) inferExpr(e Expr) vtype {
	switch x := e.(type) {
	case *Num:
		return tFloat
	case *Bool:
		return tBool
	case *Ident:
		if x.Name == c.loop.KeyVar {
			c.nc(x.At, "key tuple %q used as a value", x.Name)
		}
		if t, ok := c.types[x.Name]; ok {
			if t == tNone && c.strict {
				c.nc(x.At, "variable %q has no inferable type", x.Name)
			}
			return t
		}
		if _, ok := c.globalIx[x.Name]; ok {
			return tFloat
		}
		if _, ok := c.arrayIx[x.Name]; ok {
			c.nc(x.At, "whole-array reference %q", x.Name)
		}
		if c.strict {
			c.nc(x.At, "read of undefined variable %q", x.Name)
		}
		c.types[x.Name] = tNone
		return tNone
	case *UnOp:
		t := c.inferExpr(x.X)
		if t == tFloat || t == tVec || t == tNone {
			return t
		}
		c.nc(x.At, "cannot negate a %s", t)
	case *BinOp:
		l := c.inferExpr(x.L)
		r := c.inferExpr(x.R)
		return c.binResult(x.Op, x.At, l, r)
	case *Call:
		return c.inferCall(x)
	case *Index:
		return c.inferIndex(x, false)
	case *RangeExpr:
		c.nc(x.At, "range expression outside a subscript")
	}
	c.nc(c.loop.At, "unsupported expression %T", e)
	return tNone
}

func (c *compiler) inferCall(x *Call) vtype {
	args := make([]vtype, len(x.Args))
	none := false
	for i, a := range x.Args {
		args[i] = c.inferExpr(a)
		if args[i] == tNone {
			none = true
		}
	}
	want := func(n int) {
		if len(args) != n {
			c.nc(x.At, "%s takes %d argument(s), got %d", x.Fn, n, len(args))
		}
	}
	if none {
		// Strict passes already rejected tNone inside inferExpr.
		return tNone
	}
	switch x.Fn {
	case "rand":
		want(0)
		return tFloat
	case "dot":
		want(2)
		if args[0] != tVec || args[1] != tVec {
			c.nc(x.At, "dot needs two vectors")
		}
		return tFloat
	case "abs", "abs2", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		want(1)
		if args[0] != tFloat {
			c.nc(x.At, "%s needs a scalar argument", x.Fn)
		}
		return tFloat
	case "min", "max":
		want(2)
		if args[0] != tFloat || args[1] != tFloat {
			c.nc(x.At, "%s needs scalar arguments", x.Fn)
		}
		return tFloat
	case "length":
		want(1)
		if args[0] != tVec {
			c.nc(x.At, "length needs a vector")
		}
		return tFloat
	case "zeros":
		want(1)
		if args[0] != tFloat {
			c.nc(x.At, "zeros needs a scalar length")
		}
		return tVec
	}
	c.nc(x.At, "unsupported function %q", x.Fn)
	return tNone
}

// inferIndex types base[subs...] for reads (write=false) and validates
// the subscript shapes shared with writes.
func (c *compiler) inferIndex(x *Index, write bool) vtype {
	sub1 := func() vtype {
		if len(x.Subs) != 1 {
			c.nc(x.At, "%q takes one subscript", x.Base)
		}
		if _, isRange := x.Subs[0].(*RangeExpr); isRange {
			c.nc(x.At, "range subscript on %q", x.Base)
		}
		t := c.inferExpr(x.Subs[0])
		if t != tFloat && t != tNone {
			c.nc(x.At, "subscript of %q is not a number", x.Base)
		}
		return t
	}
	if x.Base == c.loop.KeyVar {
		if write {
			c.nc(x.At, "write through the key tuple %q", x.Base)
		}
		sub1()
		return tFloat
	}
	if t, isLocal := c.types[x.Base]; isLocal {
		switch t {
		case tVec:
			sub1()
			return tFloat
		case tNone:
			if c.strict {
				c.nc(x.At, "variable %q has no inferable type", x.Base)
			}
			return tNone
		default:
			c.nc(x.At, "subscript of %s variable %q", t, x.Base)
		}
	}
	if _, isBuf := c.bufIx[x.Base]; isBuf {
		if !write {
			c.nc(x.At, "read through buffer %q", x.Base)
		}
		// Buffer writes take point subscripts of any arity (the
		// interpreter performs no arity check against the target).
		for _, sub := range x.Subs {
			if _, isRange := sub.(*RangeExpr); isRange {
				c.nc(x.At, "range subscript in buffer write %q", x.Base)
			}
			if t := c.inferExpr(sub); t != tFloat && t != tNone {
				c.nc(x.At, "subscript of %q is not a number", x.Base)
			}
		}
		return tFloat
	}
	ai, isArr := c.arrayIx[x.Base]
	if !isArr {
		if _, isGlobal := c.globalIx[x.Base]; isGlobal {
			c.nc(x.At, "subscript of scalar global %q", x.Base)
		}
		c.nc(x.At, "subscript of unknown name %q", x.Base)
	}
	dims := c.arrayDims[ai]
	if len(x.Subs) != len(dims) {
		c.nc(x.At, "%s: %d subscripts for %d dims", x.Base, len(x.Subs), len(dims))
	}
	ranges := 0
	for _, sub := range x.Subs {
		if r, isRange := sub.(*RangeExpr); isRange {
			ranges++
			if !r.Full {
				if t := c.inferExpr(r.Lo); t != tFloat && t != tNone {
					c.nc(x.At, "range bound of %q is not a number", x.Base)
				}
				if t := c.inferExpr(r.Hi); t != tFloat && t != tNone {
					c.nc(x.At, "range bound of %q is not a number", x.Base)
				}
			}
			continue
		}
		if t := c.inferExpr(sub); t != tFloat && t != tNone {
			c.nc(x.At, "subscript of %q is not a number", x.Base)
		}
	}
	switch ranges {
	case 0:
		return tFloat
	case 1:
		return tVec
	}
	c.nc(x.At, "%s: more than one range subscript", x.Base)
	return tNone
}

func (c *compiler) setLocalType(name string, at Pos, t vtype) {
	if t == tNone {
		if c.strict {
			c.nc(at, "variable %q has no inferable type", name)
		}
		if _, seen := c.types[name]; !seen {
			c.types[name] = tNone
			c.changed = true
		}
		return
	}
	cur, seen := c.types[name]
	if !seen || cur == tNone {
		c.types[name] = t
		c.changed = true
		return
	}
	if cur != t {
		c.nc(at, "variable %q assigned both %s and %s values", name, cur, t)
	}
}

func (c *compiler) inferStmts(body []Stmt) {
	for _, st := range body {
		switch s := st.(type) {
		case *Assign:
			c.inferAssign(s)
		case *If:
			t := c.inferExpr(s.Cond)
			if t != tBool && t != tNone {
				c.nc(s.At, "if condition is not boolean")
			}
			c.inferStmts(s.Then)
			c.inferStmts(s.Else)
		case *ForRange:
			for _, b := range []Expr{s.Lo, s.Hi} {
				if t := c.inferExpr(b); t != tFloat && t != tNone {
					c.nc(s.At, "loop bound is not a number")
				}
			}
			c.setLocalType(s.Var, s.At, tFloat)
			c.inferStmts(s.Body)
		case *ExprStmt:
			c.inferExpr(s.X)
		default:
			c.nc(c.loop.At, "unsupported statement %T", st)
		}
	}
}

func (c *compiler) inferAssign(s *Assign) {
	rhs := c.inferExpr(s.Value)
	switch t := s.Target.(type) {
	case *Ident:
		if t.Name == c.loop.KeyVar {
			c.nc(t.At, "assignment to the key variable %q", t.Name)
		}
		if _, isGlobal := c.globalIx[t.Name]; isGlobal {
			if rhs == tNone {
				return
			}
			if rhs != tFloat {
				c.nc(t.At, "global %q assigned a %s value", t.Name, rhs)
			}
			return
		}
		if s.Op == "=" {
			if rhs == tVec {
				if _, alias := s.Value.(*Ident); alias {
					c.nc(t.At, "vector aliasing assignment %q = %q", t.Name, s.Value)
				}
			}
			c.setLocalType(t.Name, t.At, rhs)
			return
		}
		cur := c.types[t.Name]
		if cur == tNone || rhs == tNone {
			if c.strict {
				c.nc(t.At, "%s of variable %q with no inferable type", s.Op, t.Name)
			}
			return
		}
		if res := c.binResult(string(s.Op[0]), t.At, cur, rhs); res != cur {
			c.nc(t.At, "%s changes %q from %s to %s", s.Op, t.Name, cur, res)
		}
	case *Index:
		targetT := c.inferIndex(t, true)
		if rhs == tNone || targetT == tNone {
			if c.strict {
				c.nc(t.At, "assignment through %q has no inferable type", t.Base)
			}
			return
		}
		if _, isBuf := c.bufIx[t.Base]; isBuf {
			if s.Op != "+=" && s.Op != "-=" {
				c.nc(t.At, "DistArray Buffer %q accepts only += and -= writes", t.Base)
			}
			if rhs != tFloat {
				c.nc(t.At, "buffer write needs a scalar")
			}
			return
		}
		if targetT == tFloat {
			// Point write (array element, vector element, key — key
			// writes were rejected in inferIndex).
			if rhs != tFloat {
				c.nc(t.At, "scalar write to %q needs a scalar value", t.Base)
			}
			return
		}
		// Range write.
		if s.Op == "=" {
			if rhs != tVec {
				c.nc(t.At, "range write to %q needs a vector value", t.Base)
			}
			return
		}
		if res := c.binResult(string(s.Op[0]), t.At, tVec, rhs); res != tVec {
			c.nc(t.At, "range update to %q is not a vector", t.Base)
		}
	default:
		c.nc(s.At, "bad assignment target %s", s.Target)
	}
}

// --- lowering ---

func arithFn(op byte) func(a, b float64) float64 {
	switch op {
	case '+':
		return func(a, b float64) float64 { return a + b }
	case '-':
		return func(a, b float64) float64 { return a - b }
	case '*':
		return func(a, b float64) float64 { return a * b }
	case '/':
		return func(a, b float64) float64 { return a / b }
	case '^':
		return math.Pow
	}
	return nil
}

func (c *compiler) compileStmts(body []Stmt) stmtFn {
	if len(body) == 0 {
		return func(*frame) {}
	}
	fns := make([]stmtFn, len(body))
	for i, st := range body {
		fns[i] = c.compileStmt(st)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(f *frame) {
		for _, fn := range fns {
			fn(f)
		}
	}
}

func (c *compiler) compileStmt(st Stmt) stmtFn {
	switch s := st.(type) {
	case *Assign:
		return c.compileAssign(s)
	case *If:
		cond := c.compileBool(s.Cond)
		then := c.compileStmts(s.Then)
		els := c.compileStmts(s.Else)
		return func(f *frame) {
			if cond(f) {
				then(f)
			} else {
				els(f)
			}
		}
	case *ForRange:
		lo := c.compileFloat(s.Lo)
		hi := c.compileFloat(s.Hi)
		slot := c.floatIx[s.Var]
		body := c.compileStmts(s.Body)
		return func(f *frame) {
			l, h := int64(lo(f)), int64(hi(f))
			for v := l; v <= h; v++ {
				if f.budget != 0 {
					f.budget--
					if f.budget == 0 {
						fail("lang: step budget exhausted")
					}
				}
				f.fl[slot] = float64(v)
				f.flDef[slot] = true
				body(f)
			}
		}
	case *ExprStmt:
		switch c.inferExpr(s.X) {
		case tVec:
			e := c.compileVec(s.X, vecConsume)
			return func(f *frame) { e(f) }
		case tBool:
			e := c.compileBool(s.X)
			return func(f *frame) { e(f) }
		default:
			e := c.compileFloat(s.X)
			return func(f *frame) { e(f) }
		}
	}
	c.nc(c.loop.At, "unsupported statement %T", st)
	return nil
}

func (c *compiler) compileAssign(s *Assign) stmtFn {
	switch t := s.Target.(type) {
	case *Ident:
		return c.compileIdentAssign(s, t)
	case *Index:
		if slot, isVec := c.vecIx[t.Base]; isVec && t.Base != c.loop.KeyVar {
			return c.compileVecElemAssign(s, t, slot)
		}
		if bi, isBuf := c.bufIx[t.Base]; isBuf {
			return c.compileBufferWrite(s, t, bi)
		}
		return c.compileArrayWrite(s, t)
	}
	c.nc(s.At, "bad assignment target %s", s.Target)
	return nil
}

func (c *compiler) compileIdentAssign(s *Assign, t *Ident) stmtFn {
	name := t.Name
	if gs, isGlobal := c.globalIx[name]; isGlobal {
		rhs := c.compileFloat(s.Value)
		if s.Op == "=" {
			return func(f *frame) {
				f.gl[gs] = rhs(f)
				f.glDef[gs] = true
			}
		}
		op, opName := arithFn(s.Op[0]), s.Op
		return func(f *frame) {
			v := rhs(f)
			if !f.glDef[gs] {
				fail("lang: %s of undefined variable %q", opName, name)
			}
			f.gl[gs] = op(f.gl[gs], v)
		}
	}
	switch c.types[name] {
	case tFloat:
		slot := c.floatIx[name]
		rhs := c.compileFloat(s.Value)
		if s.Op == "=" {
			return func(f *frame) {
				f.fl[slot] = rhs(f)
				f.flDef[slot] = true
			}
		}
		op, opName := arithFn(s.Op[0]), s.Op
		return func(f *frame) {
			v := rhs(f)
			if !f.flDef[slot] {
				fail("lang: %s of undefined variable %q", opName, name)
			}
			f.fl[slot] = op(f.fl[slot], v)
		}
	case tBool:
		if s.Op != "=" {
			c.nc(s.At, "compound assignment to boolean %q", name)
		}
		slot := c.boolIx[name]
		rhs := c.compileBool(s.Value)
		return func(f *frame) {
			f.bo[slot] = rhs(f)
			f.boDef[slot] = true
		}
	case tVec:
		slot := c.vecIx[name]
		if s.Op == "=" {
			rhs := c.compileVec(s.Value, vecStore)
			return func(f *frame) {
				f.vec[slot] = rhs(f)
				f.vecDef[slot] = true
			}
		}
		op, opName := arithFn(s.Op[0]), s.Op
		sid := c.newScratch()
		if c.inferExpr(s.Value) == tFloat {
			rhs := c.compileFloat(s.Value)
			return func(f *frame) {
				v := rhs(f)
				if !f.vecDef[slot] {
					fail("lang: %s of undefined variable %q", opName, name)
				}
				cur := f.vec[slot]
				out := f.growScratch(sid, len(cur))
				for i := range cur {
					out[i] = op(cur[i], v)
				}
				f.vec[slot] = out
			}
		}
		rhs := c.compileVec(s.Value, vecConsume)
		return func(f *frame) {
			rv := rhs(f)
			if !f.vecDef[slot] {
				fail("lang: %s of undefined variable %q", opName, name)
			}
			cur := f.vec[slot]
			if len(cur) != len(rv) {
				fail("lang: vector length mismatch %d vs %d", len(cur), len(rv))
			}
			out := f.growScratch(sid, len(cur))
			for i := range cur {
				out[i] = op(cur[i], rv[i])
			}
			f.vec[slot] = out
		}
	}
	c.nc(s.At, "assignment to %q has no inferable type", name)
	return nil
}

// compileVecElemAssign lowers v[i] op= rhs for a vector local.
func (c *compiler) compileVecElemAssign(s *Assign, t *Index, slot int) stmtFn {
	base := t.Base
	rhs := c.compileFloat(s.Value)
	sub := c.compileFloat(t.Subs[0])
	var op func(a, b float64) float64
	if s.Op != "=" {
		op = arithFn(s.Op[0])
	}
	return func(f *frame) {
		v := rhs(f)
		if !f.vecDef[slot] {
			// The interpreter's lookup misses and the write falls
			// through to the (absent) array table.
			fail("lang: write to unknown array %q", base)
		}
		i := int64(sub(f))
		vec := f.vec[slot]
		if i < 1 || int(i) > len(vec) {
			fail("lang: vector subscript %d out of range", i)
		}
		if op == nil {
			vec[i-1] = v
		} else {
			vec[i-1] = op(vec[i-1], v)
		}
	}
}

func (c *compiler) compileBufferWrite(s *Assign, t *Index, bi int) stmtFn {
	base := t.Base
	rhs := c.compileFloat(s.Value)
	neg := s.Op == "-="
	subs := make([]floatFn, len(t.Subs))
	for i, sub := range t.Subs {
		subs[i] = c.compileFloat(sub)
	}
	ii := c.newIdx(len(subs))
	return func(f *frame) {
		v := rhs(f)
		b := f.buffers[bi]
		if b == nil {
			fail("lang: write to unknown array %q", base)
		}
		if neg {
			v = -v
		}
		ix := f.idx[ii]
		for d, sf := range subs {
			ix[d] = int64(sf(f)) - 1
		}
		b.Put(v, ix...)
	}
}

// rangeShape is the static shape of an array subscript list with at
// most one range.
type rangeShape struct {
	rank     int
	rangeDim int // -1 when all subscripts are points
	full     bool
	points   []floatFn // nil entries at rangeDim
	lo, hi   floatFn   // partial-range bounds
	extent   int64     // dims[rangeDim] for full ranges
}

func (c *compiler) subShape(x *Index, ai int) rangeShape {
	dims := c.arrayDims[ai]
	sh := rangeShape{rank: len(dims), rangeDim: -1, points: make([]floatFn, len(dims))}
	for i, sub := range x.Subs {
		if r, isRange := sub.(*RangeExpr); isRange {
			sh.rangeDim = i
			sh.full = r.Full
			if r.Full {
				sh.extent = dims[i]
			} else {
				sh.lo = c.compileFloat(r.Lo)
				sh.hi = c.compileFloat(r.Hi)
			}
			continue
		}
		sh.points[i] = c.compileFloat(sub)
	}
	return sh
}

// resolve evaluates the subscripts in source order into ix (0-based)
// and returns the 0-based inclusive range bounds (0,0 when pointwise).
func (sh *rangeShape) resolve(f *frame, ix []int64) (lo, hi int64) {
	for d := 0; d < sh.rank; d++ {
		if d == sh.rangeDim {
			if sh.full {
				lo, hi = 0, sh.extent-1
			} else {
				lo = int64(sh.lo(f)) - 1
				hi = int64(sh.hi(f)) - 1
			}
			continue
		}
		ix[d] = int64(sh.points[d](f)) - 1
	}
	return lo, hi
}

func (c *compiler) compileArrayWrite(s *Assign, t *Index) stmtFn {
	base := t.Base
	ai, isArr := c.arrayIx[base]
	if !isArr {
		c.nc(t.At, "write to unknown array %q", base)
	}
	sh := c.subShape(t, ai)
	ii := c.newIdx(sh.rank)
	if sh.rangeDim < 0 {
		rhs := c.compileFloat(s.Value)
		var op func(a, b float64) float64
		if s.Op != "=" {
			op = arithFn(s.Op[0])
		}
		return func(f *frame) {
			v := rhs(f)
			a := f.arrays[ai]
			if a == nil {
				fail("lang: write to unknown array %q", base)
			}
			ix := f.idx[ii]
			sh.resolve(f, ix)
			if op != nil {
				v = op(a.At(ix...), v)
			}
			a.SetAt(v, ix...)
		}
	}
	rd := sh.rangeDim
	if s.Op == "=" {
		rhs := c.compileVec(s.Value, vecWrite)
		return func(f *frame) {
			rv := rhs(f)
			a := f.arrays[ai]
			if a == nil {
				fail("lang: write to unknown array %q", base)
			}
			ix := f.idx[ii]
			lo, hi := sh.resolve(f, ix)
			if int64(len(rv)) != hi-lo+1 {
				fail("lang: %s: vector length %d does not match range %d:%d",
					base, len(rv), lo+1, hi+1)
			}
			for v := lo; v <= hi; v++ {
				ix[rd] = v
				a.SetAt(rv[v-lo], ix...)
			}
		}
	}
	op := arithFn(s.Op[0])
	curSid := c.newScratch()
	if c.inferExpr(s.Value) == tFloat {
		rhs := c.compileFloat(s.Value)
		return func(f *frame) {
			rv := rhs(f)
			a := f.arrays[ai]
			if a == nil {
				fail("lang: write to unknown array %q", base)
			}
			ix := f.idx[ii]
			lo, hi := sh.resolve(f, ix)
			cur := f.growScratch(curSid, int(hi-lo+1))
			for v := lo; v <= hi; v++ {
				ix[rd] = v
				cur[v-lo] = a.At(ix...)
			}
			for i := range cur {
				cur[i] = op(cur[i], rv)
			}
			for v := lo; v <= hi; v++ {
				ix[rd] = v
				a.SetAt(cur[v-lo], ix...)
			}
		}
	}
	rhs := c.compileVec(s.Value, vecWrite)
	return func(f *frame) {
		rv := rhs(f)
		a := f.arrays[ai]
		if a == nil {
			fail("lang: write to unknown array %q", base)
		}
		ix := f.idx[ii]
		lo, hi := sh.resolve(f, ix)
		cur := f.growScratch(curSid, int(hi-lo+1))
		for v := lo; v <= hi; v++ {
			ix[rd] = v
			cur[v-lo] = a.At(ix...)
		}
		if len(cur) != len(rv) {
			fail("lang: vector length mismatch %d vs %d", len(cur), len(rv))
		}
		for i := range cur {
			cur[i] = op(cur[i], rv[i])
		}
		for v := lo; v <= hi; v++ {
			ix[rd] = v
			a.SetAt(cur[v-lo], ix...)
		}
	}
}

func (c *compiler) compileFloat(e Expr) floatFn {
	switch x := e.(type) {
	case *Num:
		v := x.Val
		return func(*frame) float64 { return v }
	case *Ident:
		name := x.Name
		if gs, isGlobal := c.globalIx[name]; isGlobal {
			if _, isLocal := c.types[name]; !isLocal {
				return func(f *frame) float64 {
					if !f.glDef[gs] {
						fail("lang: undefined variable %q", name)
					}
					return f.gl[gs]
				}
			}
		}
		slot := c.floatIx[name]
		return func(f *frame) float64 {
			if !f.flDef[slot] {
				fail("lang: undefined variable %q", name)
			}
			return f.fl[slot]
		}
	case *UnOp:
		v := c.compileFloat(x.X)
		return func(f *frame) float64 { return -v(f) }
	case *BinOp:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case "+":
			return func(f *frame) float64 { return l(f) + r(f) }
		case "-":
			return func(f *frame) float64 { return l(f) - r(f) }
		case "*":
			return func(f *frame) float64 { return l(f) * r(f) }
		case "/":
			return func(f *frame) float64 { return l(f) / r(f) }
		case "^":
			return func(f *frame) float64 { return math.Pow(l(f), r(f)) }
		}
		c.nc(x.At, "operator %q is not a scalar operator", x.Op)
	case *Call:
		return c.compileFloatCall(x)
	case *Index:
		return c.compileFloatIndex(x)
	}
	c.nc(c.loop.At, "unsupported scalar expression %T", e)
	return nil
}

func (c *compiler) compileFloatCall(x *Call) floatFn {
	switch x.Fn {
	case "rand":
		return func(f *frame) float64 {
			if f.rng == nil {
				fail("lang: rand() requires a Machine with an Rng")
			}
			return f.rng.Float64()
		}
	case "dot":
		a := c.compileVec(x.Args[0], vecConsume)
		b := c.compileVec(x.Args[1], vecConsume)
		return func(f *frame) float64 {
			av := a(f)
			bv := b(f)
			if len(av) != len(bv) {
				fail("lang: dot needs two equal-length vectors")
			}
			var s float64
			for i := range av {
				s += av[i] * bv[i]
			}
			return s
		}
	case "length":
		v := c.compileVec(x.Args[0], vecConsume)
		return func(f *frame) float64 { return float64(len(v(f))) }
	case "min", "max":
		a := c.compileFloat(x.Args[0])
		b := c.compileFloat(x.Args[1])
		isMin := x.Fn == "min"
		return func(f *frame) float64 {
			av, bv := a(f), b(f)
			if isMin == (av < bv) {
				return av
			}
			return bv
		}
	case "abs", "abs2", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		arg := c.compileFloat(x.Args[0])
		switch x.Fn {
		case "abs":
			return func(f *frame) float64 { return math.Abs(arg(f)) }
		case "abs2":
			return func(f *frame) float64 { v := arg(f); return v * v }
		case "sqrt":
			return func(f *frame) float64 { return math.Sqrt(arg(f)) }
		case "exp":
			return func(f *frame) float64 { return math.Exp(arg(f)) }
		case "log":
			return func(f *frame) float64 { return math.Log(arg(f)) }
		case "floor":
			return func(f *frame) float64 { return math.Floor(arg(f)) }
		case "ceil":
			return func(f *frame) float64 { return math.Ceil(arg(f)) }
		default:
			return func(f *frame) float64 { return 1 / (1 + math.Exp(-arg(f))) }
		}
	}
	c.nc(x.At, "unsupported function %q", x.Fn)
	return nil
}

func (c *compiler) compileFloatIndex(x *Index) floatFn {
	base := x.Base
	if base == c.loop.KeyVar {
		sub := c.compileFloat(x.Subs[0])
		return func(f *frame) float64 {
			k := int64(sub(f))
			if k < 1 || int(k) > len(f.key) {
				fail("lang: key subscript %d out of range", k)
			}
			// DSL coordinates are 1-based.
			return float64(f.key[k-1] + 1)
		}
	}
	if slot, isVec := c.vecIx[base]; isVec {
		sub := c.compileFloat(x.Subs[0])
		return func(f *frame) float64 {
			if !f.vecDef[slot] {
				// The interpreter's lookup misses and the read falls
				// through to the (absent) array table.
				fail("lang: read of unknown array %q", base)
			}
			i := int64(sub(f))
			vec := f.vec[slot]
			if i < 1 || int(i) > len(vec) {
				fail("lang: vector subscript %d out of range", i)
			}
			return vec[i-1]
		}
	}
	ai, isArr := c.arrayIx[base]
	if !isArr {
		c.nc(x.At, "read of unknown array %q", base)
	}
	sh := c.subShape(x, ai)
	ii := c.newIdx(sh.rank)
	return func(f *frame) float64 {
		a := f.arrays[ai]
		if a == nil {
			fail("lang: read of unknown array %q", base)
		}
		ix := f.idx[ii]
		sh.resolve(f, ix)
		return a.At(ix...)
	}
}

func (c *compiler) compileVec(e Expr, mode vecMode) vecFn {
	switch x := e.(type) {
	case *Ident:
		name := x.Name
		if mode == vecStore {
			c.nc(x.At, "vector aliasing assignment from %q", name)
		}
		slot := c.vecIx[name]
		return func(f *frame) []float64 {
			if !f.vecDef[slot] {
				fail("lang: undefined variable %q", name)
			}
			return f.vec[slot]
		}
	case *UnOp:
		src := c.compileVec(x.X, vecConsume)
		sid := c.newScratch()
		return func(f *frame) []float64 {
			v := src(f)
			out := f.growScratch(sid, len(v))
			for i, e := range v {
				out[i] = -e
			}
			return out
		}
	case *BinOp:
		return c.compileVecBin(x)
	case *Call:
		// zeros is the only vector-valued builtin.
		n := c.compileFloat(x.Args[0])
		sid := c.newScratch()
		return func(f *frame) []float64 {
			nf := n(f)
			if f.vecLimit > 0 && nf > float64(f.vecLimit) {
				fail("lang: zeros(%g) exceeds the vector length limit %d", nf, f.vecLimit)
			}
			out := f.growScratch(sid, int(nf))
			for i := range out {
				out[i] = 0
			}
			return out
		}
	case *Index:
		return c.compileVecIndex(x, mode)
	}
	c.nc(c.loop.At, "unsupported vector expression %T", e)
	return nil
}

func (c *compiler) compileVecBin(x *BinOp) vecFn {
	op := arithFn(x.Op[0])
	if op == nil || len(x.Op) != 1 {
		c.nc(x.At, "operator %q is not a vector operator", x.Op)
	}
	lt := c.inferExpr(x.L)
	rt := c.inferExpr(x.R)
	sid := c.newScratch()
	switch {
	case lt == tVec && rt == tVec:
		l := c.compileVec(x.L, vecConsume)
		r := c.compileVec(x.R, vecConsume)
		return func(f *frame) []float64 {
			lv := l(f)
			rv := r(f)
			if len(lv) != len(rv) {
				fail("lang: vector length mismatch %d vs %d", len(lv), len(rv))
			}
			out := f.growScratch(sid, len(lv))
			for i := range lv {
				out[i] = op(lv[i], rv[i])
			}
			return out
		}
	case lt == tVec:
		l := c.compileVec(x.L, vecConsume)
		r := c.compileFloat(x.R)
		return func(f *frame) []float64 {
			lv := l(f)
			rv := r(f)
			out := f.growScratch(sid, len(lv))
			for i := range lv {
				out[i] = op(lv[i], rv)
			}
			return out
		}
	default:
		l := c.compileFloat(x.L)
		r := c.compileVec(x.R, vecConsume)
		return func(f *frame) []float64 {
			lv := l(f)
			rv := r(f)
			out := f.growScratch(sid, len(rv))
			for i := range rv {
				out[i] = op(lv, rv[i])
			}
			return out
		}
	}
}

func (c *compiler) compileVecIndex(x *Index, mode vecMode) vecFn {
	base := x.Base
	ai := c.arrayIx[base]
	sh := c.subShape(x, ai)
	ii := c.newIdx(sh.rank)
	sid := c.newScratch()
	rd := sh.rangeDim
	generic := func(f *frame, a ArrayAccess) []float64 {
		ix := f.idx[ii]
		lo, hi := sh.resolve(f, ix)
		out := f.growScratch(sid, int(hi-lo+1))
		for v := lo; v <= hi; v++ {
			ix[rd] = v
			out[v-lo] = a.At(ix...)
		}
		return out
	}
	// Zero-copy fast path: a full range on the contiguous first
	// dimension of a dense array, in a position where the result is
	// consumed before any write can occur, returns the live parameter
	// vector (the @view of Fig. 5) instead of copying.
	if mode == vecConsume && rd == 0 && sh.full && sh.rank >= 1 {
		rest := make([]floatFn, sh.rank-1)
		for d := 1; d < sh.rank; d++ {
			rest[d-1] = sh.points[d]
		}
		dims := c.arrayDims[ai]
		extent := sh.extent
		ri := c.newIdx(len(rest))
		// atLoop reads element-wise with subscripts already evaluated
		// into ix (so the out-of-bounds panic is the ArrayAccess
		// implementation's own, exactly as the interpreter raises it,
		// and subscript side effects are not repeated).
		atLoop := func(f *frame, a ArrayAccess, ix []int64) []float64 {
			out := f.growScratch(sid, int(extent))
			for v := int64(0); v < extent; v++ {
				ix[0] = v
				out[v] = a.At(ix...)
			}
			return out
		}
		return func(f *frame) []float64 {
			if va := f.fast[ai]; va != nil {
				ix := f.idx[ri]
				inBounds := true
				for d, sf := range rest {
					ix[d] = int64(sf(f)) - 1
					if ix[d] < 0 || ix[d] >= dims[d+1] {
						inBounds = false
					}
				}
				if inBounds {
					return va.Vec(ix...)
				}
				// Out of bounds: take the element-wise path so the
				// panic matches the interpreter's At-based read.
				full := f.idx[ii]
				copy(full[1:], ix)
				return atLoop(f, va, full)
			}
			a := f.arrays[ai]
			if a == nil {
				fail("lang: read of unknown array %q", base)
			}
			return generic(f, a)
		}
	}
	return func(f *frame) []float64 {
		a := f.arrays[ai]
		if a == nil {
			fail("lang: read of unknown array %q", base)
		}
		return generic(f, a)
	}
}

func (c *compiler) compileBool(e Expr) boolFn {
	switch x := e.(type) {
	case *Bool:
		v := x.Val
		return func(*frame) bool { return v }
	case *Ident:
		name := x.Name
		slot := c.boolIx[name]
		return func(f *frame) bool {
			if !f.boDef[slot] {
				fail("lang: undefined variable %q", name)
			}
			return f.bo[slot]
		}
	case *BinOp:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }
		case "!=":
			return func(f *frame) bool { return l(f) != r(f) }
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }
		}
	}
	c.nc(c.loop.At, "unsupported boolean expression %s", e)
	return nil
}

// --- execution ---

// CompiledKernel is one executor's mutable instance of a CompiledLoop:
// bound arrays and buffers, global values, and reusable scratch. Not
// safe for concurrent use; create one per goroutine with NewKernel.
//
//lint:ignore reach 3A(a) deletes the closure compiler; until then the tests' differential drives these methods
type CompiledKernel struct {
	cl *CompiledLoop
	f  frame
}

// NewKernel allocates a kernel instance with empty bindings.
func (cl *CompiledLoop) NewKernel() *CompiledKernel {
	k := &CompiledKernel{cl: cl}
	f := &k.f
	f.fl = make([]float64, cl.numFloat)
	f.flDef = make([]bool, cl.numFloat)
	f.vec = make([][]float64, cl.numVec)
	f.vecDef = make([]bool, cl.numVec)
	f.bo = make([]bool, cl.numBool)
	f.boDef = make([]bool, cl.numBool)
	f.gl = make([]float64, len(cl.globalNames))
	f.glDef = make([]bool, len(cl.globalNames))
	f.arrays = make([]ArrayAccess, len(cl.arrayNames))
	f.fast = make([]VecAccess, len(cl.arrayNames))
	f.buffers = make([]BufferAccess, len(cl.bufNames))
	f.scratch = make([][]float64, cl.nScratch)
	f.idx = make([][]int64, len(cl.idxSizes))
	for i, n := range cl.idxSizes {
		f.idx[i] = make([]int64, n)
	}
	return k
}

// BindArray binds a DistArray view to its slot; the view's extents must
// match the compile-time environment.
func (k *CompiledKernel) BindArray(name string, a ArrayAccess) error {
	i, ok := k.cl.arrayIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no array %q", name)
	}
	want := k.cl.arrayDims[i]
	got := a.Dims()
	if len(got) != len(want) {
		return fmt.Errorf("lang: array %q bound with rank %d, compiled for %d", name, len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			return fmt.Errorf("lang: array %q bound with dims %v, compiled for %v", name, got, want)
		}
	}
	k.f.arrays[i] = a
	k.f.fast[i] = nil
	if va, ok := a.(VecAccess); ok && va.IsDense() {
		k.f.fast[i] = va
	}
	return nil
}

// BindBuffer binds a DistArray Buffer to its slot.
func (k *CompiledKernel) BindBuffer(name string, b BufferAccess) error {
	i, ok := k.cl.bufIx[name]
	if !ok {
		return fmt.Errorf("lang: compiled loop has no buffer %q", name)
	}
	k.f.buffers[i] = b
	return nil
}

// SetRng backs the rand() builtin (nil makes rand() an error, matching
// Machine semantics).
func (k *CompiledKernel) SetRng(r RandSource) { k.f.rng = r }

// SetStepBudget bounds inner for-range body executions across the
// kernel's lifetime; 0 disables the budget. Mirrors Machine.StepBudget.
func (k *CompiledKernel) SetStepBudget(n int64) { k.f.budget = n }

// SetVecLimit bounds zeros() vector lengths; 0 disables the limit.
// Mirrors Machine.VecLimit.
func (k *CompiledKernel) SetVecLimit(n int64) { k.f.vecLimit = n }

// SetGlobal sets a global slot's value, reporting whether the loop
// declares the name.
func (k *CompiledKernel) SetGlobal(name string, v float64) bool {
	i, ok := k.cl.globalIx[name]
	if !ok {
		return false
	}
	k.f.gl[i] = v
	k.f.glDef[i] = true
	return true
}

// Global reads a global by name.
func (k *CompiledKernel) Global(name string) (float64, bool) {
	i, ok := k.cl.globalIx[name]
	if !ok {
		return 0, false
	}
	return k.f.gl[i], true
}

// RunIteration executes the loop body for one iteration. The key slice
// is borrowed for the duration of the call and never retained. Runtime
// faults the interpreter reports as errors come back as errors; array
// bounds violations panic, exactly as they do under interpretation.
func (k *CompiledKernel) RunIteration(key []int64, val float64) (err error) {
	f := &k.f
	for i := range f.flDef {
		f.flDef[i] = false
	}
	for i := range f.vecDef {
		f.vecDef[i] = false
	}
	for i := range f.boDef {
		f.boDef[i] = false
	}
	f.key = key
	if k.cl.valSlot >= 0 {
		f.fl[k.cl.valSlot] = val
		f.flDef[k.cl.valSlot] = true
	}
	defer func() {
		if r := recover(); r != nil {
			if kf, ok := r.(kernelFault); ok {
				err = kf.err
				return
			}
			panic(r)
		}
	}()
	k.cl.body(f)
	return nil
}

// RunLoop executes the loop body once per element of the bound
// iteration-space array, in deterministic element order, stopping at
// the first error.
func (k *CompiledKernel) RunLoop() error {
	iterVar := k.cl.loop.IterVar
	i, ok := k.cl.arrayIx[iterVar]
	if !ok || k.f.arrays[i] == nil {
		return fmt.Errorf("lang: iteration space %q not bound", iterVar)
	}
	iter, ok := k.f.arrays[i].(Iterable)
	if !ok {
		return fmt.Errorf("lang: iteration space %q is not iterable on this machine", iterVar)
	}
	return forEachStop(iter, func(idx []int64, v float64) error {
		return k.RunIteration(idx, v)
	})
}
