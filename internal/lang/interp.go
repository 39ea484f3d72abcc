package lang

import (
	"fmt"
	"math"
)

// Value is a runtime value: float64, []float64, bool, or a key tuple
// ([]int64).
type Value interface{}

// ArrayAccess is the element-level view of a DistArray the interpreter
// needs. *dsm.DistArray implements it; the distributed runtime binds
// partition and parameter-server views instead, which lets the same
// interpreted loop body run on a worker against its local partitions.
type ArrayAccess interface {
	Dims() []int64
	At(idx ...int64) float64
	SetAt(v float64, idx ...int64)
}

// BufferAccess is the write-side of a DistArray Buffer.
// *dsm.Buffer implements it.
type BufferAccess interface {
	Put(update float64, idx ...int64) bool
}

// Iterable is what RunLoop needs from the iteration-space array.
type Iterable interface {
	ForEach(f func(idx []int64, v float64))
}

// IterableUntil is the early-termination variant: the walk stops as
// soon as f returns false. *dsm.DistArray implements it; RunLoop uses
// it so an iteration error stops the walk instead of visiting (and
// skipping) every remaining element.
type IterableUntil interface {
	ForEachUntil(f func(idx []int64, v float64) bool)
}

// forEachStop walks an iteration space, stopping at the first error f
// returns. Iterables without early termination fall back to a full
// walk that skips elements after the first error.
func forEachStop(iter Iterable, f func(idx []int64, v float64) error) error {
	var firstErr error
	if u, ok := iter.(IterableUntil); ok {
		u.ForEachUntil(func(idx []int64, v float64) bool {
			firstErr = f(idx, v)
			return firstErr == nil
		})
		return firstErr
	}
	iter.ForEach(func(idx []int64, v float64) {
		if firstErr != nil {
			return
		}
		firstErr = f(idx, v)
	})
	return firstErr
}

// Machine executes DSL loop bodies against DistArrays — the runtime
// counterpart of the code the Julia implementation generates during
// macro expansion.
type Machine struct {
	// Arrays binds DistArray names.
	Arrays map[string]ArrayAccess
	// Buffers binds DistArray Buffer names.
	Buffers map[string]BufferAccess
	// Globals holds driver-program variables visible to the loop
	// (inherited read-only variables and accumulators). Compound
	// assignments to a global update it in place (accumulator
	// semantics on this worker).
	Globals map[string]Value
	// Rng, when set, backs the rand() builtin; leave nil to make
	// rand() an error (deterministic programs).
	Rng RandSource
	// Recorder, when set, intercepts reads of the arrays in its set:
	// the subscripts are recorded and a zero value returned. Used by
	// the synthesized prefetch function (Section 4.4).
	Recorder *Recorder
	// StepBudget, when non-zero, bounds inner for-range body
	// executions across the machine's lifetime; exceeding it is an
	// error. Used to bound fuzzed programs.
	StepBudget int64
	// VecLimit, when non-zero, bounds zeros() vector lengths.
	VecLimit int64
}

// RandSource is the rand() builtin's backing generator.
type RandSource interface {
	Float64() float64
}

// Recorder collects the DistArray element indices a sliced loop body
// would read.
type Recorder struct {
	Targets map[string]bool
	// Indices maps array name to flattened element offsets, in record
	// order (may contain duplicates; callers dedupe).
	Indices map[string][]int64
}

// NewRecorder builds a recorder for the given arrays.
func NewRecorder(targets ...string) *Recorder {
	m := make(map[string]bool, len(targets))
	for _, t := range targets {
		m[t] = true
	}
	return &Recorder{Targets: m, Indices: make(map[string][]int64)}
}

// NewMachine builds an interpreter instance.
func NewMachine() *Machine {
	return &Machine{
		Arrays:  make(map[string]ArrayAccess),
		Buffers: make(map[string]BufferAccess),
		Globals: make(map[string]Value),
	}
}

// RunLoop executes the loop body once per element of the iteration
// space array, in deterministic element order. The bound iteration
// array must be Iterable (a *dsm.DistArray is).
func (m *Machine) RunLoop(loop *Loop) error {
	bound, ok := m.Arrays[loop.IterVar]
	if !ok {
		return fmt.Errorf("lang: iteration space %q not bound", loop.IterVar)
	}
	iter, ok := bound.(Iterable)
	if !ok {
		return fmt.Errorf("lang: iteration space %q is not iterable on this machine", loop.IterVar)
	}
	return forEachStop(iter, func(idx []int64, v float64) error {
		return m.RunIteration(loop, idx, v)
	})
}

// RunIteration executes the loop body for one iteration.
func (m *Machine) RunIteration(loop *Loop, key []int64, val float64) error {
	scope := &scope{m: m, vars: make(map[string]Value)}
	scope.vars[loop.KeyVar] = append([]int64(nil), key...)
	if loop.ValVar != "" {
		scope.vars[loop.ValVar] = val
	}
	return m.exec(loop.Body, scope)
}

type scope struct {
	m    *Machine
	vars map[string]Value
}

func (s *scope) lookup(name string) (Value, bool) {
	if v, ok := s.vars[name]; ok {
		return v, true
	}
	v, ok := s.m.Globals[name]
	return v, ok
}

func (s *scope) set(name string, v Value) {
	if _, ok := s.m.Globals[name]; ok {
		if _, local := s.vars[name]; !local {
			s.m.Globals[name] = v
			return
		}
	}
	s.vars[name] = v
}

func (m *Machine) exec(body []Stmt, sc *scope) error {
	for _, st := range body {
		switch s := st.(type) {
		case *Assign:
			if err := m.execAssign(s, sc); err != nil {
				return err
			}
		case *If:
			cond, err := m.eval(s.Cond, sc)
			if err != nil {
				return err
			}
			b, ok := cond.(bool)
			if !ok {
				return fmt.Errorf("lang: if condition is not boolean: %s", s.Cond)
			}
			if b {
				if err := m.exec(s.Then, sc); err != nil {
					return err
				}
			} else if err := m.exec(s.Else, sc); err != nil {
				return err
			}
		case *ForRange:
			lo, err := m.evalInt(s.Lo, sc)
			if err != nil {
				return err
			}
			hi, err := m.evalInt(s.Hi, sc)
			if err != nil {
				return err
			}
			for v := lo; v <= hi; v++ {
				if m.StepBudget != 0 {
					m.StepBudget--
					if m.StepBudget == 0 {
						return fmt.Errorf("lang: step budget exhausted")
					}
				}
				sc.vars[s.Var] = float64(v)
				if err := m.exec(s.Body, sc); err != nil {
					return err
				}
			}
		case *ExprStmt:
			if _, err := m.eval(s.X, sc); err != nil {
				return err
			}
		default:
			return fmt.Errorf("lang: cannot execute %T", st)
		}
	}
	return nil
}

func (m *Machine) execAssign(s *Assign, sc *scope) error {
	rhs, err := m.eval(s.Value, sc)
	if err != nil {
		return err
	}
	switch t := s.Target.(type) {
	case *Ident:
		if s.Op == "=" {
			sc.set(t.Name, rhs)
			return nil
		}
		cur, ok := sc.lookup(t.Name)
		if !ok {
			return fmt.Errorf("lang: %s of undefined variable %q", s.Op, t.Name)
		}
		nv, err := applyBin(string(s.Op[0]), cur, rhs)
		if err != nil {
			return err
		}
		sc.set(t.Name, nv)
		return nil
	case *Index:
		return m.writeIndex(t, s.Op, rhs, sc)
	default:
		return fmt.Errorf("lang: bad assignment target %s", s.Target)
	}
}

// resolvedSub is a concrete subscript: a point or a range.
type resolvedSub struct {
	point   int64
	lo, hi  int64 // inclusive, 0-based
	isRange bool
}

func (m *Machine) resolveSubs(base string, subs []Expr, dims []int64, sc *scope) ([]resolvedSub, error) {
	if len(subs) != len(dims) {
		return nil, fmt.Errorf("lang: %s: %d subscripts for %d dims", base, len(subs), len(dims))
	}
	out := make([]resolvedSub, len(subs))
	for i, sub := range subs {
		if r, ok := sub.(*RangeExpr); ok {
			if r.Full {
				out[i] = resolvedSub{isRange: true, lo: 0, hi: dims[i] - 1}
				continue
			}
			lo, err := m.evalInt(r.Lo, sc)
			if err != nil {
				return nil, err
			}
			hi, err := m.evalInt(r.Hi, sc)
			if err != nil {
				return nil, err
			}
			out[i] = resolvedSub{isRange: true, lo: lo - 1, hi: hi - 1}
			continue
		}
		v, err := m.evalInt(sub, sc)
		if err != nil {
			return nil, err
		}
		out[i] = resolvedSub{point: v - 1}
	}
	return out, nil
}

func (m *Machine) evalInt(e Expr, sc *scope) (int64, error) {
	v, err := m.eval(e, sc)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("lang: subscript %s is not a number", e)
	}
	return int64(f), nil
}

// readIndex evaluates A[subs...]: a scalar for all-point subscripts, a
// vector when exactly one subscript is a range.
func (m *Machine) readIndex(x *Index, sc *scope) (Value, error) {
	// key tuple access: key[k] is 1-based.
	if kv, ok := sc.lookup(x.Base); ok {
		if key, isKey := kv.([]int64); isKey {
			if len(x.Subs) != 1 {
				return nil, fmt.Errorf("lang: key tuple takes one subscript")
			}
			k, err := m.evalInt(x.Subs[0], sc)
			if err != nil {
				return nil, err
			}
			if k < 1 || int(k) > len(key) {
				return nil, fmt.Errorf("lang: key subscript %d out of range", k)
			}
			// DSL coordinates are 1-based.
			return float64(key[k-1] + 1), nil
		}
		// Subscripting a local vector variable: v[i].
		if vec, isVec := kv.([]float64); isVec {
			if len(x.Subs) != 1 {
				return nil, fmt.Errorf("lang: vector takes one subscript")
			}
			i, err := m.evalInt(x.Subs[0], sc)
			if err != nil {
				return nil, err
			}
			if i < 1 || int(i) > len(vec) {
				return nil, fmt.Errorf("lang: vector subscript %d out of range", i)
			}
			return vec[i-1], nil
		}
	}
	arr, ok := m.Arrays[x.Base]
	if !ok {
		return nil, fmt.Errorf("lang: read of unknown array %q", x.Base)
	}
	rs, err := m.resolveSubs(x.Base, x.Subs, arr.Dims(), sc)
	if err != nil {
		return nil, err
	}
	if m.Recorder != nil && m.Recorder.Targets[x.Base] {
		if err := m.recordRead(x.Base, arr, rs); err != nil {
			return nil, err
		}
		return m.zeroFor(rs), nil
	}
	return readResolved(x.Base, arr, rs)
}

// recordRead appends the flattened offset of every element the read
// touches. An out-of-bounds element has no offset: it is an error, so
// the sample prefetches nothing and the real read reports the fault.
func (m *Machine) recordRead(name string, arr ArrayAccess, rs []resolvedSub) error {
	dims := arr.Dims()
	idx := make([]int64, len(rs))
	var err error
	var rec func(d int)
	rec = func(d int) {
		if err != nil {
			return
		}
		if d == len(rs) {
			for i, v := range idx {
				if v < 0 || v >= dims[i] {
					err = fmt.Errorf("lang: %s: recorded index %d out of bounds [0,%d) at dim %d", name, v, dims[i], i)
					return
				}
			}
			m.Recorder.Indices[name] = append(m.Recorder.Indices[name], flattenIndex(dims, idx))
			return
		}
		if rs[d].isRange {
			for v := rs[d].lo; v <= rs[d].hi; v++ {
				idx[d] = v
				rec(d + 1)
			}
			return
		}
		idx[d] = rs[d].point
		rec(d + 1)
	}
	rec(0)
	return err
}

func (m *Machine) zeroFor(rs []resolvedSub) Value {
	for _, r := range rs {
		if r.isRange {
			return make([]float64, r.hi-r.lo+1)
		}
	}
	return float64(0)
}

func readResolved(name string, arr ArrayAccess, rs []resolvedSub) (Value, error) {
	rangeDim := -1
	for i, r := range rs {
		if r.isRange {
			if rangeDim >= 0 {
				return nil, fmt.Errorf("lang: %s: at most one range subscript supported", name)
			}
			rangeDim = i
		}
	}
	if rangeDim < 0 {
		idx := make([]int64, len(rs))
		for i, r := range rs {
			idx[i] = r.point
		}
		return arr.At(idx...), nil
	}
	r := rs[rangeDim]
	out := make([]float64, r.hi-r.lo+1)
	idx := make([]int64, len(rs))
	for i, s := range rs {
		if i != rangeDim {
			idx[i] = s.point
		}
	}
	for v := r.lo; v <= r.hi; v++ {
		idx[rangeDim] = v
		out[v-r.lo] = arr.At(idx...)
	}
	return out, nil
}

func (m *Machine) writeIndex(x *Index, op string, rhs Value, sc *scope) error {
	// Vector element write: v[i] = ...
	if kv, ok := sc.lookup(x.Base); ok {
		if vec, isVec := kv.([]float64); isVec {
			if len(x.Subs) != 1 {
				return fmt.Errorf("lang: vector takes one subscript")
			}
			i, err := m.evalInt(x.Subs[0], sc)
			if err != nil {
				return err
			}
			if i < 1 || int(i) > len(vec) {
				return fmt.Errorf("lang: vector subscript %d out of range", i)
			}
			f, ok := rhs.(float64)
			if !ok {
				return fmt.Errorf("lang: vector element write needs a scalar")
			}
			if op == "=" {
				vec[i-1] = f
			} else {
				nv, err := applyBin(string(op[0]), vec[i-1], f)
				if err != nil {
					return err
				}
				vec[i-1] = nv.(float64)
			}
			return nil
		}
	}
	// DistArray Buffer write: only delta forms are meaningful, since
	// the buffered value merges later via the apply UDF.
	if buf, ok := m.Buffers[x.Base]; ok {
		if op != "+=" && op != "-=" {
			return fmt.Errorf("lang: DistArray Buffer %q accepts only += and -= writes", x.Base)
		}
		f, ok := rhs.(float64)
		if !ok {
			return fmt.Errorf("lang: buffer write needs a scalar")
		}
		if op == "-=" {
			f = -f
		}
		idx := make([]int64, len(x.Subs))
		for i, sub := range x.Subs {
			v, err := m.evalInt(sub, sc)
			if err != nil {
				return err
			}
			idx[i] = v - 1
		}
		buf.Put(f, idx...)
		return nil
	}
	arr, ok := m.Arrays[x.Base]
	if !ok {
		return fmt.Errorf("lang: write to unknown array %q", x.Base)
	}
	rs, err := m.resolveSubs(x.Base, x.Subs, arr.Dims(), sc)
	if err != nil {
		return err
	}
	if op != "=" {
		cur, err := readResolved(x.Base, arr, rs)
		if err != nil {
			return err
		}
		rhs, err = applyBin(string(op[0]), cur, rhs)
		if err != nil {
			return err
		}
	}
	return writeResolved(x.Base, arr, rs, rhs)
}

func writeResolved(name string, arr ArrayAccess, rs []resolvedSub, v Value) error {
	rangeDim := -1
	for i, r := range rs {
		if r.isRange {
			if rangeDim >= 0 {
				return fmt.Errorf("lang: %s: at most one range subscript supported", name)
			}
			rangeDim = i
		}
	}
	if rangeDim < 0 {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("lang: %s: scalar write needs a scalar value", name)
		}
		idx := make([]int64, len(rs))
		for i, r := range rs {
			idx[i] = r.point
		}
		arr.SetAt(f, idx...)
		return nil
	}
	vec, ok := v.([]float64)
	if !ok {
		return fmt.Errorf("lang: %s: range write needs a vector value", name)
	}
	r := rs[rangeDim]
	if int64(len(vec)) != r.hi-r.lo+1 {
		return fmt.Errorf("lang: %s: vector length %d does not match range %d:%d",
			name, len(vec), r.lo+1, r.hi+1)
	}
	idx := make([]int64, len(rs))
	for i, s := range rs {
		if i != rangeDim {
			idx[i] = s.point
		}
	}
	for off := r.lo; off <= r.hi; off++ {
		idx[rangeDim] = off
		arr.SetAt(vec[off-r.lo], idx...)
	}
	return nil
}

func (m *Machine) eval(e Expr, sc *scope) (Value, error) {
	switch x := e.(type) {
	case *Num:
		return x.Val, nil
	case *Bool:
		return x.Val, nil
	case *Ident:
		v, ok := sc.lookup(x.Name)
		if !ok {
			if arr, isArr := m.Arrays[x.Name]; isArr {
				_ = arr
				return nil, fmt.Errorf("lang: whole-array reference %q not supported in expressions", x.Name)
			}
			return nil, fmt.Errorf("lang: undefined variable %q", x.Name)
		}
		return v, nil
	case *UnOp:
		v, err := m.eval(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch t := v.(type) {
		case float64:
			return -t, nil
		case []float64:
			out := make([]float64, len(t))
			for i, f := range t {
				out[i] = -f
			}
			return out, nil
		default:
			return nil, fmt.Errorf("lang: cannot negate %T", v)
		}
	case *BinOp:
		l, err := m.eval(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := m.eval(x.R, sc)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, l, r)
	case *Call:
		return m.evalCall(x, sc)
	case *Index:
		return m.readIndex(x, sc)
	default:
		return nil, fmt.Errorf("lang: cannot evaluate %T", e)
	}
}

func (m *Machine) evalCall(c *Call, sc *scope) (Value, error) {
	args := make([]Value, len(c.Args))
	// __record's argument is an Index handled by readIndex with the
	// recorder active; evaluate normally.
	for i, a := range c.Args {
		v, err := m.eval(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	want := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("lang: %s takes %d argument(s), got %d", c.Fn, n, len(args))
		}
		return nil
	}
	scalar := func(i int) (float64, error) {
		f, ok := args[i].(float64)
		if !ok {
			return 0, fmt.Errorf("lang: %s: argument %d must be a scalar", c.Fn, i+1)
		}
		return f, nil
	}
	switch c.Fn {
	case "__record":
		return float64(0), nil
	case "rand":
		if err := want(0); err != nil {
			return nil, err
		}
		if m.Rng == nil {
			return nil, fmt.Errorf("lang: rand() requires a Machine with an Rng")
		}
		return m.Rng.Float64(), nil
	case "dot":
		if err := want(2); err != nil {
			return nil, err
		}
		a, okA := args[0].([]float64)
		b, okB := args[1].([]float64)
		if !okA || !okB || len(a) != len(b) {
			return nil, fmt.Errorf("lang: dot needs two equal-length vectors")
		}
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s, nil
	case "abs2":
		if err := want(1); err != nil {
			return nil, err
		}
		f, err := scalar(0)
		if err != nil {
			return nil, err
		}
		return f * f, nil
	case "abs", "sqrt", "exp", "log", "floor", "ceil", "sigmoid":
		if err := want(1); err != nil {
			return nil, err
		}
		f, err := scalar(0)
		if err != nil {
			return nil, err
		}
		switch c.Fn {
		case "abs":
			return math.Abs(f), nil
		case "sqrt":
			return math.Sqrt(f), nil
		case "exp":
			return math.Exp(f), nil
		case "log":
			return math.Log(f), nil
		case "floor":
			return math.Floor(f), nil
		case "ceil":
			return math.Ceil(f), nil
		default:
			return 1 / (1 + math.Exp(-f)), nil
		}
	case "min", "max":
		if err := want(2); err != nil {
			return nil, err
		}
		a, err := scalar(0)
		if err != nil {
			return nil, err
		}
		b, err := scalar(1)
		if err != nil {
			return nil, err
		}
		if (c.Fn == "min") == (a < b) {
			return a, nil
		}
		return b, nil
	case "length":
		if err := want(1); err != nil {
			return nil, err
		}
		v, ok := args[0].([]float64)
		if !ok {
			return nil, fmt.Errorf("lang: length needs a vector")
		}
		return float64(len(v)), nil
	case "zeros":
		if err := want(1); err != nil {
			return nil, err
		}
		n, err := scalar(0)
		if err != nil {
			return nil, err
		}
		if m.VecLimit > 0 && n > float64(m.VecLimit) {
			return nil, fmt.Errorf("lang: zeros(%g) exceeds the vector length limit %d", n, m.VecLimit)
		}
		return make([]float64, int(n)), nil
	default:
		return nil, fmt.Errorf("lang: unknown function %q", c.Fn)
	}
}

// applyBin applies a binary operator with scalar/vector broadcasting.
func applyBin(op string, l, r Value) (Value, error) {
	lf, lIsF := l.(float64)
	rf, rIsF := r.(float64)
	lv, lIsV := l.([]float64)
	rv, rIsV := r.([]float64)
	switch {
	case lIsF && rIsF:
		switch op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			return lf / rf, nil
		case "^":
			return math.Pow(lf, rf), nil
		case "==":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		}
	case lIsV && rIsV:
		if len(lv) != len(rv) {
			return nil, fmt.Errorf("lang: vector length mismatch %d vs %d", len(lv), len(rv))
		}
		out := make([]float64, len(lv))
		for i := range lv {
			v, err := applyBin(op, lv[i], rv[i])
			if err != nil {
				return nil, err
			}
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("lang: vector comparison not supported")
			}
			out[i] = f
		}
		return out, nil
	case lIsV && rIsF:
		out := make([]float64, len(lv))
		for i := range lv {
			v, err := applyBin(op, lv[i], rf)
			if err != nil {
				return nil, err
			}
			out[i] = v.(float64)
		}
		return out, nil
	case lIsF && rIsV:
		out := make([]float64, len(rv))
		for i := range rv {
			v, err := applyBin(op, lf, rv[i])
			if err != nil {
				return nil, err
			}
			out[i] = v.(float64)
		}
		return out, nil
	}
	return nil, fmt.Errorf("lang: cannot apply %q to %T and %T", op, l, r)
}

// flattenIndex converts an index tuple to a row-major-with-fast-first-
// dimension offset, matching dsm.DistArray's layout.
func flattenIndex(dims, idx []int64) int64 {
	var off, stride int64 = 0, 1
	for i := range dims {
		off += idx[i] * stride
		stride *= dims[i]
	}
	return off
}
