package lang

// This file exposes the compiler's resolution front end — slot
// assignment and fixpoint type inference — to alternative backends.
// The bytecode VM (internal/lang/vm) lowers the same slot-resolved AST
// to instructions instead of closures; sharing the front end guarantees
// both backends agree on slot numbering, local kinds, and the exact set
// of programs inside the compiled subset. Every NotCompilableError is
// raised here or in the shared inference passes, so a successful
// ResolveLoop means lowering cannot fail.

// VarKind classifies a resolved local variable or expression.
type VarKind uint8

const (
	KindNone VarKind = iota
	KindFloat
	KindVec
	KindBool
)

func (k VarKind) String() string {
	switch k {
	case KindFloat:
		return "scalar"
	case KindVec:
		return "vector"
	case KindBool:
		return "boolean"
	}
	return "undefined"
}

func kindOfVtype(t vtype) VarKind {
	switch t {
	case tFloat:
		return KindFloat
	case tVec:
		return KindVec
	case tBool:
		return KindBool
	}
	return KindNone
}

// DenseAccess is the optional raw-storage contract for fused point and
// row accesses: a dense array that exposes its flat float64 storage and
// per-dimension strides (stride[0] == 1, so a full first-dimension
// range is one contiguous run). Implementations with no dense backing
// return (nil, nil). *dsm.DistArray implements it.
type DenseAccess interface {
	ArrayAccess
	DenseData() (data []float64, stride []int64)
}

// DenseWindow is DenseAccess for a view that stores only a contiguous
// coordinate window of the array (a partition): DenseData describes
// the window's own storage — extent hi-lo along dim — while Dims and
// the At/SetAt coordinates stay global. A backend taking the flat path
// subtracts lo along dim, bounds-checks that coordinate against
// [lo, hi) and every other one against Dims, and sends anything
// outside to At/SetAt, whose fault is the reference behaviour.
type DenseWindow interface {
	DenseAccess
	Window() (dim int, lo, hi int64)
}

// RunAccess is the optional bulk contract of a view with no dense
// storage to expose (a parameter-server array): read into out that many
// consecutive elements along dimension dim starting at the full 0-based
// index idx, in one call. A view answers false, having touched nothing,
// for any run it cannot serve whole — the backend then takes At element
// by element, whose values and faults are the reference behaviour.
// Writes to such a view always go through SetAt. The interpreter never
// asks.
type RunAccess interface {
	ArrayAccess
	ReadRun(out []float64, dim int, idx []int64) bool
}

// Resolution is the front half of a compilation: types inferred to a
// fixpoint, strict checks passed, and every name assigned its slot. It
// is immutable once returned.
type Resolution struct {
	c *compiler
}

// ResolveLoop runs slot assignment and type inference against the
// environment without lowering. It returns *NotCompilableError for
// loops outside the compiled subset, exactly as CompileLoop does.
func ResolveLoop(loop *Loop, env *CompileEnv) (res *Resolution, err error) {
	defer func() {
		if r := recover(); r != nil {
			if nce, ok := r.(*NotCompilableError); ok {
				res, err = nil, nce
				return
			}
			panic(r)
		}
	}()
	c := &compiler{loop: loop, env: env, types: map[string]vtype{}}
	c.setup()
	c.infer()
	c.assignSlots()
	return &Resolution{c: c}, nil
}

// NumFloat, NumVec, and NumBool report the local slot counts per kind.
func (r *Resolution) NumFloat() int { return len(r.c.floatIx) }
func (r *Resolution) NumVec() int   { return len(r.c.vecIx) }
func (r *Resolution) NumBool() int  { return len(r.c.boolIx) }

// ValSlot returns ValVar's float slot, or -1 when the loop has no value
// variable.
func (r *Resolution) ValSlot() int { return r.c.valSlot() }

// LocalKind reports a local variable's inferred kind; ok is false for
// names that are not locals (globals, arrays, buffers, the key tuple).
func (r *Resolution) LocalKind(name string) (VarKind, bool) {
	t, ok := r.c.types[name]
	if !ok {
		return KindNone, false
	}
	return kindOfVtype(t), true
}

// FloatSlot, VecSlot, and BoolSlot resolve a local name to its slot
// within its kind's register file.
func (r *Resolution) FloatSlot(name string) (int, bool) {
	s, ok := r.c.floatIx[name]
	return s, ok
}

func (r *Resolution) VecSlot(name string) (int, bool) {
	s, ok := r.c.vecIx[name]
	return s, ok
}

func (r *Resolution) BoolSlot(name string) (int, bool) {
	s, ok := r.c.boolIx[name]
	return s, ok
}

// Globals returns the global names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Globals() []string { return r.c.globalNames }

// GlobalSlot resolves a global name to its slot.
func (r *Resolution) GlobalSlot(name string) (int, bool) {
	s, ok := r.c.globalIx[name]
	return s, ok
}

// Arrays returns the array names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Arrays() []string { return r.c.arrayNames }

// ArrayIndex resolves an array name to its slot.
func (r *Resolution) ArrayIndex(name string) (int, bool) {
	s, ok := r.c.arrayIx[name]
	return s, ok
}

// ArrayDims returns array slot ai's compile-time extents. The slice is
// shared; callers must not mutate it.
func (r *Resolution) ArrayDims(ai int) []int64 { return r.c.arrayDims[ai] }

// Buffers returns the buffer names in slot order. The slice is shared;
// callers must not mutate it.
func (r *Resolution) Buffers() []string { return r.c.bufNames }

// BufferIndex resolves a buffer name to its slot.
func (r *Resolution) BufferIndex(name string) (int, bool) {
	s, ok := r.c.bufIx[name]
	return s, ok
}

// ExprKind types an expression of the resolved loop body. Inference has
// already converged, so the call is read-only and idempotent. Calling
// it on an expression outside the resolved body may panic.
func (r *Resolution) ExprKind(e Expr) VarKind {
	return kindOfVtype(r.c.inferExpr(e))
}
