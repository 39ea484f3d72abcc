// Package lib is the reach check's fixture library: one function the
// program calls, one it never calls, and three kinds of method the
// check must not flag.
package lib

import "fmt"

// Point reaches the program's output only through fmt, which calls
// String through the fmt.Stringer interface.
type Point struct{ X, Y int }

func (p Point) String() string { return fmt.Sprintf("(%d, %d)", p.X, p.Y) }

// Node is a closed interface: its marker method is never called.
type Node interface{ node() }

// Leaf is a Node.
type Leaf struct{ V int }

func (Leaf) node() {}

// Hooks stands for a test-only type.
//
//lint:ignore reach fixture: a directive on a type covers its methods
type Hooks struct{ n int }

// Reset is called by no program.
func (h *Hooks) Reset() { h.n = 0 }

// Origin is called by the program.
func Origin() Point { return Point{} }

// Unreferenced is planted: no program calls it, so the check flags it.
func Unreferenced() int { return 42 }
