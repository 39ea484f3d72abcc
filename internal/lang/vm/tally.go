//go:build !vmcount

package vm

// tally counts dispatches per opcode only in builds tagged vmcount
// (tally_vmcount.go). Here it is empty and add compiles to nothing, so
// the dispatch loop pays for it in no build but that one.
type tally struct{}

func (*tally) add(opcode) {}
