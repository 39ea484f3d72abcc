//go:build vmcount

package vm

// tally counts the instructions exec dispatches, per opcode. Only
// builds tagged vmcount carry it (`go test -tags vmcount`); the default
// build's tally is empty.
type tally struct{ n [opLanes + 1]uint64 }

func (t *tally) add(op opcode) { t.n[op]++ }
