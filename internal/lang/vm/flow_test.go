package vm

import (
	"testing"

	"orion/internal/lang"
)

// TestRolesCover: every opcode has a roles row, or sits on the one list
// of opcodes whose fields name no register (operands adds what their
// lane loops read and write) — so a new opcode cannot go unseen by the
// analysis. operands visits bool registers, and a lane loop's reduction
// into a global writes it.
func TestRolesCover(t *testing.T) {
	roleFree := map[opcode]bool{opHalt: true, opJmp: true, opArrChk: true, opBufChk: true, opLanes: true}
	for op := opHalt; op <= opLanes; op++ {
		if (roles[op] == [5]role{}) != roleFree[op] {
			t.Errorf("opcode %d: roles row %v, role-free %v", op, roles[op], roleFree[op])
		}
	}

	prog, err := lang.ParseProgram(`array data 4 4
array T 6
global s
---
for (key, v) in data
    f = v > 0.5
    if f
        s = s * 2
    end
    for k = 1:4
        s = s + T[k]
    end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Globals: []string{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	c := &comp{accs: p.accs, baccs: p.baccs, axpys: p.axpys, lanes: p.lanes}
	var boolRd, boolWr, globRd, laneWr bool
	for i := range p.code {
		in := &p.code[i]
		c.operands(in, func(f regFile, r *int32, def bool) {
			boolRd = boolRd || f == fileB && !def
			boolWr = boolWr || f == fileB && def
			globRd = globRd || f == fileG && !def
			laneWr = laneWr || f == fileG && def && in.op == opLanes
		})
	}
	if !boolRd || !boolWr || !globRd || !laneWr {
		t.Errorf("operands visits bool reads %v, bool writes %v, global reads %v, a lane loop's global reduction %v; want all",
			boolRd, boolWr, globRd, laneWr)
	}
}

// TestNumberPinsAreNeverWritten: a literal reaches an instruction only
// as its number pin, which NewKernel fills and no instruction of any
// committed loop writes (a key pin is written, by its opKeyC); and a
// literal the lowering finds unpinned fails the compile instead of
// reading register 0.
func TestNumberPinsAreNeverWritten(t *testing.T) {
	for name, src := range censusPrograms(t) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := Compile(prog.Loop, &lang.CompileEnv{Arrays: prog.Env.Arrays, Buffers: prog.Env.Buffers,
			Globals: globalNames(diffGlobals(prog.Env, prog.Loop, prog.Globals))})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pinned := map[int32]bool{}
		for _, pv := range p.pins {
			pinned[pv.reg] = true
		}
		c := &comp{accs: p.accs, baccs: p.baccs, axpys: p.axpys, lanes: p.lanes}
		for pc := range p.code {
			in := p.code[pc]
			c.operands(&in, func(f regFile, r *int32, def bool) {
				if def && f == fileF && pinned[*r] {
					t.Errorf("%s: pc %d (opcode %d) writes number pin %d", name, pc, in.op, *r)
				}
			})
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("an unpinned literal compiled")
		}
	}()
	(&comp{numPin: map[uint64]int32{}}).pin(3)
}
