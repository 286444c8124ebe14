package cpu

import (
	"fmt"

	"selftune/internal/asm"
	"selftune/internal/trace"
)

// TraceProgram assembles nothing: it runs an already-assembled program for
// at most maxInst instructions (<= 0 means to completion) and returns its
// memory reference stream in program order.
func TraceProgram(prog *asm.Program, maxInst uint64) ([]trace.Access, *Machine, error) {
	m := New(prog)
	var accs []trace.Access
	m.OnAccess(func(a trace.Access) { accs = append(accs, a) })
	if err := m.Run(maxInst); err != nil {
		return nil, m, err
	}
	if maxInst <= 0 && !m.Halted() {
		return nil, m, fmt.Errorf("cpu: program did not halt")
	}
	return accs, m, nil
}
