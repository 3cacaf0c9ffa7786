package verify

import (
	"fmt"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Executable statically checks a compiled (or deserialized) executable:
// function-table integrity, register bounds, must-defined dataflow
// (modelling the loop back edge clearing every non-parameter register),
// control-flow sanity, index bounds into the kernel/constant/function
// tables, stream.emit placement, and static storage sizes. stage names the
// artifact for diagnostics ("executable", "loaded executable").
//
// The check runs before any instruction executes, which is what makes it
// safe to apply to untrusted serialized artifacts: a .nexe that trips any
// of these invariants is rejected instead of interpreted.
func Executable(exe *vm.Executable, stage string) error {
	c := &exeChecker{exe: exe}
	c.checkPackedConsts()
	c.checkFuncTable()
	for i := range exe.Funcs {
		if c.funcOK[i] {
			c.checkFunc(i)
		}
	}
	return errOrNil(stage, c.violations)
}

type exeChecker struct {
	exe        *vm.Executable
	violations []Violation
	fn         string
	// funcOK marks functions whose table entry is sound enough to scan.
	funcOK []bool
}

func (c *exeChecker) report(invariant string, pc int, format string, args ...interface{}) {
	pos := "func-table"
	if pc >= 0 {
		pos = fmt.Sprintf("pc %d", pc)
	}
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Func:      c.fn,
		Pos:       pos,
		Message:   fmt.Sprintf(format, args...),
	})
}

// checkPackedConsts enforces exe.packed-const: a constant recorded as the
// B of a dense_packed of n columns is a float32 [k, 16⌈n/16⌉] tensor,
// exactly ⌈n/16⌉ panels of k×16. It catches a layout word that disagrees
// with its tensor; a constant with no layout word (units 0) is not checked
// here, and what keeps a row tile inside its panels is the call's own check
// of P against the kernel's units.
func (c *exeChecker) checkPackedConsts() {
	exe := c.exe
	bad := func(pos, format string, args ...interface{}) {
		c.violations = append(c.violations, Violation{Invariant: "exe.packed-const", Func: "const-pool",
			Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	if len(exe.ConstUnits) != len(exe.Consts) {
		bad("table", "%d layout entries for %d constants", len(exe.ConstUnits), len(exe.Consts))
		return
	}
	for i, units := range exe.ConstUnits {
		t := exe.Consts[i]
		if units != 0 && (units < 0 || t.DType() != tensor.Float32 || t.Rank() != 2 || t.Shape()[1] != kernels.PackedCols(units)) {
			bad(fmt.Sprintf("const %d", i), "%s does not hold the panels of %d columns", t, units)
		}
	}
}

// checkFuncTable enforces exe.func-table: every descriptor covers a real,
// non-overlapping slice of Code, FuncIndex is a consistent name index, and
// parameter counts fit the register file.
func (c *exeChecker) checkFuncTable() {
	exe := c.exe
	c.funcOK = make([]bool, len(exe.Funcs))
	covered := make([]int, len(exe.Code)) // instruction -> owning function + 1
	for i, f := range exe.Funcs {
		c.fn = f.Name
		ok := true
		if f.Start < 0 || f.Len < 1 || f.Start+f.Len > len(exe.Code) {
			c.report("exe.func-table", -1,
				"code range [%d, %d) is outside the %d-instruction stream",
				f.Start, f.Start+f.Len, len(exe.Code))
			ok = false
		}
		if f.NumParams < 0 || f.NumParams > f.RegCount {
			c.report("exe.func-table", -1,
				"%d parameters do not fit the %d-register frame", f.NumParams, f.RegCount)
			ok = false
		}
		if ok {
			for pc := f.Start; pc < f.Start+f.Len; pc++ {
				if covered[pc] != 0 {
					c.report("exe.func-table", pc,
						"code range overlaps function %s", exe.Funcs[covered[pc]-1].Name)
					ok = false
					break
				}
				covered[pc] = i + 1
			}
		}
		if idx, present := exe.FuncIndex[f.Name]; !present || idx != i {
			c.report("exe.func-table", -1,
				"FuncIndex maps %q to %d, expected %d", f.Name, idx, i)
		}
		c.funcOK[i] = ok
	}
	for name, idx := range exe.FuncIndex {
		if idx < 0 || idx >= len(exe.Funcs) {
			c.fn = name
			c.report("exe.func-table", -1, "FuncIndex entry %q -> %d is out of range", name, idx)
		}
	}
}

// checkFunc scans one function's instructions: per-instruction structural
// checks, control flow, then the must-defined register dataflow and the
// static storage-size walk.
func (c *exeChecker) checkFunc(idx int) {
	exe := c.exe
	f := exe.Funcs[idx]
	c.fn = f.Name
	code := exe.Code[f.Start : f.Start+f.Len]

	cfgOK := true
	for local, in := range code {
		c.checkOperands(local, in, f)
		if !c.checkFlow(local, in, f, code) {
			cfgOK = false
		}
	}
	c.checkStreamEmit(code)
	if cfgOK {
		// Dataflow needs a sane CFG to traverse.
		c.checkDefined(f, code)
	}
	c.checkStorageSizes(code)
}

// regs returns every register an instruction reads or writes.
func instrRegs(in vm.Instruction) []vm.Reg {
	rs := make([]vm.Reg, 0, 4+len(in.Args))
	switch in.Op {
	case vm.OpRet:
		rs = append(rs, in.A)
	case vm.OpIf:
		rs = append(rs, in.A, in.B)
	case vm.OpGoto, vm.OpFatal:
	case vm.OpMove, vm.OpGetField, vm.OpGetTag, vm.OpDeviceCopy, vm.OpShapeOf:
		rs = append(rs, in.Dst, in.A)
	case vm.OpAllocTensorReg, vm.OpReshapeTensor:
		rs = append(rs, in.Dst, in.A, in.B)
	case vm.OpInvokeClosure:
		rs = append(rs, in.Dst, in.A)
	case vm.OpAllocStorage:
		rs = append(rs, in.Dst)
		if in.A >= 0 {
			rs = append(rs, in.A)
		}
	case vm.OpAllocTensor:
		rs = append(rs, in.Dst, in.A)
	default:
		rs = append(rs, in.Dst)
	}
	switch in.Op {
	case vm.OpInvoke, vm.OpInvokeClosure, vm.OpInvokePacked, vm.OpAllocADT, vm.OpAllocClosure:
		rs = append(rs, in.Args...)
	}
	return rs
}

// instrUses returns the registers an instruction reads, and instrDef the
// register it writes (-1 for none); together with instrRegs they are the
// verifier's ground-truth model of the interpreter's dispatch loop.
func instrUses(in vm.Instruction) []vm.Reg {
	switch in.Op {
	case vm.OpMove, vm.OpGetField, vm.OpGetTag, vm.OpDeviceCopy, vm.OpShapeOf:
		return []vm.Reg{in.A}
	case vm.OpRet:
		return []vm.Reg{in.A}
	case vm.OpIf:
		return []vm.Reg{in.A, in.B}
	case vm.OpAllocTensor:
		return []vm.Reg{in.A}
	case vm.OpAllocTensorReg, vm.OpReshapeTensor:
		return []vm.Reg{in.A, in.B}
	case vm.OpAllocStorage:
		if in.A >= 0 {
			return []vm.Reg{in.A}
		}
		return nil
	case vm.OpInvoke, vm.OpInvokePacked, vm.OpAllocADT, vm.OpAllocClosure:
		return in.Args
	case vm.OpInvokeClosure:
		return append([]vm.Reg{in.A}, in.Args...)
	}
	return nil
}

func instrDef(in vm.Instruction) vm.Reg {
	switch in.Op {
	case vm.OpRet, vm.OpIf, vm.OpGoto, vm.OpFatal:
		return -1
	}
	return in.Dst
}

// checkOperands enforces exe.reg-bound and exe.index on one instruction.
func (c *exeChecker) checkOperands(local int, in vm.Instruction, f vm.VMFunc) {
	exe := c.exe
	for _, r := range instrRegs(in) {
		if r < 0 || r >= f.RegCount {
			c.report("exe.reg-bound", local,
				"%s references register %d outside the %d-register frame", in.Op, r, f.RegCount)
		}
	}
	switch in.Op {
	case vm.OpInvoke:
		if in.Imm < 0 || int(in.Imm) >= len(exe.Funcs) {
			c.report("exe.index", local, "Invoke names function #%d of %d", in.Imm, len(exe.Funcs))
		} else if callee := exe.Funcs[in.Imm]; callee.NumParams != len(in.Args) {
			c.report("exe.index", local,
				"Invoke passes %d args to %s, which takes %d", len(in.Args), callee.Name, callee.NumParams)
		}
	case vm.OpAllocClosure:
		if in.Imm < 0 || int(in.Imm) >= len(exe.Funcs) {
			c.report("exe.index", local, "AllocClosure names function #%d of %d", in.Imm, len(exe.Funcs))
		}
	case vm.OpInvokePacked:
		if in.Imm < 0 || int(in.Imm) >= len(exe.KernelNames) {
			c.report("exe.index", local, "InvokePacked names kernel #%d of %d", in.Imm, len(exe.KernelNames))
		}
		if in.B != 0 && in.B != 1 {
			c.report("exe.index", local, "InvokePacked output flag is %d, want 0 or 1", in.B)
		}
		if in.B == 1 && len(in.Args) < 1 {
			c.report("exe.index", local, "InvokePacked claims a destination buffer but has no arguments")
		}
	case vm.OpLoadConst:
		if in.Imm < 0 || int(in.Imm) >= len(exe.Consts) {
			c.report("exe.index", local, "LoadConst reads constant #%d of %d", in.Imm, len(exe.Consts))
		}
	case vm.OpGetField:
		if in.Imm < 0 {
			c.report("exe.index", local, "GetField index %d is negative", in.Imm)
		}
	case vm.OpAllocStorage:
		if in.A < 0 && in.Imm < 0 {
			c.report("exe.index", local, "AllocStorage static size %d is negative", in.Imm)
		}
		if in.A >= 0 && !validDType(in.DType) {
			c.report("exe.index", local, "AllocStorage dtype %d is not a tensor.DType", in.DType)
		}
	case vm.OpAllocTensor:
		if !validDType(in.DType) {
			c.report("exe.index", local, "AllocTensor dtype %d is not a tensor.DType", in.DType)
		}
		if in.Imm < 0 {
			c.report("exe.index", local, "AllocTensor offset %d is negative", in.Imm)
		}
		for _, d := range in.Shape {
			if d < 0 {
				c.report("exe.index", local, "AllocTensor shape %v has a negative extent", in.Shape)
				break
			}
		}
	case vm.OpAllocTensorReg:
		if !validDType(in.DType) {
			c.report("exe.index", local, "AllocTensorReg dtype %d is not a tensor.DType", in.DType)
		}
	}
}

func validDType(b uint8) bool { return tensor.DType(b) <= tensor.Bool }

// checkFlow enforces exe.cfg on one instruction: jump targets stay inside
// the function, the only backward jump is the compiler's marked loop back
// edge to the function entry (which keeps every loop reducible), and no
// path falls off the end of the function. Returns false when the CFG is too
// broken for dataflow.
func (c *exeChecker) checkFlow(local int, in vm.Instruction, f vm.VMFunc, code []vm.Instruction) bool {
	ok := true
	inRange := func(t int) bool { return t >= 0 && t < len(code) }
	switch in.Op {
	case vm.OpIf:
		for _, off := range []int{in.Off1, in.Off2} {
			if !inRange(local + off) {
				c.report("exe.cfg", local, "If jumps %+d past the function bounds", off)
				ok = false
			} else if off < 1 {
				c.report("exe.cfg", local,
					"If offset %+d is not strictly forward; loops may only use the marked Goto back edge", off)
				ok = false
			}
		}
	case vm.OpGoto:
		t := local + in.Off1
		switch {
		case !inRange(t):
			c.report("exe.cfg", local, "Goto jumps %+d past the function bounds", in.Off1)
			ok = false
		case in.Off1 == 0:
			c.report("exe.cfg", local, "Goto with zero offset spins forever")
			ok = false
		case in.Off1 < 0 && (in.B != 1 || t != 0):
			// recycleLoopFrame semantics hold only for this exact shape.
			c.report("exe.cfg", local,
				"backward Goto must be the marked loop back edge to the function entry (B=1, target 0); got B=%d target %d",
				in.B, t)
			ok = false
		case in.Off1 > 0 && in.B == 1:
			c.report("exe.cfg", local, "forward Goto carries the loop back-edge mark")
		}
	case vm.OpRet, vm.OpFatal:
		// Terminators.
	default:
		if local+1 >= len(code) {
			c.report("exe.cfg", local, "%s at the end of %s falls off the function", in.Op, f.Name)
			ok = false
		}
	}
	return ok
}

// checkStreamEmit enforces exe.stream-loop: a stream.emit kernel call only
// makes sense inside a compiled loop body — the region [0, backEdge] of a
// function with a marked backward Goto. Anywhere else the emit would fire
// at most once per invocation, which is a miscompiled streaming entry.
func (c *exeChecker) checkStreamEmit(code []vm.Instruction) {
	lastBack := -1
	for local, in := range code {
		if in.Op == vm.OpGoto && in.Off1 < 0 && in.B == 1 {
			lastBack = local
		}
	}
	for local, in := range code {
		if in.Op != vm.OpInvokePacked || in.Imm < 0 || int(in.Imm) >= len(c.exe.KernelNames) {
			continue
		}
		if c.exe.KernelNames[in.Imm] != ir.OpStreamEmit {
			continue
		}
		if lastBack < 0 || local > lastBack {
			c.report("exe.stream-loop", local,
				"stream.emit outside any loop body (no backward Goto after it in %s)", c.fn)
		}
	}
}

// checkDefined enforces exe.reg-undef with a must-defined forward dataflow.
// The transfer function mirrors the interpreter exactly: parameters arrive
// defined, every instruction defines Dst, and the marked loop back edge
// reaches the entry with only the parameter registers defined, because
// recycleLoopFrame clears the rest of the frame.
func (c *exeChecker) checkDefined(f vm.VMFunc, code []vm.Instruction) {
	n := len(code)
	words := (f.RegCount + 63) / 64
	if words == 0 {
		words = 1
	}
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	// inState[pc] is the set of registers defined on every path to pc;
	// start at "all defined" (top) and intersect.
	inState := make([][]uint64, n)
	for i := range inState {
		inState[i] = append([]uint64(nil), full...)
	}
	entry := make([]uint64, words)
	for r := 0; r < f.NumParams; r++ {
		entry[r/64] |= 1 << (r % 64)
	}
	copy(inState[0], entry)

	meet := func(pc int, state []uint64) bool {
		changed := false
		for i := range state {
			nv := inState[pc][i] & state[i]
			if nv != inState[pc][i] {
				inState[pc][i] = nv
				changed = true
			}
		}
		return changed
	}
	has := func(state []uint64, r vm.Reg) bool {
		if r < 0 || r >= f.RegCount {
			return true // bounds violation reported elsewhere
		}
		return state[r/64]&(1<<(r%64)) != 0
	}

	out := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for pc := 0; pc < n; pc++ {
			in := code[pc]
			copy(out, inState[pc])
			if d := instrDef(in); d >= 0 && d < f.RegCount {
				out[d/64] |= 1 << (d % 64)
			}
			switch in.Op {
			case vm.OpRet, vm.OpFatal:
			case vm.OpIf:
				for _, off := range []int{in.Off1, in.Off2} {
					if t := pc + off; t >= 0 && t < n && meet(t, out) {
						changed = true
					}
				}
			case vm.OpGoto:
				t := pc + in.Off1
				if t < 0 || t >= n {
					continue
				}
				if in.Off1 < 0 && in.B == 1 {
					// Back edge: only the parameter registers survive.
					if meet(t, entry) {
						changed = true
					}
				} else if meet(t, out) {
					changed = true
				}
			default:
				if pc+1 < n && meet(pc+1, out) {
					changed = true
				}
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		for _, r := range instrUses(code[pc]) {
			if !has(inState[pc], r) {
				c.report("exe.reg-undef", pc,
					"%s reads register %d, which is not defined on every path (loop back edges clear non-parameter registers)",
					code[pc].Op, r)
			}
		}
	}
}

// checkStorageSizes enforces exe.storage-size: along straight-line code, an
// AllocTensor view must fit inside the static size of the storage it
// slices. Facts are tracked per register and dropped at join points, so the
// check never claims more than the instruction stream proves.
func (c *exeChecker) checkStorageSizes(code []vm.Instruction) {
	targets := map[int]bool{}
	for local, in := range code {
		switch in.Op {
		case vm.OpIf:
			targets[local+in.Off1] = true
			targets[local+in.Off2] = true
		case vm.OpGoto:
			targets[local+in.Off1] = true
		}
	}
	sizes := map[vm.Reg]int{}
	for local, in := range code {
		if targets[local] {
			sizes = map[vm.Reg]int{}
		}
		switch in.Op {
		case vm.OpAllocStorage:
			if in.A < 0 {
				sizes[in.Dst] = int(in.Imm)
			} else {
				delete(sizes, in.Dst)
			}
		case vm.OpMove:
			if sz, ok := sizes[in.A]; ok {
				sizes[in.Dst] = sz
			} else {
				delete(sizes, in.Dst)
			}
		case vm.OpAllocTensor:
			if sz, ok := sizes[in.A]; ok && validDType(in.DType) {
				need := int(in.Imm) + tensor.Shape(in.Shape).NumElements()*tensor.DType(in.DType).Size()
				if need > sz {
					c.report("exe.storage-size", local,
						"AllocTensor needs %d bytes of storage in r%d, which holds %d", need, in.A, sz)
				}
			}
			delete(sizes, in.Dst)
		case vm.OpGoto:
			sizes = map[vm.Reg]int{}
		default:
			if d := instrDef(in); d >= 0 {
				delete(sizes, d)
			}
		}
	}
}
