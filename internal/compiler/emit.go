package compiler

import (
	"fmt"

	"nimble/internal/codegen"
	"nimble/internal/ir"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// funcCompiler emits bytecode for one function body over an infinite virtual
// register file (§5.1).
type funcCompiler struct {
	c    *compiler
	out  *compiledFunc
	regs map[*ir.Var]vm.Reg
	next vm.Reg
	// unit lazily holds a register with the integer 0, used as the value of
	// effect-only bindings (memory.kill).
	unit vm.Reg
	has  bool
	// selfIdx is the function's own index for tail-call detection; -1 in
	// lifted lambdas, which never self-recurse by global name.
	selfIdx int
}

func (fc *funcCompiler) fresh() vm.Reg {
	r := fc.next
	fc.next++
	return r
}

func (fc *funcCompiler) emit(in vm.Instruction) int {
	fc.out.code = append(fc.out.code, in)
	return len(fc.out.code) - 1
}

func (fc *funcCompiler) pc() int { return len(fc.out.code) }

func (fc *funcCompiler) unitReg() vm.Reg {
	if !fc.has {
		fc.unit = fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpLoadConsti, Dst: fc.unit, Imm: 0})
		fc.has = true
	}
	return fc.unit
}

// compile lowers an expression in value position and returns the register
// holding its value.
func (fc *funcCompiler) compile(e ir.Expr) (vm.Reg, error) {
	r, _, err := fc.lower(e, false)
	return r, err
}

// lower lowers an expression and returns the register holding its value.
// In tail position (tail set) a self-recursive call becomes register moves
// plus a backward Goto instead of an OpInvoke, so compiled loops (the
// autoregressive decoders, the recurrent models) run in one frame with O(1)
// stack instead of one frame per iteration. done reports that every path
// through the expression ended in such a back edge, so the caller must not
// emit a Ret for it.
func (fc *funcCompiler) lower(e ir.Expr, tail bool) (vm.Reg, bool, error) {
	switch n := e.(type) {
	case *ir.Var:
		r, ok := fc.regs[n]
		if !ok {
			return 0, false, fmt.Errorf("unbound variable %%%s at codegen", n.Name)
		}
		return r, false, nil

	case *ir.Constant:
		idx := fc.c.internConst(n)
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpLoadConst, Dst: dst, Imm: int64(idx)})
		return dst, false, nil

	case *ir.GlobalVar:
		// A first-class reference to a global becomes a capture-free
		// closure.
		idx, ok := fc.c.fnIndex[n.Name]
		if !ok {
			return 0, false, fmt.Errorf("unknown global @%s", n.Name)
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpAllocClosure, Dst: dst, Imm: int64(idx)})
		return dst, false, nil

	case *ir.Let:
		// The ANF shape of a tail self-call is Let(v = @self(args), Var v);
		// recognize it before compiling the call as a real invoke.
		if call, ok := n.Value.(*ir.Call); ok && tail && fc.isSelfCall(call) {
			if body, ok := n.Body.(*ir.Var); ok && body == n.Bound {
				return fc.emitSelfTail(call.Args)
			}
		}
		r, err := fc.compile(n.Value)
		if err != nil {
			return 0, false, err
		}
		fc.regs[n.Bound] = r
		return fc.lower(n.Body, tail)

	case *ir.Call:
		if tail && fc.isSelfCall(n) {
			return fc.emitSelfTail(n.Args)
		}
		r, err := fc.compileCall(n)
		return r, false, err

	case *ir.Tuple:
		args := make([]vm.Reg, len(n.Fields))
		for i, f := range n.Fields {
			r, err := fc.compile(f)
			if err != nil {
				return 0, false, err
			}
			args[i] = r
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpAllocADT, Dst: dst, Imm: int64(vm.TupleTag), Args: args})
		return dst, false, nil

	case *ir.TupleGet:
		src, err := fc.compile(n.Tuple)
		if err != nil {
			return 0, false, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpGetField, Dst: dst, A: src, Imm: int64(n.Index)})
		return dst, false, nil

	case *ir.If:
		return fc.compileIf(n, tail)

	case *ir.Match:
		return fc.compileMatch(n, tail)

	case *ir.Function:
		r, err := fc.compileClosure(n)
		return r, false, err

	default:
		return 0, false, fmt.Errorf("cannot compile %s in value position", ir.ExprKind(e))
	}
}

func (fc *funcCompiler) compileCall(n *ir.Call) (vm.Reg, error) {
	switch callee := n.Callee.(type) {
	case *ir.OpRef:
		return fc.compileOpCall(n, callee.Op)

	case *ir.GlobalVar:
		idx, ok := fc.c.fnIndex[callee.Name]
		if !ok {
			return 0, fmt.Errorf("unknown global @%s", callee.Name)
		}
		args, err := fc.compileArgs(n.Args)
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpInvoke, Dst: dst, Imm: int64(idx), Args: args})
		return dst, nil

	case *ir.CtorRef:
		args, err := fc.compileArgs(n.Args)
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpAllocADT, Dst: dst, Imm: int64(callee.Ctor.Tag), Args: args})
		return dst, nil

	default:
		// Closure call: compile the callee to a closure register.
		clo, err := fc.compile(n.Callee)
		if err != nil {
			return 0, err
		}
		args, err := fc.compileArgs(n.Args)
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpInvokeClosure, Dst: dst, A: clo, Args: args})
		return dst, nil
	}
}

func (fc *funcCompiler) compileArgs(args []ir.Expr) ([]vm.Reg, error) {
	out := make([]vm.Reg, len(args))
	for i, a := range args {
		r, err := fc.compile(a)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// internalAttrKeys are attrs attached by passes, stripped before kernel
// generation so kernel identities depend only on operator semantics.
var internalAttrKeys = map[string]bool{
	"num_outputs": true, "device": true, "device_id": true, "mode": true,
	"src_device": true, "src_id": true, "dst_device": true, "dst_id": true,
}

func userAttrs(attrs ir.Attrs) ir.Attrs {
	out := ir.Attrs{}
	for k, v := range attrs {
		if !internalAttrKeys[k] {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (fc *funcCompiler) compileOpCall(n *ir.Call, op *ir.Op) (vm.Reg, error) {
	switch op.Name {
	case ir.OpAllocStorage:
		dst := fc.fresh()
		in := vm.Instruction{
			Op: vm.OpAllocStorage, Dst: dst, A: -1,
			Device:   uint8(n.Attrs.Int("device", int(fc.c.opts.Target.Type))),
			DeviceID: n.Attrs.Int("device_id", 0),
		}
		if len(n.Args) == 1 {
			// Dynamic size from a shape register.
			shapeReg, err := fc.compile(n.Args[0])
			if err != nil {
				return 0, err
			}
			dt, err := tensor.ParseDType(n.Attrs.String("dtype", "float32"))
			if err != nil {
				return 0, err
			}
			in.A = shapeReg
			in.DType = uint8(dt)
		} else {
			in.Imm = int64(n.Attrs.Int("size", 0))
		}
		fc.emit(in)
		return dst, nil

	case ir.OpAllocTensor:
		storage, err := fc.compile(n.Args[0])
		if err != nil {
			return 0, err
		}
		dt, err := tensor.ParseDType(n.Attrs.String("dtype", "float32"))
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{
			Op: vm.OpAllocTensor, Dst: dst, A: storage,
			Imm: int64(n.Attrs.Int("offset", 0)), Shape: n.Attrs.Ints("shape"), DType: uint8(dt),
		})
		return dst, nil

	case ir.OpAllocTensorReg:
		storage, err := fc.compile(n.Args[0])
		if err != nil {
			return 0, err
		}
		shape, err := fc.compile(n.Args[1])
		if err != nil {
			return 0, err
		}
		dt, err := tensor.ParseDType(n.Attrs.String("dtype", "float32"))
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpAllocTensorReg, Dst: dst, A: storage, B: shape, DType: uint8(dt)})
		return dst, nil

	case ir.OpInvokeMut:
		target, ok := n.Args[0].(*ir.OpRef)
		if !ok {
			return 0, fmt.Errorf("invoke_mut requires an operator reference, got %s", ir.ExprKind(n.Args[0]))
		}
		outType, _ := n.CheckedType().(*ir.TensorType)
		kern, err := codegen.ForOp(target.Op, userAttrs(n.Attrs), outType, codegen.Options{Dispatch: codegen.DispatchFull})
		if err != nil {
			return 0, err
		}
		kIdx := fc.c.internKernel(kern)
		regs, err := fc.compileArgs(n.Args[1:])
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpInvokePacked, Dst: dst, Imm: int64(kIdx), B: 1, Args: regs})
		return dst, nil

	case ir.OpInvokeShapeFunc:
		target, ok := n.Args[0].(*ir.OpRef)
		if !ok {
			return 0, fmt.Errorf("shape_func requires an operator reference")
		}
		kern, err := codegen.ForShapeFunc(target.Op, userAttrs(n.Attrs))
		if err != nil {
			return 0, err
		}
		kIdx := fc.c.internKernel(kern)
		regs, err := fc.compileArgs(n.Args[1:])
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpInvokePacked, Dst: dst, Imm: int64(kIdx), B: 0, Args: regs})
		return dst, nil

	case ir.OpShapeOf:
		src, err := fc.compile(n.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpShapeOf, Dst: dst, A: src})
		return dst, nil

	case ir.OpDeviceCopy:
		src, err := fc.compile(n.Args[0])
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{
			Op: vm.OpDeviceCopy, Dst: dst, A: src,
			Device:   uint8(n.Attrs.Int("dst_device", int(ir.DevCPU))),
			DeviceID: n.Attrs.Int("dst_id", 0),
			Imm:      int64(n.Attrs.Int("src_device", 0)*1000 + n.Attrs.Int("src_id", 0)),
		})
		return dst, nil

	case ir.OpReshapeTensor:
		src, err := fc.compile(n.Args[0])
		if err != nil {
			return 0, err
		}
		shape, err := fc.compile(n.Args[1])
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpReshapeTensor, Dst: dst, A: src, B: shape})
		return dst, nil

	case ir.OpKill:
		// kill is metadata for the static planner; at runtime, frame-exit
		// release (plus static coalescing) already reclaims the buffer.
		return fc.unitReg(), nil

	default:
		// An unmanifested primitive call (memory planning disabled): the
		// kernel allocates its own output.
		if op.Eval == nil {
			return 0, fmt.Errorf("operator %s is not executable", op.Name)
		}
		outType, _ := n.CheckedType().(*ir.TensorType)
		kern, err := codegen.ForOp(op, userAttrs(n.Attrs), outType, codegen.Options{Dispatch: codegen.DispatchFull})
		if err != nil {
			return 0, err
		}
		kIdx := fc.c.internKernel(kern)
		regs, err := fc.compileArgs(n.Args)
		if err != nil {
			return 0, err
		}
		dst := fc.fresh()
		fc.emit(vm.Instruction{Op: vm.OpInvokePacked, Dst: dst, Imm: int64(kIdx), B: 0, Args: regs})
		return dst, nil
	}
}

func (fc *funcCompiler) isSelfCall(n *ir.Call) bool {
	if fc.selfIdx < 0 {
		return false
	}
	gv, ok := n.Callee.(*ir.GlobalVar)
	if !ok {
		return false
	}
	idx, ok := fc.c.fnIndex[gv.Name]
	return ok && idx == fc.selfIdx && len(n.Args) == fc.out.numParams
}

// emitSelfTail lowers @self(args) in tail position: evaluate the arguments,
// move them into the parameter registers (staging through temporaries when a
// source still lives in a parameter register a later move would clobber),
// and jump back to instruction 0. B=1 marks the Goto as a loop back edge so
// the VM recycles the frame's loop-local storages before re-entering.
func (fc *funcCompiler) emitSelfTail(args []ir.Expr) (vm.Reg, bool, error) {
	regs, err := fc.compileArgs(args)
	if err != nil {
		return 0, false, err
	}
	np := fc.out.numParams
	staged := make([]vm.Reg, len(regs))
	copy(staged, regs)
	for i, r := range regs {
		if r < np && r != i {
			t := fc.fresh()
			fc.emit(vm.Instruction{Op: vm.OpMove, Dst: t, A: r})
			staged[i] = t
		}
	}
	for i, r := range staged {
		if r != i {
			fc.emit(vm.Instruction{Op: vm.OpMove, Dst: i, A: r})
		}
	}
	idx := fc.emit(vm.Instruction{Op: vm.OpGoto, B: 1})
	fc.out.code[idx].Off1 = -idx
	return 0, true, nil
}

// compileIf lowers both branches in the If's own position: a tail branch
// that ends in a back edge skips the join move and exit jump entirely.
func (fc *funcCompiler) compileIf(n *ir.If, tail bool) (vm.Reg, bool, error) {
	cond, err := fc.compile(n.Cond)
	if err != nil {
		return 0, false, err
	}
	trueReg := fc.fresh()
	fc.emit(vm.Instruction{Op: vm.OpLoadConsti, Dst: trueReg, Imm: 1})
	ifIdx := fc.emit(vm.Instruction{Op: vm.OpIf, A: cond, B: trueReg, Off1: 1})
	join := fc.fresh()

	thenReg, thenDone, err := fc.lower(n.Then, tail)
	if err != nil {
		return 0, false, err
	}
	gotoIdx := -1
	if !thenDone {
		fc.emit(vm.Instruction{Op: vm.OpMove, Dst: join, A: thenReg})
		gotoIdx = fc.emit(vm.Instruction{Op: vm.OpGoto})
	}

	elseStart := fc.pc()
	fc.out.code[ifIdx].Off2 = elseStart - ifIdx
	elseReg, elseDone, err := fc.lower(n.Else, tail)
	if err != nil {
		return 0, false, err
	}
	if !elseDone {
		fc.emit(vm.Instruction{Op: vm.OpMove, Dst: join, A: elseReg})
	}
	if gotoIdx >= 0 {
		fc.out.code[gotoIdx].Off1 = fc.pc() - gotoIdx
	}
	return join, thenDone && elseDone, nil
}

// compileMatch lowers the clause bodies in the Match's own position.
func (fc *funcCompiler) compileMatch(n *ir.Match, tail bool) (vm.Reg, bool, error) {
	data, err := fc.compile(n.Data)
	if err != nil {
		return 0, false, err
	}
	tag := fc.fresh()
	fc.emit(vm.Instruction{Op: vm.OpGetTag, Dst: tag, A: data})
	join := fc.fresh()

	var exits []int
	allDone := true
	for _, clause := range n.Clauses {
		var failIdx = -1
		switch clause.Pattern.Kind {
		case ir.PatCtor:
			want := fc.fresh()
			fc.emit(vm.Instruction{Op: vm.OpLoadConsti, Dst: want, Imm: int64(clause.Pattern.Ctor.Tag)})
			failIdx = fc.emit(vm.Instruction{Op: vm.OpIf, A: tag, B: want, Off1: 1})
			for i, sub := range clause.Pattern.Sub {
				switch sub.Kind {
				case ir.PatVar:
					fieldReg := fc.fresh()
					fc.emit(vm.Instruction{Op: vm.OpGetField, Dst: fieldReg, A: data, Imm: int64(i)})
					fc.regs[sub.Var] = fieldReg
				case ir.PatWildcard:
					// bind nothing
				default:
					return 0, false, fmt.Errorf("nested constructor patterns are not supported by codegen; flatten the match")
				}
			}
		case ir.PatVar:
			fc.regs[clause.Pattern.Var] = data
		case ir.PatWildcard:
			// always matches
		}
		body, done, err := fc.lower(clause.Body, tail)
		if err != nil {
			return 0, false, err
		}
		if !done {
			allDone = false
			fc.emit(vm.Instruction{Op: vm.OpMove, Dst: join, A: body})
			exits = append(exits, fc.emit(vm.Instruction{Op: vm.OpGoto}))
		}
		if failIdx >= 0 {
			fc.out.code[failIdx].Off2 = fc.pc() - failIdx
		} else {
			// Irrefutable pattern: later clauses are unreachable.
			break
		}
	}
	// Fall-through: no clause matched.
	fc.emit(vm.Instruction{Op: vm.OpFatal})
	end := fc.pc()
	for _, g := range exits {
		fc.out.code[g].Off1 = end - g
	}
	return join, allDone, nil
}

func (fc *funcCompiler) compileClosure(n *ir.Function) (vm.Reg, error) {
	free := ir.FreeVars(n)
	idx, err := fc.c.liftFunction(n, free)
	if err != nil {
		return 0, err
	}
	captured := make([]vm.Reg, len(free))
	for i, v := range free {
		r, ok := fc.regs[v]
		if !ok {
			return 0, fmt.Errorf("closure captures unbound %%%s", v.Name)
		}
		captured[i] = r
	}
	dst := fc.fresh()
	fc.emit(vm.Instruction{Op: vm.OpAllocClosure, Dst: dst, Imm: int64(idx), Args: captured})
	return dst, nil
}
