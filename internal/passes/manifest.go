package passes

import (
	"fmt"

	"nimble/internal/ir"
)

// AllocStats reports what the memory planner did, feeding the §6.3 study.
type AllocStats struct {
	// StaticAllocs counts alloc_storage bindings with compile-time sizes.
	StaticAllocs int
	// DynamicAllocs counts allocations whose size comes from a runtime
	// shape function.
	DynamicAllocs int
	// ShapeFuncs counts inserted shape-function invocations.
	ShapeFuncs int
	// Kills counts inserted kill operations.
	Kills int
	// InPlace counts in-place operators routed onto their own first
	// argument (no allocation).
	InPlace int
}

// ManifestAlloc is the §4.3 memory-planning transform: it rewrites the
// implicit-allocation IR ("each operator allocates its output") into the
// explicit dialect where buffers are allocated and passed around —
// alloc_storage / alloc_tensor / invoke_mut / kill. Statically shaped
// results get compile-time-sized storage; dynamically shaped results get a
// shape-function invocation followed by runtime-sized allocation, exactly
// the fixed-point the paper describes ("we must now manifest allocations...
// until we allocate for both the compute and necessary shape functions").
// It reports into Stats.Alloc.
func ManifestAlloc(target ir.Device) Pass {
	return Pass{
		Name:       "manifest-alloc",
		NeedsTypes: true,
		Run: func(mod *ir.Module, st *Stats) error {
			return mapFuncs(mod, func(name string, fn *ir.Function) (ir.Expr, error) {
				body, err := rewriteChains(fn.Body, func(e ir.Expr) (ir.Expr, error) {
					return manifestChain(e, target, &st.Alloc)
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				return body, nil
			})
		},
	}
}

// alreadyDialect reports whether the binding is already part of the
// explicit-allocation dialect (idempotence guard).
func alreadyDialect(op *ir.Op) bool {
	if op == nil {
		return false
	}
	switch op.Name {
	case ir.OpAllocStorage, ir.OpAllocTensor, ir.OpAllocTensorReg,
		ir.OpInvokeMut, ir.OpKill, ir.OpShapeOf, ir.OpInvokeShapeFunc,
		ir.OpDeviceCopy, ir.OpReshapeTensor:
		return true
	}
	return false
}

// manifestChain makes one let-chain's allocations explicit; rewriteChains
// reaches the nested ones. Each argument (a variable or constant, by ANF)
// has its shape read once per chain: it cannot change shape, and the chain
// is straight-line, so the first shape_of dominates every later use. A
// buffer may thus be killed before a later allocation reads its shape.
func manifestChain(e ir.Expr, target ir.Device, stats *AllocStats) (ir.Expr, error) {
	bs, result := ir.SplitChain(e)
	shapes := map[ir.Expr]*ir.Var{}
	fresh := 0
	newVar := func(prefix string) *ir.Var {
		fresh++
		return ir.NewVar(fmt.Sprintf("%s%d", prefix, fresh), nil)
	}
	// A primitive call in tail position is bound first so it is allocated
	// like any other operation.
	if _, op := ir.OpCall(result); op != nil && op.Eval != nil && !alreadyDialect(op) {
		rv := newVar("ret")
		rv.SetCheckedType(result.CheckedType())
		bs = append(bs, ir.Binding{Var: rv, Value: result})
		result = rv
	}

	var out []ir.Binding
	for _, b := range bs {
		call, op := ir.OpCall(b.Value)
		if op == nil || op.Eval == nil || alreadyDialect(op) {
			out = append(out, b)
			continue
		}
		outType, ok := b.Value.CheckedType().(*ir.TensorType)
		if !ok {
			// Non-tensor results (rare) stay implicit.
			out = append(out, b)
			continue
		}

		if op.InPlace {
			if _, isConst := call.Args[0].(*ir.Constant); !isConst {
				// In-place operator (cache_append): the result aliases its
				// first argument, so that buffer itself becomes the
				// invoke_mut destination — no allocation, no copy of the
				// other rows. Constants are excluded: they are shared by
				// reference across sessions, so an in-place write would
				// corrupt every other user; the allocation path below then
				// gives the operator a fresh buffer its Eval copies
				// into (pure append semantics).
				out = append(out, ir.Binding{Var: b.Var, Value: invokeMut(op, call, call.Args[0])})
				stats.InPlace++
				continue
			}
		}

		if shape, static := outType.StaticShape(); static {
			// Static path: compile-time-sized storage.
			sizeBytes := shape.NumElements() * outType.DType.Size()
			sv := newVar("storage")
			out = append(out, ir.Binding{Var: sv, Value: callDialect(ir.OpAllocStorage, nil, ir.Attrs{
				"size": sizeBytes, "align": 64,
				"device": int(target.Type), "device_id": target.ID,
			})})
			tv := newVar("buf")
			out = append(out, ir.Binding{Var: tv, Value: callDialect(ir.OpAllocTensor, []ir.Expr{sv}, ir.Attrs{
				"shape": []int(shape), "dtype": outType.DType.String(), "offset": 0,
			})})
			out = append(out, ir.Binding{Var: b.Var, Value: invokeMut(op, call, tv)})
			stats.StaticAllocs++
			continue
		}

		// Dynamic path: run the shape function, then allocate by its result.
		mode := op.Shape.Mode
		if op.Shape.Dims == nil && op.Shape.Fn == nil {
			return nil, fmt.Errorf("operator %s has a dynamic output type but no shape function", op.Name)
		}
		var sfArgs []ir.Expr
		sfArgs = append(sfArgs, &ir.OpRef{Op: op})
		if mode == ir.ShapeDataDependent {
			// Data-dependent shape functions need the values themselves.
			sfArgs = append(sfArgs, call.Args...)
		} else {
			// Data-independent / upper-bound: shapes suffice.
			for _, a := range call.Args {
				shv := shapes[a]
				if shv == nil {
					shv = newVar("sh")
					out = append(out, ir.Binding{Var: shv, Value: callDialect(ir.OpShapeOf, []ir.Expr{a}, nil)})
					shapes[a] = shv
				}
				sfArgs = append(sfArgs, shv)
			}
		}
		oshv := newVar("osh")
		sfAttrs := ir.Attrs{"mode": int(mode)}
		for k, v := range call.Attrs {
			sfAttrs[k] = v
		}
		out = append(out, ir.Binding{Var: oshv, Value: callDialect(ir.OpInvokeShapeFunc, sfArgs, sfAttrs)})
		stats.ShapeFuncs++

		sv := newVar("storage")
		out = append(out, ir.Binding{Var: sv, Value: callDialect(ir.OpAllocStorage, []ir.Expr{oshv}, ir.Attrs{
			"align": 64, "dtype": outType.DType.String(),
			"device": int(target.Type), "device_id": target.ID,
		})})
		tv := newVar("buf")
		out = append(out, ir.Binding{Var: tv, Value: callDialect(ir.OpAllocTensorReg, []ir.Expr{sv, oshv}, ir.Attrs{
			"dtype": outType.DType.String(), "rank": outType.Rank(),
		})})
		out = append(out, ir.Binding{Var: b.Var, Value: invokeMut(op, call, tv)})
		stats.DynamicAllocs++
	}

	out = insertKills(out, result, stats)
	return ir.BuildChain(out, result), nil
}

func callDialect(name string, args []ir.Expr, attrs ir.Attrs) ir.Expr {
	return ir.CallOpAttrs(name, attrs, args...)
}

// invokeMut builds invoke_mut(opref, inputs..., out). The callee operator
// travels as the first argument (an atomic OpRef) so synthesized fused
// operators — which are not in the global registry — can be referenced.
func invokeMut(op *ir.Op, call *ir.Call, out ir.Expr) ir.Expr {
	args := make([]ir.Expr, 0, len(call.Args)+2)
	args = append(args, &ir.OpRef{Op: op})
	args = append(args, call.Args...)
	args = append(args, out)
	c := ir.CallOpAttrs(ir.OpInvokeMut, mergeAttrs(call.Attrs, ir.Attrs{"num_outputs": 1}), args...)
	c.SetCheckedType(call.CheckedType())
	return c
}

func mergeAttrs(a, b ir.Attrs) ir.Attrs {
	out := ir.Attrs{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// consumingUse reports whether a binding's value only *reads* its operand
// tensors. Kernel-style calls (invoke_mut, shape functions, device_copy —
// which clones) consume their inputs synchronously, so a buffer whose
// uses are all consuming is dead after its last one. Everything else may
// alias or retain the operand — an If/Match selects one branch var as its
// value, a bare var binding is a move, tuples/ADTs/closures hold
// references, reshape_tensor shares the source storage, and a function
// call may return its own argument — so a use there keeps the buffer
// alive indefinitely.
func consumingUse(value ir.Expr) bool {
	call, op := ir.OpCall(value)
	if op == nil {
		return false
	}
	switch op.Name {
	case ir.OpInvokeMut, ir.OpShapeOf, ir.OpInvokeShapeFunc, ir.OpDeviceCopy, ir.OpKill:
		return true
	case ir.OpReshapeTensor, ir.OpAllocTensor, ir.OpAllocTensorReg, ir.OpAllocStorage:
		return false
	}
	// A remaining primitive operator call evaluates its kernel over the
	// inputs; synthesized fused operators behave the same way.
	_ = call
	return op.Eval != nil
}

// inPlaceAliasArg returns the variable an in-place invoke_mut both reads and
// overwrites (its routed destination), or nil for every other binding.
func inPlaceAliasArg(value ir.Expr) *ir.Var {
	call, op := ir.OpCall(value)
	if op == nil || op.Name != ir.OpInvokeMut || len(call.Args) < 2 {
		return nil
	}
	target, ok := call.Args[0].(*ir.OpRef)
	if !ok || !target.Op.InPlace {
		return nil
	}
	v, _ := call.Args[1].(*ir.Var)
	return v
}

// insertKills adds kill(v) after the last top-level use of every
// invoke_mut-produced tensor that does not escape the chain, freeing
// buffers "before their reference count becomes zero due to exiting the
// frame" (§4.3) so storage coalescing and the runtime pool can reuse them.
//
// Only buffers whose every use is a consuming read are killable: a use in
// an aliasing position (see consumingUse) publishes the buffer beyond its
// binding, and coalescing a storage that an alias still reads miscompiles
// the program (the differential fuzzer caught exactly this: an If-selected
// dense output was recycled as the destination of a later transpose).
// Kills are inserted in binding order so compilation is deterministic —
// serialized executables are byte-stable run over run.
func insertKills(bs []ir.Binding, result ir.Expr, stats *AllocStats) []ir.Binding {
	produced := map[*ir.Var]bool{}
	escapes := map[*ir.Var]bool{}
	var producedOrder []*ir.Var
	for _, b := range bs {
		if call, op := ir.OpCall(b.Value); op != nil && op.Name == ir.OpInvokeMut {
			produced[b.Var] = true
			producedOrder = append(producedOrder, b.Var)
			// An in-place product aliases its input buffer; killing either
			// name while the other is still read would recycle live memory,
			// so both sides of the alias are pinned (the input below, the
			// product here).
			if target, ok := call.Args[0].(*ir.OpRef); ok && target.Op.InPlace {
				escapes[b.Var] = true
			}
		}
	}
	if len(produced) == 0 {
		return bs
	}
	// Track the last top-level use index of every produced var, and mark
	// vars with any non-consuming use as escaping.
	lastUse := map[*ir.Var]int{}
	for i, b := range bs {
		consuming := consumingUse(b.Value)
		aliased := inPlaceAliasArg(b.Value)
		for _, v := range ir.FreeVars(b.Value) {
			if produced[v] {
				lastUse[v] = i
				if !consuming || v == aliased {
					escapes[v] = true
				}
			}
		}
	}
	for _, v := range ir.FreeVars(result) {
		escapes[v] = true
	}

	// Group killable vars by their last-use binding, preserving production
	// order within each site.
	killsAt := map[int][]*ir.Var{}
	for _, v := range producedOrder {
		i, used := lastUse[v]
		if !used || escapes[v] {
			continue
		}
		killsAt[i] = append(killsAt[i], v)
	}
	var out []ir.Binding
	killCounter := 0
	for i, b := range bs {
		out = append(out, b)
		for _, v := range killsAt[i] {
			if v == b.Var {
				continue
			}
			killCounter++
			kv := ir.NewVar(fmt.Sprintf("kill%d", killCounter), nil)
			out = append(out, ir.Binding{Var: kv, Value: callDialect(ir.OpKill, []ir.Expr{v}, nil)})
			stats.Kills++
		}
	}
	return out
}
