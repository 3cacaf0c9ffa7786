package passes

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// FusionStats reports what the fusion pass did, for tests and the fusion
// ablation bench.
type FusionStats struct {
	// Groups is the number of fused composite operators created.
	Groups int
	// OpsFused is the total number of primitive ops absorbed into groups.
	OpsFused int
}

// FuseOps combines chains of primitive operators into composite kernels:
// an out-fusable producer (dense, conv2d) followed by element-wise /
// broadcast / injective consumers, or pure element-wise chains. The §4.2
// fusion policy is enforced structurally: only operators whose shape
// functions are data independent may join a group, because a data-dependent
// or upper-bound shape function would need access to the intermediate
// tensors hidden inside the composite. It reports into Stats.Fusion.
// A fused operator is named fused<N>(<members>) by what it computes, N
// numbering the module's distinct computations in first-seen order: groups
// that differ only in the tensors they read, such as layers over their own
// weights, share one kernel and one shape function.
func FuseOps() Pass {
	return Pass{
		Name:       "fuse-ops",
		NeedsTypes: true,
		Run: func(mod *ir.Module, st *Stats) error {
			ids := map[string]int{}
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				return rewriteChains(fn.Body, func(e ir.Expr) (ir.Expr, error) {
					return fuseChain(e, &st.Fusion, ids), nil
				})
			})
		},
	}
}

// fuseChain fuses one let-chain; rewriteChains reaches the nested ones.
// ids numbers the module's fused computations (see buildFusedBinding).
func fuseChain(e ir.Expr, stats *FusionStats, ids map[string]int) ir.Expr {
	bs, result := ir.SplitChain(e)
	if len(bs) < 2 {
		return e
	}
	uses := map[*ir.Var]int{}
	countUses(e, uses)

	var out []ir.Binding
	i := 0
	for i < len(bs) {
		group := collectGroup(bs, i, uses)
		if len(group) >= 2 {
			fused := buildFusedBinding(bs[i:i+len(group)], group, ids)
			out = append(out, fused)
			stats.Groups++
			stats.OpsFused += len(group)
			i += len(group)
			continue
		}
		out = append(out, bs[i])
		i++
	}
	return ir.BuildChain(out, result)
}

// fusable reports whether an op may participate in fusion at all.
func fusable(op *ir.Op) bool {
	if op == nil || op.Eval == nil {
		return false
	}
	switch op.Pattern {
	case ir.PatternElemWise, ir.PatternBroadcast, ir.PatternInjective, ir.PatternOutFusable:
		// The §4.2 policy: only data-independent shape functions may fuse.
		return op.Shape.Dims != nil
	}
	return false
}

// collectGroup returns the member ops of the maximal group starting at bs[i]
// (nil entries never occur; a group of length 1 means "no fusion here").
// A binding joins when it consumes the previous member's result, that result
// has no other consumer, and the op is fusable. Only the first member may be
// out-fusable.
func collectGroup(bs []ir.Binding, i int, uses map[*ir.Var]int) []*ir.Op {
	_, op := ir.OpCall(bs[i].Value)
	if !fusable(op) {
		return nil
	}
	group := []*ir.Op{op}
	for j := i + 1; j < len(bs); j++ {
		prev := bs[j-1]
		// The intermediate result must be consumed only once.
		if uses[prev.Var] != 1 {
			break
		}
		call, next := ir.OpCall(bs[j].Value)
		if !fusable(next) || next.Pattern == ir.PatternOutFusable {
			break
		}
		// Must consume the previous member's output.
		consumes := false
		for _, a := range call.Args {
			if v, ok := a.(*ir.Var); ok && v == prev.Var {
				consumes = true
				break
			}
		}
		if !consumes {
			break
		}
		group = append(group, next)
	}
	if len(group) < 2 {
		return nil
	}
	return group
}

// argRef locates a fused member's argument: either the idx-th external
// parameter or the result of the idx-th earlier member.
type argRef struct {
	internal bool
	idx      int
}

type fusedMember struct {
	op    *ir.Op
	attrs ir.Attrs
	args  []argRef
}

// buildFusedBinding replaces the bindings of a group with a single binding
// of a synthesized composite operator, numbered in ids by a key of each
// member's op, attrs and argument wiring: the composite kernel
// (composeEval) and shape function (composeDims) depend on nothing else,
// and each group's own operator carries its checked type.
func buildFusedBinding(bs []ir.Binding, ops []*ir.Op, ids map[string]int) ir.Binding {
	n := len(ops)
	memberOf := map[*ir.Var]int{}
	var externals []ir.Expr
	extIdx := map[ir.Expr]int{}
	var key []byte

	members := make([]fusedMember, n)
	names := make([]string, n)
	for m := 0; m < n; m++ {
		call, op := ir.OpCall(bs[m].Value)
		names[m] = op.Name
		key = append(key, op.Name...)
		for _, k := range call.Attrs.Keys() {
			key = fmt.Appendf(key, " %s=%#v", k, call.Attrs[k])
		}
		refs := make([]argRef, len(call.Args))
		for ai, a := range call.Args {
			if v, ok := a.(*ir.Var); ok {
				if mi, internal := memberOf[v]; internal {
					refs[ai] = argRef{internal: true, idx: mi}
					key = strconv.AppendInt(append(key, " m"...), int64(mi), 10)
					continue
				}
			}
			idx, seen := extIdx[a]
			if !seen {
				idx = len(externals)
				extIdx[a] = idx
				externals = append(externals, a)
			}
			refs[ai] = argRef{idx: idx}
			key = strconv.AppendInt(append(key, " x"...), int64(idx), 10)
		}
		key = append(key, ';')
		members[m] = fusedMember{op: op, attrs: call.Attrs, args: refs}
		memberOf[bs[m].Var] = m
	}

	if _, seen := ids[string(key)]; !seen {
		ids[string(key)] = len(ids) + 1
	}
	outType := bs[n-1].Value.CheckedType()
	fused := &ir.Op{
		Name: fmt.Sprintf("fused%d(%s)", ids[string(key)], strings.Join(names, "+")),
		Rel: func(_ []ir.Type, _ ir.Attrs) (ir.Type, error) {
			if outType == nil {
				return nil, fmt.Errorf("passes: fused op lost its output type")
			}
			return outType, nil
		},
		Shape:     ir.ShapeFunc{Dims: composeDims(members)},
		Eval:      composeEval(members),
		Pattern:   ir.PatternOpaque,
		NumInputs: len(externals),
	}
	call := ir.NewCall(&ir.OpRef{Op: fused}, externals, nil)
	call.SetCheckedType(outType)
	return ir.Binding{Var: bs[n-1].Var, Value: call}
}

// composeDims chains the members' dims rules: "the compiler can easily
// connect the shape functions of basic operators to form the shape
// function for a composite operator when all shape functions are data
// independent" (§4.2). An internal argument always names the previous
// member (see runFused).
func composeDims(members []fusedMember) ir.DimsRule {
	return func(in [][]ir.Dim, _ ir.Attrs) ([]ir.Dim, error) {
		var prev []ir.Dim
		for _, mem := range members {
			args := make([][]ir.Dim, len(mem.args))
			for i, r := range mem.args {
				switch {
				case r.internal:
					args[i] = prev
				case r.idx < len(in):
					args[i] = in[r.idx]
				default:
					return nil, fmt.Errorf("passes: fused shape func missing input %d", r.idx)
				}
			}
			out, err := mem.op.Shape.Dims(args, mem.attrs)
			if err != nil {
				return nil, err
			}
			prev = out
		}
		return prev, nil
	}
}

// inPlaceOps are the shape-preserving element-wise operators that may read
// and write a fused group's planned output in place: each output element
// depends only on the input elements at the same index.
var inPlaceOps = map[string]bool{
	"bias_add": true, "add": true, "multiply": true,
	"gelu": true, "relu": true, "tanh": true, "sigmoid": true,
}

// composeEval chains the members' kernels into one composite kernel.
// When every member after the first is in inPlaceOps, every member writes
// the planned output buffer — the first from the external arguments, each
// later one over the previous result — so the chain creates no
// intermediate tensor. That is only sound when the buffer shares no memory
// with an external argument; otherwise intermediates materialize and only
// the last member writes the buffer.
func composeEval(members []fusedMember) ir.EvalFunc {
	inPlace := true
	for _, mem := range members[1:] {
		inPlace = inPlace && inPlaceOps[mem.op.Name]
	}
	return func(args []*tensor.Tensor, _ ir.Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
		writable := out != nil && out.DType() == tensor.Float32 && !overlapsAny(out.F32(), args)
		return runFused(members, args, out, inPlace && writable)
	}
}

// overlapsAny reports whether the memory of o overlaps any argument's.
// Tensors carved from one storage share a backing array, so this compares
// address ranges, not first elements. A tensor of another dtype has its own
// backing slice and cannot overlap.
func overlapsAny(o []float32, args []*tensor.Tensor) bool {
	for _, a := range args {
		if a.DType() != tensor.Float32 || len(o) == 0 || a.NumElements() == 0 {
			continue
		}
		oLo, aLo := uintptr(unsafe.Pointer(&o[0])), uintptr(unsafe.Pointer(&a.F32()[0]))
		if oLo < aLo+uintptr(a.NumElements())*4 && aLo < oLo+uintptr(len(o))*4 {
			return true
		}
	}
	return false
}

// memberArgs is scratch for one member's argument list. The composite
// kernel is shared by every session running the executable, so the scratch
// comes from a pool rather than from the closure.
type memberArgs [4]*tensor.Tensor

var memberArgsPool = sync.Pool{New: func() any { return new(memberArgs) }}

// runFused runs the members in order. An internal argument always names the
// previous member (collectGroup admits a member only as the single consumer
// of its predecessor), so the previous result is the only state carried.
// With inPlace every member is handed out; otherwise only the last one is.
func runFused(members []fusedMember, args []*tensor.Tensor, out *tensor.Tensor, inPlace bool) (*tensor.Tensor, error) {
	scratch := memberArgsPool.Get().(*memberArgs)
	defer func() {
		*scratch = memberArgs{}
		memberArgsPool.Put(scratch)
	}()
	var prev *tensor.Tensor
	for m, mem := range members {
		in := scratch[:0]
		for _, r := range mem.args {
			if r.internal {
				in = append(in, prev)
			} else {
				in = append(in, args[r.idx])
			}
		}
		dst := out
		if !inPlace && m < len(members)-1 {
			dst = nil
		}
		var err error
		if prev, err = mem.op.Eval(in, mem.attrs, dst); err != nil {
			return nil, fmt.Errorf("passes: fused member %s: %w", mem.op.Name, err)
		}
	}
	return prev, nil
}
