package passes

import (
	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// PackDenseWeights rewrites every dense whose B is a row-major constant
// into dense_packed over a copy of that constant laid out as 16-column
// panels (kernels.PackB), the order the dense row tile reads. The layout is
// chosen here, at compile time, and the VM only dispatches (§4.5, §5). A
// constant shared by several dense calls, in one function or across
// entries, is packed once; the caller's tensors are never modified. Models
// built with nn.Init.Weight already hold their weights as panels, so their
// dense calls are dense_packed from the start and this pass copies nothing.
func PackDenseWeights() Pass {
	return Pass{
		Name: "pack-dense-weights",
		Run: func(mod *ir.Module, _ *Stats) error {
			dense, densePacked := ir.MustGetOp("dense"), &ir.OpRef{Op: ir.MustGetOp("dense_packed")}
			packed := map[*tensor.Tensor]*ir.Constant{}
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				return ir.Rewrite(fn.Body, func(e ir.Expr) ir.Expr {
					call, op := ir.OpCall(e)
					if op != dense {
						return e
					}
					w, ok := call.Args[1].(*ir.Constant)
					if !ok || w.Value.Rank() != 2 || w.Value.DType() != tensor.Float32 {
						return e
					}
					n := w.Value.Shape()[1]
					p := packed[w.Value]
					if p == nil {
						p = &ir.Constant{Value: kernels.PackB(w.Value), Units: n}
						p.SetCheckedType(ir.TT(tensor.Float32, w.Value.Shape()[0], kernels.PackedCols(n)))
						packed[w.Value] = p
					}
					out := ir.NewCall(densePacked, []ir.Expr{call.Args[0], p}, ir.Attrs{"units": n})
					out.SetCheckedType(call.CheckedType())
					return out
				}), nil
			})
		},
	}
}
