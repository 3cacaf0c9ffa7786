package passes

import (
	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// ConstantFold evaluates operator calls whose arguments are all constants at
// compile time, replacing the call with the resulting constant. Folding only
// fires for pure registered operators with an Eval; dialect ops (allocation,
// device copies) have no Eval and are never folded.
func ConstantFold() Pass {
	return Pass{
		Name: "constant-fold",
		Run: func(mod *ir.Module, _ *Stats) error {
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				consts := map[*ir.Var]*ir.Constant{}
				// Pre-order pass records let-bound constants; Rewrite is
				// post-order, so chained folds (add of two folded results)
				// need a fixpoint over the chain. Two sweeps suffice in
				// practice for model graphs; iterate until stable.
				prev := fn.Body
				for iter := 0; iter < 8; iter++ {
					folded := foldOnce(prev, consts)
					if folded == prev {
						break
					}
					prev = folded
				}
				return prev, nil
			})
		},
	}
}

func foldOnce(body ir.Expr, consts map[*ir.Var]*ir.Constant) ir.Expr {
	// First collect constant bindings visible in the chain.
	ir.Visit(body, func(e ir.Expr) bool {
		if l, ok := e.(*ir.Let); ok {
			if c, ok := lookupConst(l.Value, consts); ok {
				consts[l.Bound] = c
			}
		}
		return true
	})
	return ir.Rewrite(body, func(e ir.Expr) ir.Expr {
		if call, ok := e.(*ir.Call); ok {
			return foldCall(call, consts)
		}
		return e
	})
}

func lookupConst(e ir.Expr, consts map[*ir.Var]*ir.Constant) (*ir.Constant, bool) {
	switch n := e.(type) {
	case *ir.Constant:
		return n, true
	case *ir.Var:
		c, ok := consts[n]
		return c, ok
	}
	return nil, false
}

func foldCall(call *ir.Call, consts map[*ir.Var]*ir.Constant) ir.Expr {
	_, op := ir.OpCall(call)
	if op == nil || op.Eval == nil {
		return call
	}
	if op.NumInputs == 0 && op.Name != "zeros" {
		return call
	}
	in := make([]*tensor.Tensor, len(call.Args))
	for i, a := range call.Args {
		c, ok := lookupConst(a, consts)
		if !ok {
			return call
		}
		in[i] = c.Value
	}
	out, err := op.Eval(in, call.Attrs, nil)
	if err != nil {
		// A failed fold is not a compile error; leave the call for runtime,
		// where the shape machinery reports it properly.
		return call
	}
	folded := ir.Const(out)
	folded.SetCheckedType(call.CheckedType())
	return folded
}
