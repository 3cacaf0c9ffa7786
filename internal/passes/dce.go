package passes

import (
	"nimble/internal/ir"
)

// DCE removes let bindings whose variable is never used, iterating to a
// fixpoint so chains of dead bindings disappear. Bindings with side effects
// — the allocation dialect's invoke_mut and kill — are preserved even when
// their result is unused, which is why DCE runs before ManifestAlloc in the
// default pipeline and is still safe afterwards.
func DCE() Pass {
	return Pass{
		Name: "dce",
		Run: func(mod *ir.Module, _ *Stats) error {
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				body := fn.Body
				for {
					next := dceOnce(body)
					if next == body {
						return body, nil
					}
					body = next
				}
			})
		},
	}
}

// sideEffecting reports whether a bound expression must be kept even if its
// result is dead.
func sideEffecting(e ir.Expr) bool {
	_, op := ir.OpCall(e)
	if op == nil {
		// Calls to globals/closures may recurse or allocate; keep them.
		if _, isCall := e.(*ir.Call); isCall {
			return true
		}
		return false
	}
	switch op.Name {
	case ir.OpInvokeMut, ir.OpKill, ir.OpDeviceCopy:
		return true
	}
	return false
}

func dceOnce(body ir.Expr) ir.Expr {
	// Count uses of each var; countUses skips binder occurrences so a
	// binding is dead exactly when its variable appears nowhere else.
	uses := map[*ir.Var]int{}
	countUses(body, uses)
	return ir.Rewrite(body, func(e ir.Expr) ir.Expr {
		if l, ok := e.(*ir.Let); ok {
			if uses[l.Bound] == 0 && !sideEffecting(l.Value) {
				return l.Body
			}
		}
		return e
	})
}

func countUses(e ir.Expr, uses map[*ir.Var]int) {
	ir.Visit(e, func(x ir.Expr) bool {
		if l, ok := x.(*ir.Let); ok {
			countUses(l.Value, uses)
			countUses(l.Body, uses)
			return false
		}
		if v, ok := x.(*ir.Var); ok {
			uses[v]++
		}
		return true
	})
}
