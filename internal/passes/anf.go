package passes

import (
	"fmt"

	"nimble/internal/ir"
)

// ANF converts every function body to A-normal form: all operands of calls,
// tuples, projections, conditions and match scrutinees are atomic
// (variables or constants), and all intermediate results are let-bound.
// Later passes — fusion, memory planning, device placement — assume this
// "one operation per binding" discipline, just as the paper's transformation
// examples (§4.3) show let-normalized programs.
func ANF() Pass {
	return Pass{
		Name: "anf",
		Run: func(mod *ir.Module, _ *Stats) error {
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				c := &anfConverter{}
				return c.normalizeTail(fn.Body), nil
			})
		},
	}
}

type anfConverter struct {
	counter int
}

func (c *anfConverter) fresh() *ir.Var {
	c.counter++
	return ir.NewVar(fmt.Sprintf("x%d", c.counter), nil)
}

// normalizeTail normalizes an expression in tail position: the result may be
// any (normalized) expression, not necessarily atomic.
func (c *anfConverter) normalizeTail(e ir.Expr) ir.Expr {
	var bs []ir.Binding
	res := c.normalizeInto(e, &bs, true)
	return ir.BuildChain(bs, res)
}

// normalizeAtom normalizes e and guarantees an atomic result, emitting
// bindings into bs.
func (c *anfConverter) normalizeAtom(e ir.Expr, bs *[]ir.Binding) ir.Expr {
	res := c.normalizeInto(e, bs, false)
	if ir.IsAtomic(res) {
		return res
	}
	v := c.fresh()
	*bs = append(*bs, ir.Binding{Var: v, Value: res})
	return v
}

// normalizeInto normalizes e, emitting helper bindings into bs. When tail is
// true the result may be compound (If/Match stay in tail position so
// branches remain expressions rather than being flattened into values).
func (c *anfConverter) normalizeInto(e ir.Expr, bs *[]ir.Binding, tail bool) ir.Expr {
	switch n := e.(type) {
	case *ir.Var, *ir.GlobalVar, *ir.Constant, *ir.OpRef, *ir.CtorRef:
		return n

	case *ir.Let:
		val := c.normalizeInto(n.Value, bs, false)
		*bs = append(*bs, ir.Binding{Var: n.Bound, Value: val})
		return c.normalizeInto(n.Body, bs, tail)

	case *ir.Call:
		callee := n.Callee
		if !ir.IsAtomic(callee) {
			callee = c.normalizeAtom(callee, bs)
		}
		args := make([]ir.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = c.normalizeAtom(a, bs)
		}
		return ir.NewCall(callee, args, n.Attrs)

	case *ir.Tuple:
		fields := make([]ir.Expr, len(n.Fields))
		for i, f := range n.Fields {
			fields[i] = c.normalizeAtom(f, bs)
		}
		return &ir.Tuple{Fields: fields}

	case *ir.TupleGet:
		return &ir.TupleGet{Tuple: c.normalizeAtom(n.Tuple, bs), Index: n.Index}

	case *ir.If:
		cond := c.normalizeAtom(n.Cond, bs)
		return keepType(&ir.If{
			Cond: cond,
			Then: c.normalizeTail(n.Then),
			Else: c.normalizeTail(n.Else),
		}, n)

	case *ir.Match:
		data := c.normalizeAtom(n.Data, bs)
		clauses := make([]*ir.Clause, len(n.Clauses))
		for i, cl := range n.Clauses {
			clauses[i] = &ir.Clause{Pattern: cl.Pattern, Body: c.normalizeTail(cl.Body)}
		}
		return keepType(&ir.Match{Data: data, Clauses: clauses}, n)

	case *ir.Function:
		return keepType(ir.NewFunc(n.Params, c.normalizeTail(n.Body), n.RetAnn), n)

	default:
		return e
	}
}
