package ir

// Visit walks the expression tree in pre-order, calling f on every node.
// When f returns false the node's children are skipped.
func Visit(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch n := e.(type) {
	case *Call:
		Visit(n.Callee, f)
		for _, a := range n.Args {
			Visit(a, f)
		}
	case *Function:
		for _, p := range n.Params {
			Visit(p, f)
		}
		Visit(n.Body, f)
	case *Let:
		Visit(n.Bound, f)
		Visit(n.Value, f)
		Visit(n.Body, f)
	case *If:
		Visit(n.Cond, f)
		Visit(n.Then, f)
		Visit(n.Else, f)
	case *Tuple:
		for _, fld := range n.Fields {
			Visit(fld, f)
		}
	case *TupleGet:
		Visit(n.Tuple, f)
	case *Match:
		Visit(n.Data, f)
		for _, c := range n.Clauses {
			Visit(c.Body, f)
		}
	}
}

// Rewrite rebuilds the expression tree bottom-up, replacing each node with
// f(node-with-rewritten-children). Nodes are freshly allocated only when a
// child changed, so untouched subtrees are shared. Checked types are copied
// onto rebuilt nodes because structurally identical rewrites preserve types;
// passes that change types must re-run inference.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	var out Expr
	switch n := e.(type) {
	case *Var, *GlobalVar, *Constant, *OpRef, *CtorRef:
		out = n
	case *Call:
		callee := Rewrite(n.Callee, f)
		args := make([]Expr, len(n.Args))
		changed := callee != n.Callee
		for i, a := range n.Args {
			args[i] = Rewrite(a, f)
			changed = changed || args[i] != a
		}
		if changed {
			c := &Call{Callee: callee, Args: args, Attrs: n.Attrs}
			c.SetCheckedType(n.CheckedType())
			out = c
		} else {
			out = n
		}
	case *Function:
		body := Rewrite(n.Body, f)
		if body != n.Body {
			fn := &Function{Params: n.Params, Body: body, RetAnn: n.RetAnn}
			fn.SetCheckedType(n.CheckedType())
			out = fn
		} else {
			out = n
		}
	case *Let:
		value := Rewrite(n.Value, f)
		body := Rewrite(n.Body, f)
		if value != n.Value || body != n.Body {
			l := &Let{Bound: n.Bound, Value: value, Body: body}
			l.SetCheckedType(n.CheckedType())
			out = l
		} else {
			out = n
		}
	case *If:
		cond := Rewrite(n.Cond, f)
		then := Rewrite(n.Then, f)
		els := Rewrite(n.Else, f)
		if cond != n.Cond || then != n.Then || els != n.Else {
			i := &If{Cond: cond, Then: then, Else: els}
			i.SetCheckedType(n.CheckedType())
			out = i
		} else {
			out = n
		}
	case *Tuple:
		fields := make([]Expr, len(n.Fields))
		changed := false
		for i, fld := range n.Fields {
			fields[i] = Rewrite(fld, f)
			changed = changed || fields[i] != fld
		}
		if changed {
			t := &Tuple{Fields: fields}
			t.SetCheckedType(n.CheckedType())
			out = t
		} else {
			out = n
		}
	case *TupleGet:
		tup := Rewrite(n.Tuple, f)
		if tup != n.Tuple {
			tg := &TupleGet{Tuple: tup, Index: n.Index}
			tg.SetCheckedType(n.CheckedType())
			out = tg
		} else {
			out = n
		}
	case *Match:
		data := Rewrite(n.Data, f)
		clauses := make([]*Clause, len(n.Clauses))
		changed := data != n.Data
		for i, c := range n.Clauses {
			body := Rewrite(c.Body, f)
			if body != c.Body {
				clauses[i] = &Clause{Pattern: c.Pattern, Body: body}
				changed = true
			} else {
				clauses[i] = c
			}
		}
		if changed {
			m := &Match{Data: data, Clauses: clauses}
			m.SetCheckedType(n.CheckedType())
			out = m
		} else {
			out = n
		}
	default:
		out = n
	}
	return f(out)
}

// Binding is one link of a let-chain.
type Binding struct {
	Var   *Var
	Value Expr
}

// SplitChain decomposes a let-chain into its bindings and final result.
func SplitChain(e Expr) ([]Binding, Expr) {
	var out []Binding
	for {
		l, ok := e.(*Let)
		if !ok {
			return out, e
		}
		out = append(out, Binding{Var: l.Bound, Value: l.Value})
		e = l.Body
	}
}

// BuildChain reassembles a let-chain.
func BuildChain(bs []Binding, result Expr) Expr {
	out := result
	for i := len(bs) - 1; i >= 0; i-- {
		out = NewLet(bs[i].Var, bs[i].Value, out)
	}
	return out
}

// IsAtomic reports whether an expression may appear as an operand in
// A-normal form.
func IsAtomic(e Expr) bool {
	switch e.(type) {
	case *Var, *GlobalVar, *Constant, *OpRef, *CtorRef:
		return true
	}
	return false
}

// OpCall returns e as a call and, when its callee is an OpRef, the
// operator; the call is nil when e is not a call.
func OpCall(e Expr) (*Call, *Op) {
	c, ok := e.(*Call)
	if !ok {
		return nil, nil
	}
	if ref, ok := c.Callee.(*OpRef); ok {
		return c, ref.Op
	}
	return c, nil
}

// FreeVars returns the free variables of e in first-use order.
func FreeVars(e Expr) []*Var {
	bound := map[*Var]bool{}
	seen := map[*Var]bool{}
	var out []*Var
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case nil:
		case *Var:
			if !bound[n] && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		case *Function:
			saved := snapshot(bound, n.Params)
			walk(n.Body)
			restore(bound, n.Params, saved)
		case *Let:
			walk(n.Value)
			was := bound[n.Bound]
			bound[n.Bound] = true
			walk(n.Body)
			bound[n.Bound] = was
		case *Call:
			walk(n.Callee)
			for _, a := range n.Args {
				walk(a)
			}
		case *If:
			walk(n.Cond)
			walk(n.Then)
			walk(n.Else)
		case *Tuple:
			for _, fld := range n.Fields {
				walk(fld)
			}
		case *TupleGet:
			walk(n.Tuple)
		case *Match:
			walk(n.Data)
			for _, c := range n.Clauses {
				vars := c.Pattern.BoundVars()
				saved := snapshot(bound, vars)
				walk(c.Body)
				restore(bound, vars, saved)
			}
		}
	}
	walk(e)
	return out
}

func snapshot(bound map[*Var]bool, vars []*Var) []bool {
	saved := make([]bool, len(vars))
	for i, v := range vars {
		saved[i] = bound[v]
		bound[v] = true
	}
	return saved
}

func restore(bound map[*Var]bool, vars []*Var, saved []bool) {
	for i, v := range vars {
		bound[v] = saved[i]
	}
}

// CountNodes returns the number of expression nodes, a cheap size metric
// used by pass statistics and tests.
func CountNodes(e Expr) int {
	n := 0
	Visit(e, func(Expr) bool {
		n++
		return true
	})
	return n
}
