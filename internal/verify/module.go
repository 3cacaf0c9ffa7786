package verify

import (
	"fmt"

	"nimble/internal/ir"
)

// Module statically checks an IR module against the invariant catalog.
// stage names the pass boundary for diagnostics ("after coalesce-storage");
// checks selects the families that are meaningful there. The module is not
// mutated. A non-nil result is always *Error.
func Module(mod *ir.Module, stage string, checks ModuleChecks) error {
	c := &moduleChecker{
		checks:  checks,
		defined: map[*ir.Var]string{},
	}
	for _, name := range mod.FuncNames() {
		c.checkFunction(name, mod.Funcs[name])
	}
	return errOrNil(stage, c.violations)
}

type moduleChecker struct {
	checks ModuleChecks
	// defined records every Var node that received a definition anywhere in
	// the module (params, let bindings, pattern bindings), for the
	// single-definition invariant: Vars are identities, so two definitions
	// of one node mean two bindings race for one register.
	defined    map[*ir.Var]string
	violations []Violation
	fn         string
}

func (c *moduleChecker) report(invariant, pos, format string, args ...interface{}) {
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Func:      c.fn,
		Pos:       pos,
		Message:   fmt.Sprintf(format, args...),
	})
}

func (c *moduleChecker) checkFunction(name string, fn *ir.Function) {
	c.fn = name
	scope := map[*ir.Var]bool{}
	for _, p := range fn.Params {
		c.define(p, "param")
		scope[p] = true
	}
	c.checkScopeAndTypes(fn.Body, scope)
	if c.checks.ANF {
		c.checkANFChain(fn.Body, name)
	}
	if c.checks.Memory {
		c.checkChain(fn.Body, name, newChainScope(nil))
	}
}

// define records a variable definition, enforcing ssa.single-def.
func (c *moduleChecker) define(v *ir.Var, where string) {
	if prev, dup := c.defined[v]; dup {
		c.report("ssa.single-def", "let %"+v.Name,
			"variable %%%s defined twice (%s, then %s)", v.Name, prev, where)
		return
	}
	c.defined[v] = where
}

// checkScopeAndTypes walks an expression enforcing ssa.scope (every
// variable defined before use), ssa.single-def, and type.op (each operator
// call's checked type agrees with re-running its type relation over the
// argument types, with Any dimensions as top).
func (c *moduleChecker) checkScopeAndTypes(e ir.Expr, scope map[*ir.Var]bool) {
	switch n := e.(type) {
	case nil:
	case *ir.Var:
		if !scope[n] {
			c.report("ssa.scope", "%"+n.Name, "use of undefined variable %%%s", n.Name)
		}
	case *ir.GlobalVar, *ir.Constant, *ir.OpRef, *ir.CtorRef:
	case *ir.Let:
		c.checkScopeAndTypes(n.Value, scope)
		c.define(n.Bound, "let")
		was := scope[n.Bound]
		scope[n.Bound] = true
		c.checkScopeAndTypes(n.Body, scope)
		scope[n.Bound] = was
	case *ir.Call:
		c.checkScopeAndTypes(n.Callee, scope)
		for _, a := range n.Args {
			c.checkScopeAndTypes(a, scope)
		}
		c.checkCallType(n)
	case *ir.Function:
		saved := make([]bool, len(n.Params))
		for i, p := range n.Params {
			c.define(p, "lambda param")
			saved[i] = scope[p]
			scope[p] = true
		}
		c.checkScopeAndTypes(n.Body, scope)
		for i, p := range n.Params {
			scope[p] = saved[i]
		}
	case *ir.If:
		c.checkScopeAndTypes(n.Cond, scope)
		c.checkScopeAndTypes(n.Then, scope)
		c.checkScopeAndTypes(n.Else, scope)
	case *ir.Tuple:
		for _, f := range n.Fields {
			c.checkScopeAndTypes(f, scope)
		}
	case *ir.TupleGet:
		c.checkScopeAndTypes(n.Tuple, scope)
	case *ir.Match:
		c.checkScopeAndTypes(n.Data, scope)
		for _, cl := range n.Clauses {
			vars := cl.Pattern.BoundVars()
			saved := make([]bool, len(vars))
			for i, v := range vars {
				c.define(v, "pattern")
				saved[i] = scope[v]
				scope[v] = true
			}
			c.checkScopeAndTypes(cl.Body, scope)
			for i, v := range vars {
				scope[v] = saved[i]
			}
		}
	}
}

// checkCallType re-derives an operator call's type from its registered
// relation and compares it to the checked type inference attached. Calls
// whose operands have no checked type yet (inference not run for this
// stage) are skipped — the check is about consistency, not completeness.
func (c *moduleChecker) checkCallType(n *ir.Call) {
	ref, ok := n.Callee.(*ir.OpRef)
	if !ok || ref.Op.Rel == nil {
		return
	}
	want := n.CheckedType()
	if want == nil {
		return
	}
	argTypes := make([]ir.Type, len(n.Args))
	for i, a := range n.Args {
		at := a.CheckedType()
		if at == nil {
			return
		}
		argTypes[i] = at
	}
	got, err := ref.Op.Rel(argTypes, n.Attrs)
	if err != nil {
		c.report("type.op", "call "+ref.Op.Name,
			"type relation rejects the checked operands: %v", err)
		return
	}
	if !typeCompatible(got, want) {
		c.report("type.op", "call "+ref.Op.Name,
			"checked type %s contradicts the relation's %s", want, got)
	}
}

// typeCompatible reports whether two types agree, treating Any dimensions
// as top (an Any on either side matches anything). Function and ADT types
// are out of scope for the relation check and compare as compatible.
func typeCompatible(a, b ir.Type) bool {
	if a == nil || b == nil {
		return true
	}
	switch at := a.(type) {
	case *ir.TensorType:
		bt, ok := b.(*ir.TensorType)
		if !ok {
			return false
		}
		if at.DType != bt.DType || at.Rank() != bt.Rank() {
			return false
		}
		for i := range at.Dims {
			da, db := at.Dims[i], bt.Dims[i]
			if da.IsAny() || db.IsAny() {
				continue
			}
			if da.Value != db.Value {
				return false
			}
		}
		return true
	case *ir.TupleType:
		bt, ok := b.(*ir.TupleType)
		if !ok || len(at.Fields) != len(bt.Fields) {
			return false
		}
		for i := range at.Fields {
			if !typeCompatible(at.Fields[i], bt.Fields[i]) {
				return false
			}
		}
		return true
	case *ir.StorageType:
		_, ok := b.(*ir.StorageType)
		return ok
	default:
		return true
	}
}

// ---- A-normal-form shape -------------------------------------------------

// checkANFChain enforces anf.atomic on a let-chain: every operand position
// (call arguments and callees, tuple fields, projections, conditions, match
// scrutinees) holds an atomic expression, and compound expressions appear
// only as binding values or chain results.
func (c *moduleChecker) checkANFChain(e ir.Expr, fnName string) {
	bs, result := ir.SplitChain(e)
	for _, b := range bs {
		c.checkANFValue(b.Value, "let %"+b.Var.Name, fnName)
	}
	c.checkANFValue(result, "result", fnName)
}

func (c *moduleChecker) checkANFValue(e ir.Expr, pos, fnName string) {
	switch n := e.(type) {
	case *ir.Var, *ir.GlobalVar, *ir.Constant, *ir.OpRef, *ir.CtorRef:
	case *ir.Call:
		if !ir.IsAtomic(n.Callee) {
			if _, isFn := n.Callee.(*ir.Function); !isFn {
				c.report("anf.atomic", pos, "call callee is a compound %s", ir.ExprKind(n.Callee))
			}
		}
		for i, a := range n.Args {
			if !ir.IsAtomic(a) {
				c.report("anf.atomic", pos, "call argument %d is a compound %s", i, ir.ExprKind(a))
			}
		}
	case *ir.If:
		if !ir.IsAtomic(n.Cond) {
			c.report("anf.atomic", pos, "if condition is a compound %s", ir.ExprKind(n.Cond))
		}
		c.checkANFChain(n.Then, fnName)
		c.checkANFChain(n.Else, fnName)
	case *ir.Match:
		if !ir.IsAtomic(n.Data) {
			c.report("anf.atomic", pos, "match scrutinee is a compound %s", ir.ExprKind(n.Data))
		}
		for _, cl := range n.Clauses {
			c.checkANFChain(cl.Body, fnName)
		}
	case *ir.Tuple:
		for i, f := range n.Fields {
			if !ir.IsAtomic(f) {
				c.report("anf.atomic", pos, "tuple field %d is a compound %s", i, ir.ExprKind(f))
			}
		}
	case *ir.TupleGet:
		if !ir.IsAtomic(n.Tuple) {
			c.report("anf.atomic", pos, "projection base is a compound %s", ir.ExprKind(n.Tuple))
		}
	case *ir.Function:
		c.checkANFChain(n.Body, fnName)
	}
}
