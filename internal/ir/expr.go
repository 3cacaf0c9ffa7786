package ir

import (
	"fmt"

	"nimble/internal/tensor"
)

// Expr is the interface implemented by every IR expression node. Checked
// types are attached to nodes by the type inference pass (internal/typeinfer)
// via SetCheckedType; passes downstream of inference may rely on
// CheckedType being non-nil.
type Expr interface {
	isExpr()
	// CheckedType returns the type computed by inference, or nil before
	// inference has run.
	CheckedType() Type
	// SetCheckedType records the inferred type.
	SetCheckedType(Type)
}

// baseExpr provides checked-type storage for all node kinds.
type baseExpr struct {
	checked Type
}

func (b *baseExpr) CheckedType() Type     { return b.checked }
func (b *baseExpr) SetCheckedType(t Type) { b.checked = t }

// Var is a local variable. Vars are compared by pointer identity: two
// distinct Var nodes with the same name are different variables.
type Var struct {
	baseExpr
	Name string
	// TypeAnn is the user-provided annotation; may be nil for inferred vars.
	TypeAnn Type
}

func (*Var) isExpr() {}

// NewVar creates a variable with an optional type annotation.
func NewVar(name string, ann Type) *Var { return &Var{Name: name, TypeAnn: ann} }

// GlobalVar names a function in the module.
type GlobalVar struct {
	baseExpr
	Name string
}

func (*GlobalVar) isExpr() {}

// Constant wraps a tensor literal. Constants are hoisted into the VM
// executable's constant pool at compile time and referenced by LoadConst.
type Constant struct {
	baseExpr
	Value *tensor.Tensor
	// Units is non-zero for the B operand of a dense_packed: Value holds a
	// [k, Units] weight as 16-column panels (kernels.PackB), shape [k,
	// Units rounded up to 16]. The executable records it, so the panels
	// of a loaded artifact can be checked before anything runs.
	Units int
}

func (*Constant) isExpr() {}

// Const builds a Constant node.
func Const(v *tensor.Tensor) *Constant { return &Constant{Value: v} }

// OpRef references a registered primitive operator.
type OpRef struct {
	baseExpr
	Op *Op
}

func (*OpRef) isExpr() {}

// CtorRef references an ADT constructor (used as the callee of a Call that
// builds an ADT value).
type CtorRef struct {
	baseExpr
	Ctor *Constructor
}

func (*CtorRef) isExpr() {}

// Call applies a callee — an OpRef, GlobalVar, Function, Var holding a
// closure, or CtorRef — to arguments, with operator attributes.
type Call struct {
	baseExpr
	Callee Expr
	Args   []Expr
	Attrs  Attrs
}

func (*Call) isExpr() {}

// NewCall builds a call node; attrs may be nil.
func NewCall(callee Expr, args []Expr, attrs Attrs) *Call {
	return &Call{Callee: callee, Args: args, Attrs: attrs}
}

// CallOp builds a call to a registered operator by name, panicking if the
// operator is unknown (a build-time programming error, not a runtime one).
func CallOp(name string, args ...Expr) *Call {
	return NewCall(&OpRef{Op: MustGetOp(name)}, args, nil)
}

// CallOpAttrs builds a call to a registered operator with attributes.
func CallOpAttrs(name string, attrs Attrs, args ...Expr) *Call {
	return NewCall(&OpRef{Op: MustGetOp(name)}, args, attrs)
}

// Function is a (possibly anonymous) function literal. Functions in a module
// are named by GlobalVars; function literals appearing as expressions become
// closures in the VM.
type Function struct {
	baseExpr
	Params []*Var
	Body   Expr
	// RetAnn is the declared return type; may be nil for inferred returns.
	RetAnn Type
}

func (*Function) isExpr() {}

// NewFunc builds a function literal.
func NewFunc(params []*Var, body Expr, ret Type) *Function {
	return &Function{Params: params, Body: body, RetAnn: ret}
}

// Let binds Value to Bound within Body. The A-normal-form pass rewrites all
// nesting into let-chains so later passes (memory planning, device
// placement) see one operation per binding.
type Let struct {
	baseExpr
	Bound *Var
	Value Expr
	Body  Expr
}

func (*Let) isExpr() {}

// NewLet builds a let binding.
func NewLet(v *Var, value, body Expr) *Let { return &Let{Bound: v, Value: value, Body: body} }

// If is conditional control flow; Cond must be a boolean scalar.
type If struct {
	baseExpr
	Cond Expr
	Then Expr
	Else Expr
}

func (*If) isExpr() {}

// Tuple packs expressions into a product value.
type Tuple struct {
	baseExpr
	Fields []Expr
}

func (*Tuple) isExpr() {}

// TupleGet projects field Index out of a tuple.
type TupleGet struct {
	baseExpr
	Tuple Expr
	Index int
}

func (*TupleGet) isExpr() {}

// Match eliminates an ADT value by pattern matching — the construct
// Tree-LSTM style models use to recurse over dynamic data structures.
type Match struct {
	baseExpr
	Data    Expr
	Clauses []*Clause
}

func (*Match) isExpr() {}

// Clause is one arm of a Match.
type Clause struct {
	Pattern *Pattern
	Body    Expr
}

// PatternKind discriminates pattern forms.
type PatternKind int

const (
	// PatWildcard matches anything, binding nothing.
	PatWildcard PatternKind = iota
	// PatVar matches anything, binding it to Var.
	PatVar
	// PatCtor matches a specific constructor, binding its fields to Sub
	// patterns.
	PatCtor
)

// Pattern is a match pattern. Only one level beyond the constructor is
// needed by the models in the evaluation, but patterns nest generally.
type Pattern struct {
	Kind PatternKind
	Var  *Var         // for PatVar
	Ctor *Constructor // for PatCtor
	Sub  []*Pattern   // for PatCtor
}

// WildcardPat returns the wildcard pattern.
func WildcardPat() *Pattern { return &Pattern{Kind: PatWildcard} }

// VarPat returns a variable-binding pattern.
func VarPat(v *Var) *Pattern { return &Pattern{Kind: PatVar, Var: v} }

// CtorPat returns a constructor pattern with sub-patterns.
func CtorPat(c *Constructor, sub ...*Pattern) *Pattern {
	return &Pattern{Kind: PatCtor, Ctor: c, Sub: sub}
}

// BoundVars returns the variables a pattern binds, in left-to-right order.
func (p *Pattern) BoundVars() []*Var {
	var out []*Var
	var walk func(*Pattern)
	walk = func(q *Pattern) {
		switch q.Kind {
		case PatVar:
			out = append(out, q.Var)
		case PatCtor:
			for _, s := range q.Sub {
				walk(s)
			}
		}
	}
	walk(p)
	return out
}

// ExprKind returns a short tag for diagnostics.
func ExprKind(e Expr) string {
	switch e.(type) {
	case *Var:
		return "Var"
	case *GlobalVar:
		return "GlobalVar"
	case *Constant:
		return "Constant"
	case *OpRef:
		return "OpRef"
	case *CtorRef:
		return "CtorRef"
	case *Call:
		return "Call"
	case *Function:
		return "Function"
	case *Let:
		return "Let"
	case *If:
		return "If"
	case *Tuple:
		return "Tuple"
	case *TupleGet:
		return "TupleGet"
	case *Match:
		return "Match"
	default:
		return fmt.Sprintf("%T", e)
	}
}
