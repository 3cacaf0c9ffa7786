package typeinfer

import (
	"sort"

	"nimble/internal/ir"
)

// IdentityReport summarizes the Any-identity analysis for a function: which
// symbolic dimension classes exist and how many expression sites reference
// each. No compiler stage consumes it: the tests use it to check that
// inference preserves symbolic identities, the analysis §4.1 says
// downstream compilation can use "to generate shape-specialized code during
// codegen".
type IdentityReport struct {
	// Classes maps symbolic id -> number of expression sites whose checked
	// type mentions that id.
	Classes map[int]int
}

// SymClasses returns the symbolic ids in ascending order.
func (r *IdentityReport) SymClasses() []int {
	out := make([]int, 0, len(r.Classes))
	for s := range r.Classes {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// SharedClasses returns ids referenced by more than one site — the dims
// provably identical across multiple tensors.
func (r *IdentityReport) SharedClasses() []int {
	var out []int
	for _, s := range r.SymClasses() {
		if r.Classes[s] > 1 {
			out = append(out, s)
		}
	}
	return out
}

// AnalyzeIdentity runs after inference and reports the symbolic dimension
// classes appearing in a function's checked types.
func AnalyzeIdentity(fn *ir.Function) *IdentityReport {
	rep := &IdentityReport{Classes: map[int]int{}}
	count := func(t ir.Type) {
		var walk func(ir.Type)
		walk = func(x ir.Type) {
			switch tt := x.(type) {
			case *ir.TensorType:
				for _, d := range tt.Dims {
					if d.IsAny() && d.Sym > 0 {
						rep.Classes[d.Sym]++
					}
				}
			case *ir.TupleType:
				for _, f := range tt.Fields {
					walk(f)
				}
			case *ir.FuncType:
				for _, p := range tt.Params {
					walk(p)
				}
				if tt.Ret != nil {
					walk(tt.Ret)
				}
			}
		}
		if t != nil {
			walk(t)
		}
	}
	ir.Visit(fn, func(e ir.Expr) bool {
		if _, isFn := e.(*ir.Function); isFn && e != ir.Expr(fn) {
			// Closure types are analyzed through their own sites.
			count(e.CheckedType())
			return true
		}
		if _, isOp := e.(*ir.OpRef); isOp {
			return true // operator function types double-count arguments
		}
		count(e.CheckedType())
		return true
	})
	return rep
}
