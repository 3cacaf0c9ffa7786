package passes

import (
	"nimble/internal/ir"
	"nimble/internal/typeinfer"
)

// RowSeparable reports whether a single-tensor-parameter function is
// row-independent along its leading dimension: row i of the result depends
// only on row i of the input, so concatenating two inputs along dim 0 and
// slicing the output back apart is a semantics-preserving rewrite. This is
// the property coalescing requests in the serving scheduler needs, and it is
// decided here from the IR — not declared by callers — so the public
// nimble.Service can coalesce such entries automatically and a BERT-style
// entry (whose attention mixes sequence positions even though its input and
// output both lead with Any) is provably excluded.
//
// The analysis is a conservative abstract interpretation over the
// let-chain with three facts per value:
//
//   - rowFree: the value does not depend on the parameter at all
//     (weights, biases, literals) — safe in any position.
//   - rowWise: the value's leading dimension ranges over the parameter's
//     rows, and row i depends only on parameter row i.
//   - tainted: anything else (mixes rows, reshapes them away, or flows
//     through a construct the analysis does not model).
//
// The result must be rowWise for the function to be row-separable. Any
// construct outside the modeled transfer rules (control flow, tuples,
// ADTs, calls to other functions) taints, so "true" is a proof and
// "false" merely means "not provably separable".
//
// Two transfer rules need shape information (from checked types; type
// inference is run on demand when the function has not been inferred):
// trailing-axis normalizations (softmax, layer_norm) are only row-wise
// when the operand's rank is >= 2 — on a rank-1 value the trailing axis
// IS the batch axis — and a row-free operand of an element-wise op may
// only broadcast UNDER the batch dimension (rank below the row-wise
// operand's, or an explicit leading extent of 1), never span it.
func RowSeparable(fn *ir.Function) bool {
	if len(fn.Params) != 1 {
		return false
	}
	pt, ok := fn.Params[0].TypeAnn.(*ir.TensorType)
	if !ok || pt.Rank() < 1 || !pt.Dims[0].IsAny() {
		return false
	}
	if fn.Body.CheckedType() == nil {
		// The shape-sensitive rules below read checked types; an
		// uninferrable function (e.g. one calling module globals, which
		// would taint anyway) is simply not provable.
		if err := typeinfer.InferFunc(fn); err != nil {
			return false
		}
	}
	a := &rowAnalysis{facts: map[*ir.Var]rowFact{fn.Params[0]: rowWise}}
	return a.eval(fn.Body) == rowWise
}

type rowFact int

const (
	tainted rowFact = iota
	rowFree
	rowWise
)

type rowAnalysis struct {
	facts map[*ir.Var]rowFact
}

func (a *rowAnalysis) eval(e ir.Expr) rowFact {
	switch n := e.(type) {
	case *ir.Var:
		return a.facts[n] // unbound vars default to tainted
	case *ir.Constant:
		return rowFree
	case *ir.Let:
		a.facts[n.Bound] = a.eval(n.Value)
		return a.eval(n.Body)
	case *ir.Call:
		return a.evalCall(n)
	}
	// Control flow, tuples, ADTs, closures: out of scope — tainted.
	return tainted
}

// tensorRank returns the expression's tensor rank from its checked type
// (falling back to annotations and constant payloads); ok is false when
// the rank cannot be determined.
func tensorRank(e ir.Expr) (rank int, leadingOne bool, ok bool) {
	t := e.CheckedType()
	if t == nil {
		switch n := e.(type) {
		case *ir.Var:
			t = n.TypeAnn
		case *ir.Constant:
			if n.Value != nil {
				sh := n.Value.Shape()
				return len(sh), len(sh) > 0 && sh[0] == 1, true
			}
		}
	}
	tt, isTensor := t.(*ir.TensorType)
	if !isTensor {
		return 0, false, false
	}
	lead := false
	if tt.Rank() > 0 {
		d := tt.Dims[0]
		lead = !d.IsAny() && d.Value == 1
	}
	return tt.Rank(), lead, true
}

func (a *rowAnalysis) evalCall(n *ir.Call) rowFact {
	opRef, ok := n.Callee.(*ir.OpRef)
	if !ok {
		return tainted // call to a global function or closure
	}
	args := make([]rowFact, len(n.Args))
	allFree := true
	for i, arg := range n.Args {
		args[i] = a.eval(arg)
		if args[i] != rowFree {
			allFree = false
		}
	}
	// A computation over weights only never sees the parameter; its result
	// is a constant of the request and safe anywhere.
	if allFree {
		return rowFree
	}
	op := opRef.Op
	switch op.Name {
	case "dense", "dense_packed", "matmul", "bias_add":
		// x @ W / x + b: output row i is a function of input row i alone,
		// provided the right operand carries no row data AND the left
		// operand's batch axis is not its trailing axis (a rank-1 [Any]
		// value would consume the merged batch as one vector).
		if len(args) == 2 && args[0] == rowWise && args[1] == rowFree {
			if rank, _, known := tensorRank(n.Args[0]); known && rank >= 2 {
				return rowWise
			}
		}
		return tainted
	case "softmax", "layer_norm":
		// Normalize over the trailing axis: per-row only when the batch
		// axis is NOT the trailing axis — on a rank-1 value the two
		// coincide and batching would normalize across requests.
		if len(args) >= 1 && args[0] == rowWise {
			if rank, _, known := tensorRank(n.Args[0]); known && rank >= 2 {
				return rowWise
			}
		}
		return tainted
	case "concat":
		// Concatenation along a trailing axis keeps rows aligned; along the
		// leading axis it would interleave rows from different origins.
		// Negative axes are normalized the way the kernels do (axis+rank).
		axis := n.Attrs.Int("axis", 0)
		if axis < 0 {
			rank, _, known := tensorRank(n.Args[0])
			if !known {
				return tainted
			}
			axis += rank
		}
		if axis <= 0 {
			return tainted
		}
		for _, f := range args {
			if f != rowWise {
				return tainted
			}
		}
		return rowWise
	}
	switch op.Pattern {
	case ir.PatternElemWise, ir.PatternBroadcast:
		return a.elemwiseFact(n, args)
	}
	return tainted
}

// elemwiseFact decides element-wise/broadcast calls with at least one
// non-rowFree operand: every operand must be row-wise or a row-free value
// that provably broadcasts under the batch dimension. A row-free operand
// whose leading extent could align with the batch (rank equal to the
// row-wise operands' with leading dim != 1) would be consumed per-row in a
// single request but per-concatenated-batch in a merged one — e.g.
// add(x[Any,4], C[5,4]) type-checks per request yet breaks (or silently
// changes) under concatenation — so it taints.
func (a *rowAnalysis) elemwiseFact(n *ir.Call, args []rowFact) rowFact {
	rowRank := -1
	for i, f := range args {
		if f != rowWise {
			continue
		}
		rank, _, known := tensorRank(n.Args[i])
		if !known {
			return tainted
		}
		if rank > rowRank {
			rowRank = rank
		}
	}
	if rowRank < 1 {
		// Row-wise scalars have no batch dimension to preserve.
		return tainted
	}
	for i, f := range args {
		switch f {
		case tainted:
			return tainted
		case rowFree:
			rank, leadingOne, known := tensorRank(n.Args[i])
			if !known {
				return tainted
			}
			if rank >= rowRank && !(rank == rowRank && leadingOne) {
				return tainted
			}
		}
	}
	return rowWise
}
