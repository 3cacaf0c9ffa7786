package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// broadcastDim implements the paper's broadcast type-relation rules for a
// single dimension pair (§4.1):
//
//	broadcast_rel(Any, 1)   -> Any
//	broadcast_rel(Any, d)   -> d   (d > 1)
//	broadcast_rel(Any, Any) -> Any
//
// Symbolic identities survive when the result remains the same unknown
// extent: Any#k against 1 is still Any#k, and Any#k against Any#k stays
// Any#k, enabling downstream shape specialization.
func broadcastDim(a, b Dim) (Dim, error) {
	switch {
	case !a.IsAny() && !b.IsAny():
		if a.Value == b.Value {
			return a, nil
		}
		if a.Value == 1 {
			return b, nil
		}
		if b.Value == 1 {
			return a, nil
		}
		return Dim{}, fmt.Errorf("ir: cannot broadcast %s with %s", a, b)
	case a.IsAny() && b.IsAny():
		if a.Sym != 0 && a.Sym == b.Sym {
			return a, nil
		}
		return AnyDim(), nil
	case a.IsAny():
		if b.Value == 1 {
			return a, nil // Any (possibly symbolic) vs 1 -> same Any
		}
		return b, nil // Any vs d>1 -> d; the d==Any case is gradually checked at runtime
	default: // b.IsAny()
		if a.Value == 1 {
			return b, nil
		}
		return a, nil
	}
}

// broadcastDims is the broadcast rule: the two dim lists align at their
// trailing dims, a missing leading dim counts as 1, and each pair
// broadcasts by broadcastDim.
func broadcastDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	a, b := in[0], in[1]
	out := make([]Dim, max(len(a), len(b)))
	for i := range out {
		da, db := StaticDim(1), StaticDim(1)
		if j := i - (len(out) - len(a)); j >= 0 {
			da = a[j]
		}
		if j := i - (len(out) - len(b)); j >= 0 {
			db = b[j]
		}
		d, err := broadcastDim(da, db)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// broadcastDType checks that both operands share a dtype; a comparison
// yields bool, any other broadcast operator the operands' dtype.
func broadcastDType(compare bool) func([]*TensorType, Attrs) (tensor.DType, error) {
	return func(ts []*TensorType, _ Attrs) (tensor.DType, error) {
		if len(ts) != 2 {
			return 0, fmt.Errorf("ir: broadcast relation requires 2 args, got %d", len(ts))
		}
		if ts[0].DType != ts[1].DType {
			return 0, fmt.Errorf("ir: broadcast dtype mismatch: %s vs %s", ts[0].DType, ts[1].DType)
		}
		if compare {
			return tensor.Bool, nil
		}
		return ts[0].DType, nil
	}
}

// BroadcastRel is the broadcast type relation over full tensor types.
var BroadcastRel = ruleRel("broadcast", broadcastDims, broadcastDType(false))

func binaryEval(k func(a, b, out *tensor.Tensor) *tensor.Tensor) EvalFunc {
	return func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("ir: binary op requires 2 args, got %d", len(args))
		}
		return k(args[0], args[1], out), nil
	}
}

func unaryEval(k func(a, out *tensor.Tensor) *tensor.Tensor) EvalFunc {
	return func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("ir: unary op requires 1 arg, got %d", len(args))
		}
		return k(args[0], out), nil
	}
}

func registerBroadcastOp(name string, k func(a, b, out *tensor.Tensor) *tensor.Tensor) {
	RegisterOp(&Op{
		Name:      name,
		Rel:       BroadcastRel,
		Shape:     ShapeFunc{Dims: broadcastDims},
		Eval:      binaryEval(k),
		Pattern:   PatternBroadcast,
		NumInputs: 2,
	})
}

func registerUnaryOp(name string, k func(a, out *tensor.Tensor) *tensor.Tensor) {
	RegisterOp(&Op{
		Name:      name,
		Rel:       ruleRel(name, sameDims, nil),
		Shape:     ShapeFunc{Dims: sameDims},
		Eval:      unaryEval(k),
		Pattern:   PatternElemWise,
		NumInputs: 1,
	})
}

func init() {
	registerBroadcastOp("add", kernels.AddInto)
	registerBroadcastOp("subtract", kernels.SubInto)
	registerBroadcastOp("multiply", kernels.MulInto)
	registerBroadcastOp("divide", kernels.DivInto)
	registerBroadcastOp("maximum", kernels.MaximumInto)
	registerBroadcastOp("minimum", kernels.MinimumInto)
	registerBroadcastOp("power", kernels.PowerInto)

	registerUnaryOp("negative", kernels.NegInto)
	registerUnaryOp("exp", kernels.ExpInto)
	registerUnaryOp("sqrt", kernels.SqrtInto)
	registerUnaryOp("sigmoid", kernels.SigmoidInto)
	registerUnaryOp("tanh", kernels.TanhInto)
	registerUnaryOp("relu", kernels.ReluInto)
	registerUnaryOp("gelu", kernels.GeluInto)

	for _, c := range []struct {
		name string
		k    func(a, b *tensor.Tensor) *tensor.Tensor
	}{
		{"greater", kernels.Greater},
		{"less", kernels.Less},
		{"equal", kernels.EqualOp},
	} {
		RegisterOp(&Op{
			Name:      c.name,
			Rel:       ruleRel(c.name, broadcastDims, broadcastDType(true)),
			Shape:     ShapeFunc{Dims: broadcastDims},
			Eval:      binaryEval(func(a, b, _ *tensor.Tensor) *tensor.Tensor { return c.k(a, b) }),
			Pattern:   PatternBroadcast,
			NumInputs: 2,
		})
	}

	RegisterOp(&Op{
		Name:  "cast",
		Rel:   ruleRel("cast", sameDims, attrDType),
		Shape: ShapeFunc{Dims: sameDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			return kernels.Cast(args[0], dt), nil
		},
		Pattern:   PatternElemWise,
		NumInputs: 1,
	})
}
