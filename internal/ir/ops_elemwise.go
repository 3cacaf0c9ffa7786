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

// BroadcastRel is the broadcast type relation over full tensor types.
func BroadcastRel(args []Type, _ Attrs) (Type, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("ir: broadcast relation requires 2 args, got %d", len(args))
	}
	ta, ok1 := args[0].(*TensorType)
	tb, ok2 := args[1].(*TensorType)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("ir: broadcast relation requires tensor types, got %s and %s", args[0], args[1])
	}
	if ta.DType != tb.DType {
		return nil, fmt.Errorf("ir: broadcast dtype mismatch: %s vs %s", ta.DType, tb.DType)
	}
	rank := len(ta.Dims)
	if len(tb.Dims) > rank {
		rank = len(tb.Dims)
	}
	out := make([]Dim, rank)
	for i := 0; i < rank; i++ {
		da, db := StaticDim(1), StaticDim(1)
		if i >= rank-len(ta.Dims) {
			da = ta.Dims[i-(rank-len(ta.Dims))]
		}
		if i >= rank-len(tb.Dims) {
			db = tb.Dims[i-(rank-len(tb.Dims))]
		}
		d, err := broadcastDim(da, db)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return &TensorType{Dims: out, DType: ta.DType}, nil
}

// broadcastShapeFunc is the runtime shape function shared by every broadcast
// operator; it is data independent.
var broadcastShapeFunc = ShapeFunc{
	Mode: ShapeDataIndependent,
	Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
		out, err := tensor.BroadcastShapes(inShapes[0], inShapes[1])
		if err != nil {
			return nil, err
		}
		return []tensor.Shape{out}, nil
	},
}

// identityRel types a unary op whose output type equals its input.
func identityRel(args []Type, _ Attrs) (Type, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("ir: unary relation requires 1 arg, got %d", len(args))
	}
	if _, ok := args[0].(*TensorType); !ok {
		return nil, fmt.Errorf("ir: unary relation requires a tensor type, got %s", args[0])
	}
	return args[0], nil
}

var identityShapeFunc = ShapeFunc{
	Mode: ShapeDataIndependent,
	Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
		return []tensor.Shape{inShapes[0].Clone()}, nil
	},
}

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

// compareRel is like BroadcastRel but yields a bool tensor.
func compareRel(args []Type, attrs Attrs) (Type, error) {
	t, err := BroadcastRel(args, attrs)
	if err != nil {
		return nil, err
	}
	tt := t.(*TensorType)
	return &TensorType{Dims: tt.Dims, DType: tensor.Bool}, nil
}

func registerBroadcastOp(name string, k func(a, b, out *tensor.Tensor) *tensor.Tensor) {
	RegisterOp(&Op{
		Name:      name,
		Rel:       BroadcastRel,
		Shape:     broadcastShapeFunc,
		Eval:      binaryEval(k),
		Pattern:   PatternBroadcast,
		NumInputs: 2,
	})
}

func registerUnaryOp(name string, k func(a, out *tensor.Tensor) *tensor.Tensor) {
	RegisterOp(&Op{
		Name:      name,
		Rel:       identityRel,
		Shape:     identityShapeFunc,
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
			Rel:       compareRel,
			Shape:     broadcastShapeFunc,
			Eval:      binaryEval(func(a, b, _ *tensor.Tensor) *tensor.Tensor { return c.k(a, b) }),
			Pattern:   PatternBroadcast,
			NumInputs: 2,
		})
	}

	RegisterOp(&Op{
		Name: "cast",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: cast requires a tensor type")
			}
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			return &TensorType{Dims: tt.Dims, DType: dt}, nil
		},
		Shape: identityShapeFunc,
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
