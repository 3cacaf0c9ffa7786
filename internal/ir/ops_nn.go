package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// denseRel types dense(x, w): [m, k] x [k, n] -> [m, n]. The m dimension may
// be Any (the dynamic sequence length in BERT); k must unify; n must be
// static in this reproduction (weights are constants).
func denseRel(args []Type, _ Attrs) (Type, error) {
	x, ok1 := args[0].(*TensorType)
	w, ok2 := args[1].(*TensorType)
	if !ok1 || !ok2 || x.Rank() != 2 || w.Rank() != 2 {
		return nil, fmt.Errorf("ir: dense requires rank-2 tensors, got %s and %s", args[0], args[1])
	}
	if err := unifyDim(x.Dims[1], w.Dims[0]); err != nil {
		return nil, fmt.Errorf("ir: dense reduction dims: %w", err)
	}
	return &TensorType{Dims: []Dim{x.Dims[0], w.Dims[1]}, DType: x.DType}, nil
}

// densePackedRel types dense_packed(x, P){units=n}: [m, k] x [k, PackedCols(n)]
// -> [m, n]. P's column count must be n rounded up to whole panels.
func densePackedRel(args []Type, attrs Attrs) (Type, error) {
	x, ok1 := args[0].(*TensorType)
	p, ok2 := args[1].(*TensorType)
	n := attrs.Int("units", -1)
	if !ok1 || !ok2 || x.Rank() != 2 || p.Rank() != 2 || n < 0 {
		return nil, fmt.Errorf("ir: dense_packed requires rank-2 tensors and units >= 0, got %s and %s", args[0], args[1])
	}
	if err := unifyDim(x.Dims[1], p.Dims[0]); err != nil {
		return nil, fmt.Errorf("ir: dense_packed reduction dims: %w", err)
	}
	if p.Dims[1].IsAny() || p.Dims[1].Value != kernels.PackedCols(n) {
		return nil, fmt.Errorf("ir: dense_packed panels %s do not hold %d columns", p.Dims[1], n)
	}
	return &TensorType{Dims: []Dim{x.Dims[0], StaticDim(n)}, DType: x.DType}, nil
}

// unifyDim checks that two dims can denote the same extent; Any unifies with
// anything (the residual check happens at runtime, per gradual typing).
func unifyDim(a, b Dim) error {
	if a.IsAny() || b.IsAny() {
		return nil
	}
	if a.Value != b.Value {
		return fmt.Errorf("dimension mismatch %s vs %s", a, b)
	}
	return nil
}

func init() {
	RegisterOp(&Op{
		Name: "dense",
		Rel:  denseRel,
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				x, w := inShapes[0], inShapes[1]
				if x[1] != w[0] {
					// Runtime residual of the gradually typed k-dim check.
					return nil, fmt.Errorf("ir: dense runtime shape mismatch: %v x %v", x, w)
				}
				return []tensor.Shape{{x[0], w[1]}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.MatMulInto(args[0], args[1], out), nil
		},
		Pattern:   PatternOutFusable,
		NumInputs: 2,
	})

	// dense_packed(x, P){units=n} is dense whose B was packed at compile
	// time (kernels.PackB): P is [k, PackedCols(n)] in panel order and the
	// result is [m, n]. The pack-dense-weights pass emits it for every
	// dense over a constant B.
	RegisterOp(&Op{
		Name: "dense_packed",
		Rel:  densePackedRel,
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				x, p, n := inShapes[0], inShapes[1], attrs.Int("units", -1)
				if x[1] != p[0] || p[1] != kernels.PackedCols(n) {
					return nil, fmt.Errorf("ir: dense_packed runtime shape mismatch: %v x %v (units %d)", x, p, n)
				}
				return []tensor.Shape{{x[0], n}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.DensePackedInto(args[0], args[1], attrs.Int("units", -1), out), nil
		},
		Pattern:   PatternOutFusable,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name: "bias_add",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			x, ok1 := args[0].(*TensorType)
			b, ok2 := args[1].(*TensorType)
			if !ok1 || !ok2 || b.Rank() != 1 {
				return nil, fmt.Errorf("ir: bias_add requires (tensor, rank-1 bias)")
			}
			if x.Rank() < 1 {
				return nil, fmt.Errorf("ir: bias_add input must have rank >= 1")
			}
			if err := unifyDim(x.Dims[x.Rank()-1], b.Dims[0]); err != nil {
				return nil, fmt.Errorf("ir: bias_add: %w", err)
			}
			return x, nil
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AddInto(args[0], args[1], out), nil
		},
		Pattern:   PatternBroadcast,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:      "softmax",
		Rel:       identityRel,
		Shape:     identityShapeFunc,
		Eval:      unaryEval(kernels.SoftmaxInto),
		Pattern:   PatternOpaque, // row reduction: keep out of element-wise groups
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name: "layer_norm",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("ir: layer_norm requires (x, gamma, beta)")
			}
			return identityRel(args[:1], nil)
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			eps := float32(attrs.Float("eps", 1e-5))
			return kernels.LayerNormInto(args[0], args[1], args[2], out, eps), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 3,
	})

	registerReduceOp("sum", kernels.SumInto)
	registerReduceOp("mean", kernels.MeanInto)
	registerReduceOp("max", kernels.MaxInto)

	RegisterOp(&Op{
		Name:  "argmax",
		Rel:   reduceRel("argmax", true),
		Shape: reduceShape(true),
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.ArgMaxInto(args[0], out, attrs.Int("axis", -1)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})

	registerConvOps()
}

func checkAxis(axis, rank int) (int, error) {
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return 0, fmt.Errorf("ir: axis %d out of range for rank %d", axis, rank)
	}
	return axis, nil
}

func registerReduceOp(name string, k func(a, out *tensor.Tensor, axis int, keep bool) *tensor.Tensor) {
	RegisterOp(&Op{
		Name:  name,
		Rel:   reduceRel(name, false),
		Shape: reduceShape(false),
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return k(args[0], out, attrs.Int("axis", -1), attrs.Bool("keepdims", false)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}

// reduceRel types a reduction over attrs' axis. A value reduction keeps
// its input's dtype and honours keepdims; an index reduction (argmax)
// yields int64 and drops the axis.
func reduceRel(name string, index bool) TypeRel {
	return func(args []Type, attrs Attrs) (Type, error) {
		tt, ok := args[0].(*TensorType)
		if !ok {
			return nil, fmt.Errorf("ir: %s requires a tensor type", name)
		}
		axis, err := checkAxis(attrs.Int("axis", -1), tt.Rank())
		if err != nil {
			return nil, err
		}
		dt := tt.DType
		if index {
			dt = tensor.Int64
		}
		keep := !index && attrs.Bool("keepdims", false)
		return &TensorType{Dims: reduceDims(tt.Dims, axis, keep, StaticDim(1)), DType: dt}, nil
	}
}

// reduceShape is reduceRel's runtime shape function.
func reduceShape(index bool) ShapeFunc {
	return ShapeFunc{
		Mode: ShapeDataIndependent,
		Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
			in := inShapes[0]
			axis := attrs.Int("axis", -1)
			if axis < 0 {
				axis += len(in)
			}
			keep := !index && attrs.Bool("keepdims", false)
			return []tensor.Shape{reduceDims(in, axis, keep, 1)}, nil
		},
	}
}

// reduceDims drops dims[axis], or replaces it with one under keepdims.
func reduceDims[S ~[]D, D any](dims S, axis int, keep bool, one D) S {
	out := make(S, 0, len(dims))
	for i, d := range dims {
		if i != axis {
			out = append(out, d)
		} else if keep {
			out = append(out, one)
		}
	}
	return out
}

func registerConvOps() {
	RegisterOp(&Op{
		Name: "conv2d",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			in, ok1 := args[0].(*TensorType)
			w, ok2 := args[1].(*TensorType)
			if !ok1 || !ok2 || in.Rank() != 4 || w.Rank() != 4 {
				return nil, fmt.Errorf("ir: conv2d requires rank-4 input and weight")
			}
			if err := unifyDim(in.Dims[1], w.Dims[1]); err != nil {
				return nil, fmt.Errorf("ir: conv2d channels: %w", err)
			}
			stride, pad := attrs.Int("stride", 1), attrs.Int("pad", 0)
			outH, outW := AnyDim(), AnyDim()
			if !in.Dims[2].IsAny() && !w.Dims[2].IsAny() {
				oh, _ := kernels.Conv2DOutDims(in.Dims[2].Value, 1, w.Dims[2].Value, 1, stride, pad)
				outH = StaticDim(oh)
			}
			if !in.Dims[3].IsAny() && !w.Dims[3].IsAny() {
				_, ow := kernels.Conv2DOutDims(1, in.Dims[3].Value, 1, w.Dims[3].Value, stride, pad)
				outW = StaticDim(ow)
			}
			return &TensorType{Dims: []Dim{in.Dims[0], w.Dims[0], outH, outW}, DType: in.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				in, w := inShapes[0], inShapes[1]
				oh, ow := kernels.Conv2DOutDims(in[2], in[3], w[2], w[3], attrs.Int("stride", 1), attrs.Int("pad", 0))
				return []tensor.Shape{{in[0], w[0], oh, ow}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Conv2DInto(args[0], args[1], out, attrs.Int("stride", 1), attrs.Int("pad", 0)), nil
		},
		Pattern:   PatternOutFusable,
		NumInputs: 2,
	})

	poolRel := func(args []Type, attrs Attrs) (Type, error) {
		in, ok := args[0].(*TensorType)
		if !ok || in.Rank() != 4 {
			return nil, fmt.Errorf("ir: pool requires a rank-4 tensor")
		}
		k, stride := attrs.Int("k", 2), attrs.Int("stride", 2)
		outH, outW := AnyDim(), AnyDim()
		if !in.Dims[2].IsAny() {
			oh, _ := kernels.Conv2DOutDims(in.Dims[2].Value, 1, k, 1, stride, 0)
			outH = StaticDim(oh)
		}
		if !in.Dims[3].IsAny() {
			_, ow := kernels.Conv2DOutDims(1, in.Dims[3].Value, 1, k, stride, 0)
			outW = StaticDim(ow)
		}
		return &TensorType{Dims: []Dim{in.Dims[0], in.Dims[1], outH, outW}, DType: in.DType}, nil
	}
	poolShape := ShapeFunc{
		Mode: ShapeDataIndependent,
		Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
			in := inShapes[0]
			oh, ow := kernels.Conv2DOutDims(in[2], in[3], attrs.Int("k", 2), attrs.Int("k", 2), attrs.Int("stride", 2), 0)
			return []tensor.Shape{{in[0], in[1], oh, ow}}, nil
		},
	}
	RegisterOp(&Op{
		Name:  "max_pool2d",
		Rel:   poolRel,
		Shape: poolShape,
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.MaxPool2DInto(args[0], out, attrs.Int("k", 2), attrs.Int("stride", 2)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	RegisterOp(&Op{
		Name:  "avg_pool2d",
		Rel:   poolRel,
		Shape: poolShape,
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AvgPool2DInto(args[0], out, attrs.Int("k", 2), attrs.Int("stride", 2)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	RegisterOp(&Op{
		Name: "global_avg_pool2d",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			in, ok := args[0].(*TensorType)
			if !ok || in.Rank() != 4 {
				return nil, fmt.Errorf("ir: global_avg_pool2d requires a rank-4 tensor")
			}
			return &TensorType{Dims: []Dim{in.Dims[0], in.Dims[1]}, DType: in.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				in := inShapes[0]
				return []tensor.Shape{{in[0], in[1]}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.GlobalAvgPool2DInto(args[0], out), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}
