package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// denseDims is dense(x, w)'s rule: [m, k] x [k, n] -> [m, n]. The m
// dimension may be Any (the dynamic sequence length in BERT); k must unify.
func denseDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	x, w := in[0], in[1]
	if len(x) != 2 || len(w) != 2 {
		return nil, fmt.Errorf("ir: dense requires rank-2 tensors, got %v and %v", x, w)
	}
	if err := unifyDim(x[1], w[0]); err != nil {
		return nil, fmt.Errorf("ir: dense reduction dims: %w", err)
	}
	return []Dim{x[0], w[1]}, nil
}

// densePackedDims is dense_packed(x, P){units=n}'s rule: [m, k] x
// [k, PackedCols(n)] -> [m, n]. P's column count must be n rounded up to
// whole panels.
func densePackedDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	x, p, n := in[0], in[1], attrs.Int("units", -1)
	if len(x) != 2 || len(p) != 2 || n < 0 {
		return nil, fmt.Errorf("ir: dense_packed requires rank-2 tensors and units >= 0, got %v and %v", x, p)
	}
	if err := unifyDim(x[1], p[0]); err != nil {
		return nil, fmt.Errorf("ir: dense_packed reduction dims: %w", err)
	}
	if p[1].IsAny() || p[1].Value != kernels.PackedCols(n) {
		return nil, fmt.Errorf("ir: dense_packed panels %s do not hold %d columns", p[1], n)
	}
	return []Dim{x[0], StaticDim(n)}, nil
}

var (
	denseRel       = ruleRel("dense", denseDims, nil)
	densePackedRel = ruleRel("dense_packed", densePackedDims, nil)
)

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
		Name:  "dense",
		Rel:   denseRel,
		Shape: ShapeFunc{Dims: denseDims},
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
		Name:  "dense_packed",
		Rel:   densePackedRel,
		Shape: ShapeFunc{Dims: densePackedDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.DensePackedInto(args[0], args[1], attrs.Int("units", -1), out), nil
		},
		Pattern:   PatternOutFusable,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:  "bias_add",
		Rel:   ruleRel("bias_add", biasAddDims, nil),
		Shape: ShapeFunc{Dims: biasAddDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AddInto(args[0], args[1], out), nil
		},
		Pattern:   PatternBroadcast,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:      "softmax",
		Rel:       ruleRel("softmax", sameDims, nil),
		Shape:     ShapeFunc{Dims: sameDims},
		Eval:      unaryEval(kernels.SoftmaxInto),
		Pattern:   PatternOpaque, // row reduction: keep out of element-wise groups
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name:  "layer_norm",
		Rel:   ruleRel("layer_norm", sameDims, nil),
		Shape: ShapeFunc{Dims: sameDims},
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
		Rel:   ruleRel("argmax", reduceDims(true), fixedDType(tensor.Int64)),
		Shape: ShapeFunc{Dims: reduceDims(true)},
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
		Rel:   ruleRel(name, reduceDims(false), nil),
		Shape: ShapeFunc{Dims: reduceDims(false)},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return k(args[0], out, attrs.Int("axis", -1), attrs.Bool("keepdims", false)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}

// biasAddDims is bias_add(x, b)'s rule: b is rank 1 and as long as x's
// last dim, and the result has x's dims.
func biasAddDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	x, b := in[0], in[1]
	if len(x) < 1 || len(b) != 1 {
		return nil, fmt.Errorf("ir: bias_add requires (rank >= 1 tensor, rank-1 bias), got %v and %v", x, b)
	}
	if err := unifyDim(x[len(x)-1], b[0]); err != nil {
		return nil, fmt.Errorf("ir: bias_add: %w", err)
	}
	return x, nil
}

// reduceDims is the rule of a reduction over attrs' axis: the axis is
// dropped, or kept as 1 under keepdims. An index reduction (argmax) always
// drops it.
func reduceDims(index bool) DimsRule {
	return func(in [][]Dim, attrs Attrs) ([]Dim, error) {
		axis, err := checkAxis(attrs.Int("axis", -1), len(in[0]))
		if err != nil {
			return nil, err
		}
		keep := !index && attrs.Bool("keepdims", false)
		out := make([]Dim, 0, len(in[0]))
		for i, d := range in[0] {
			if i != axis {
				out = append(out, d)
			} else if keep {
				out = append(out, StaticDim(1))
			}
		}
		return out, nil
	}
}

// windowDim is the output extent of a k-wide window moved by stride over
// an extent padded by pad on both sides; Any when the extent is.
func windowDim(d Dim, k, stride, pad int) (Dim, error) {
	if d.IsAny() {
		return AnyDim(), nil
	}
	if k < 0 || stride <= 0 || k > d.Value+2*pad {
		return Dim{}, fmt.Errorf("ir: window %d at stride %d does not fit extent %s padded by %d", k, stride, d, pad)
	}
	o, _ := kernels.Conv2DOutDims(d.Value, 1, k, 1, stride, pad)
	return StaticDim(o), nil
}

// conv2dDims is conv2d(x, w)'s rule: [n, c, h, w] x [o, c, kh, kw] ->
// [n, o, h', w'], where a spatial extent is Any when the input's or the
// window's is.
func conv2dDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	x, w := in[0], in[1]
	if len(x) != 4 || len(w) != 4 {
		return nil, fmt.Errorf("ir: conv2d requires rank-4 input and weight, got %v and %v", x, w)
	}
	if err := unifyDim(x[1], w[1]); err != nil {
		return nil, fmt.Errorf("ir: conv2d channels: %w", err)
	}
	out := []Dim{x[0], w[0], AnyDim(), AnyDim()}
	for i := 2; i < 4; i++ {
		if w[i].IsAny() {
			continue
		}
		var err error
		if out[i], err = windowDim(x[i], w[i].Value, attrs.Int("stride", 1), attrs.Int("pad", 0)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poolDims is the rule of the k-wide pools: [n, c, h, w] -> [n, c, h', w'].
func poolDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	x := in[0]
	if len(x) != 4 {
		return nil, fmt.Errorf("ir: pool requires a rank-4 tensor, got %v", x)
	}
	out := []Dim{x[0], x[1], {}, {}}
	for i := 2; i < 4; i++ {
		var err error
		if out[i], err = windowDim(x[i], attrs.Int("k", 2), attrs.Int("stride", 2), 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// globalPoolDims is global_avg_pool2d's rule: [n, c, h, w] -> [n, c].
func globalPoolDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("ir: global_avg_pool2d requires a rank-4 tensor, got %v", in[0])
	}
	return []Dim{in[0][0], in[0][1]}, nil
}

func registerConvOps() {
	RegisterOp(&Op{
		Name:  "conv2d",
		Rel:   ruleRel("conv2d", conv2dDims, nil),
		Shape: ShapeFunc{Dims: conv2dDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Conv2DInto(args[0], args[1], out, attrs.Int("stride", 1), attrs.Int("pad", 0)), nil
		},
		Pattern:   PatternOutFusable,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:  "max_pool2d",
		Rel:   ruleRel("pool", poolDims, nil),
		Shape: ShapeFunc{Dims: poolDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.MaxPool2DInto(args[0], out, attrs.Int("k", 2), attrs.Int("stride", 2)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	RegisterOp(&Op{
		Name:  "avg_pool2d",
		Rel:   ruleRel("pool", poolDims, nil),
		Shape: ShapeFunc{Dims: poolDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AvgPool2DInto(args[0], out, attrs.Int("k", 2), attrs.Int("stride", 2)), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	RegisterOp(&Op{
		Name:  "global_avg_pool2d",
		Rel:   ruleRel("global_avg_pool2d", globalPoolDims, nil),
		Shape: ShapeFunc{Dims: globalPoolDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.GlobalAvgPool2DInto(args[0], out), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}
