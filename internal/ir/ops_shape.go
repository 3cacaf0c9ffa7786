package ir

import (
	"fmt"
	"slices"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// concatDims is the paper's canonical dynamic-shape rule (§4.3's concat
// example): the concatenation axis sums input extents, producing Any when
// any participating extent is Any, and every other dim must unify.
func concatDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("ir: concat requires at least one input")
	}
	axis, err := checkAxis(attrs.Int("axis", 0), len(in[0]))
	if err != nil {
		return nil, err
	}
	out := append([]Dim{}, in[0]...)
	total, anyAxis := 0, false
	for _, x := range in {
		if len(x) != len(out) {
			return nil, fmt.Errorf("ir: concat rank mismatch: %v vs %v", in[0], x)
		}
		for d := range x {
			if d == axis {
				anyAxis = anyAxis || x[d].IsAny()
				total += x[d].Value
				continue
			}
			if err := unifyDim(out[d], x[d]); err != nil {
				return nil, fmt.Errorf("ir: concat non-axis dims: %w", err)
			}
			// A static dim refines an Any dim in the output (sub-shaping).
			if out[d].IsAny() && !x[d].IsAny() {
				out[d] = x[d]
			}
		}
	}
	if anyAxis {
		out[axis] = AnyDim()
	} else {
		out[axis] = StaticDim(total)
	}
	return out, nil
}

var concatRel = ruleRel("concat", concatDims, func(ts []*TensorType, _ Attrs) (tensor.DType, error) {
	if len(ts) == 0 {
		return 0, fmt.Errorf("ir: concat requires at least one input")
	}
	for _, t := range ts[1:] {
		if t.DType != ts[0].DType {
			return 0, fmt.Errorf("ir: concat input mismatch: %s vs %s", ts[0], t)
		}
	}
	return ts[0].DType, nil
})

// stridedSliceDims is strided_slice's rule: the axis becomes end - begin,
// which must lie within its extent.
func stridedSliceDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	x := in[0]
	axis, err := checkAxis(attrs.Int("axis", 0), len(x))
	if err != nil {
		return nil, err
	}
	lo, hi := attrs.Int("begin", 0), attrs.Int("end", 0)
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("ir: strided_slice [%d:%d] is not a range", lo, hi)
	}
	if !x[axis].IsAny() && hi > x[axis].Value {
		return nil, fmt.Errorf("ir: strided_slice end %d beyond extent %s", hi, x[axis])
	}
	out := append([]Dim{}, x...)
	out[axis] = StaticDim(hi - lo)
	return out, nil
}

// takeDims is take(table, indices)'s rule: one table row per index.
func takeDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	table, idx := in[0], in[1]
	if len(table) != 2 {
		return nil, fmt.Errorf("ir: take requires a rank-2 table, got %v", table)
	}
	return append(append(make([]Dim, 0, len(idx)+1), idx...), table[1]), nil
}

// transposeDims is transpose's rule: out[i] = in[perm[i]], where a missing
// perm reverses the dims.
func transposeDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	x, perm := in[0], attrs.Ints("perm")
	if perm != nil && len(perm) != len(x) {
		return nil, fmt.Errorf("ir: transpose perm %v does not match rank %d", perm, len(x))
	}
	out := make([]Dim, len(x))
	for i := range out {
		p := len(x) - 1 - i
		if perm != nil {
			if p = perm[i]; p < 0 || p >= len(x) || slices.Contains(perm[:i], p) {
				return nil, fmt.Errorf("ir: transpose perm %v is not a permutation of rank %d", perm, len(x))
			}
		}
		out[i] = x[p]
	}
	return out, nil
}

// reshapeDims is reshape's rule: the target shape in attrs, whose one -1
// extent is inferred from the element count, or Any while that is unknown.
// With a static input the element counts must agree.
func reshapeDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	newShape := attrs.Ints("shape")
	n, static := 1, true
	for _, d := range in[0] {
		n *= d.Value
		static = static && !d.IsAny()
	}
	known, infer := 1, -1
	out := make([]Dim, len(newShape))
	for i, d := range newShape {
		switch {
		case d >= 0:
			out[i], known = StaticDim(d), known*d
		case d != -1:
			return nil, fmt.Errorf("ir: reshape dim %d invalid", d)
		case infer >= 0:
			return nil, fmt.Errorf("ir: reshape %v has more than one -1", newShape)
		default:
			out[i], infer = AnyDim(), i
		}
	}
	switch {
	case !static:
	case infer < 0 && known != n, infer >= 0 && (known == 0 || n%known != 0):
		return nil, fmt.Errorf("ir: reshape %v incompatible with %v", newShape, in[0])
	case infer >= 0:
		out[infer] = StaticDim(n / known)
	}
	return out, nil
}

// zerosDims is the rule of zeros and state_zeros: the static shape in
// attrs.
func zerosDims(_ [][]Dim, attrs Attrs) ([]Dim, error) {
	dims := attrs.Ints("shape")
	out := make([]Dim, len(dims))
	for i, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("ir: zeros shape %v has a negative extent", dims)
		}
		out[i] = StaticDim(d)
	}
	return out, nil
}

func init() {
	RegisterOp(&Op{
		Name:  "concat",
		Rel:   concatRel,
		Shape: ShapeFunc{Dims: concatDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.ConcatInto(args, out, attrs.Int("axis", 0)), nil
		},
		Pattern:   PatternInjective,
		NumInputs: -1,
	})

	RegisterOp(&Op{
		Name:  "strided_slice",
		Rel:   ruleRel("strided_slice", stridedSliceDims, nil),
		Shape: ShapeFunc{Dims: stridedSliceDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.SliceInto(args[0], out, attrs.Int("axis", 0), attrs.Int("begin", 0), attrs.Int("end", 0)), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name: "take",
		Rel: ruleRel("take", takeDims, func(ts []*TensorType, _ Attrs) (tensor.DType, error) {
			if !ts[1].DType.IsInt() {
				return 0, fmt.Errorf("ir: take indices must be integer, got %s", ts[1].DType)
			}
			return ts[0].DType, nil
		}),
		Shape: ShapeFunc{Dims: takeDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.TakeInto(args[0], args[1], out), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:  "transpose",
		Rel:   ruleRel("transpose", transposeDims, nil),
		Shape: ShapeFunc{Dims: transposeDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Transpose(args[0], attrs.Ints("perm")), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name:  "reshape",
		Rel:   ruleRel("reshape", reshapeDims, nil),
		Shape: ShapeFunc{Dims: reshapeDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return args[0].Reshape(attrs.Ints("shape")...)
		},
		Pattern:   PatternInjective,
		NumInputs: 1,
	})

	RegisterOp(zerosOp("zeros"))
}

// zerosOp is a zero-filled tensor of the static shape and dtype in its
// attrs. Constant folding evaluates zeros into a shared ir.Constant;
// state_zeros is the same operator under a name folding leaves alone.
func zerosOp(name string) *Op {
	return &Op{
		Name:  name,
		Rel:   ruleRel(name, zerosDims, attrDType),
		Shape: ShapeFunc{Dims: zerosDims},
		Eval: func(_ []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			shape := tensor.Shape(attrs.Ints("shape"))
			if out == nil || out.DType() != dt || out.NumElements() != shape.NumElements() {
				return tensor.New(dt, shape...), nil
			}
			out.Fill(0)
			return out, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 0,
	}
}
