package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// concatRel is the paper's canonical dynamic-shape relation (§4.3's concat
// example): the concatenation axis sums input extents, producing Any when
// any participating extent is Any.
func concatRel(args []Type, attrs Attrs) (Type, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("ir: concat requires at least one input")
	}
	first, ok := args[0].(*TensorType)
	if !ok {
		return nil, fmt.Errorf("ir: concat requires tensor types")
	}
	axis, err := checkAxis(attrs.Int("axis", 0), first.Rank())
	if err != nil {
		return nil, err
	}
	outDims := append([]Dim{}, first.Dims...)
	total := 0
	anyAxis := first.Dims[axis].IsAny()
	if !anyAxis {
		total = first.Dims[axis].Value
	}
	for _, a := range args[1:] {
		t, ok := a.(*TensorType)
		if !ok || t.Rank() != first.Rank() || t.DType != first.DType {
			return nil, fmt.Errorf("ir: concat input mismatch: %s vs %s", args[0], a)
		}
		for d := 0; d < t.Rank(); d++ {
			if d == axis {
				if t.Dims[d].IsAny() {
					anyAxis = true
				} else {
					total += t.Dims[d].Value
				}
				continue
			}
			if err := unifyDim(outDims[d], t.Dims[d]); err != nil {
				return nil, fmt.Errorf("ir: concat non-axis dims: %w", err)
			}
			// A static dim refines an Any dim in the output (sub-shaping).
			if outDims[d].IsAny() && !t.Dims[d].IsAny() {
				outDims[d] = t.Dims[d]
			}
		}
	}
	if anyAxis {
		outDims[axis] = AnyDim()
	} else {
		outDims[axis] = StaticDim(total)
	}
	return &TensorType{Dims: outDims, DType: first.DType}, nil
}

func init() {
	RegisterOp(&Op{
		Name: "concat",
		Rel:  concatRel,
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				axis := attrs.Int("axis", 0)
				out := inShapes[0].Clone()
				if axis < 0 {
					axis += len(out)
				}
				for _, s := range inShapes[1:] {
					out[axis] += s[axis]
				}
				return []tensor.Shape{out}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.ConcatInto(args, out, attrs.Int("axis", 0)), nil
		},
		Pattern:   PatternInjective,
		NumInputs: -1,
	})

	RegisterOp(&Op{
		Name: "strided_slice",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: strided_slice requires a tensor type")
			}
			axis, err := checkAxis(attrs.Int("axis", 0), tt.Rank())
			if err != nil {
				return nil, err
			}
			lo, hi := attrs.Int("begin", 0), attrs.Int("end", 0)
			if lo > hi {
				return nil, fmt.Errorf("ir: strided_slice begin %d > end %d", lo, hi)
			}
			if !tt.Dims[axis].IsAny() && hi > tt.Dims[axis].Value {
				return nil, fmt.Errorf("ir: strided_slice end %d beyond extent %s", hi, tt.Dims[axis])
			}
			outDims := append([]Dim{}, tt.Dims...)
			outDims[axis] = StaticDim(hi - lo)
			return &TensorType{Dims: outDims, DType: tt.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				out := inShapes[0].Clone()
				axis := attrs.Int("axis", 0)
				if axis < 0 {
					axis += len(out)
				}
				out[axis] = attrs.Int("end", 0) - attrs.Int("begin", 0)
				return []tensor.Shape{out}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.SliceInto(args[0], out, attrs.Int("axis", 0), attrs.Int("begin", 0), attrs.Int("end", 0)), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name: "take",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			table, ok1 := args[0].(*TensorType)
			idx, ok2 := args[1].(*TensorType)
			if !ok1 || !ok2 || table.Rank() != 2 {
				return nil, fmt.Errorf("ir: take requires (rank-2 table, integer indices)")
			}
			if !idx.DType.IsInt() {
				return nil, fmt.Errorf("ir: take indices must be integer, got %s", idx.DType)
			}
			dims := append(append([]Dim{}, idx.Dims...), table.Dims[1])
			return &TensorType{Dims: dims, DType: table.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				out := append(inShapes[1].Clone(), inShapes[0][1])
				return []tensor.Shape{out}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.TakeInto(args[0], args[1], out), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name: "transpose",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: transpose requires a tensor type")
			}
			perm := attrs.Ints("perm")
			if perm == nil {
				perm = make([]int, tt.Rank())
				for i := range perm {
					perm[i] = tt.Rank() - 1 - i
				}
			}
			if len(perm) != tt.Rank() {
				return nil, fmt.Errorf("ir: transpose perm %v does not match rank %d", perm, tt.Rank())
			}
			outDims := make([]Dim, tt.Rank())
			for i, p := range perm {
				if p < 0 || p >= tt.Rank() {
					return nil, fmt.Errorf("ir: transpose perm index %d out of range", p)
				}
				outDims[i] = tt.Dims[p]
			}
			return &TensorType{Dims: outDims, DType: tt.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				in := inShapes[0]
				perm := attrs.Ints("perm")
				if perm == nil {
					perm = make([]int, len(in))
					for i := range perm {
						perm[i] = len(in) - 1 - i
					}
				}
				out := make(tensor.Shape, len(in))
				for i, p := range perm {
					out[i] = in[p]
				}
				return []tensor.Shape{out}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Transpose(args[0], attrs.Ints("perm")), nil
		},
		Pattern:   PatternInjective,
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name: "reshape",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: reshape requires a tensor type")
			}
			newShape := attrs.Ints("shape")
			outDims := make([]Dim, len(newShape))
			for i, d := range newShape {
				switch {
				case d == -1:
					// Inferred extent: Any when input has dynamic dims,
					// computed when static.
					if shp, static := tt.StaticShape(); static {
						known := 1
						for _, x := range newShape {
							if x > 0 {
								known *= x
							}
						}
						if known > 0 && shp.NumElements()%known == 0 {
							outDims[i] = StaticDim(shp.NumElements() / known)
						} else {
							return nil, fmt.Errorf("ir: reshape %v incompatible with %s", newShape, tt)
						}
					} else {
						outDims[i] = AnyDim()
					}
				case d >= 0:
					outDims[i] = StaticDim(d)
				default:
					return nil, fmt.Errorf("ir: reshape dim %d invalid", d)
				}
			}
			return &TensorType{Dims: outDims, DType: tt.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				in := inShapes[0]
				newShape := attrs.Ints("shape")
				out := make(tensor.Shape, len(newShape))
				known, inferAt := 1, -1
				for i, d := range newShape {
					if d == -1 {
						inferAt = i
						continue
					}
					out[i] = d
					known *= d
				}
				if inferAt >= 0 {
					if known == 0 || in.NumElements()%known != 0 {
						return nil, fmt.Errorf("ir: reshape %v incompatible with %v", newShape, in)
					}
					out[inferAt] = in.NumElements() / known
				}
				return []tensor.Shape{out}, nil
			},
		},
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
		Name: name,
		Rel: func(_ []Type, attrs Attrs) (Type, error) {
			dims := attrs.Ints("shape")
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			outDims := make([]Dim, len(dims))
			for i, d := range dims {
				outDims[i] = StaticDim(d)
			}
			return &TensorType{Dims: outDims, DType: dt}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(_ []tensor.Shape, _ []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error) {
				return []tensor.Shape{tensor.Shape(attrs.Ints("shape")).Clone()}, nil
			},
		},
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
