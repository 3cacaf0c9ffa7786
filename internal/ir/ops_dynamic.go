package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// This file registers the operators with data-dependent and upper-bound
// shape functions that §4.2 singles out, plus the explicit-allocation and
// device dialect operators the memory-planning (§4.3) and device-placement
// (§4.4) passes introduce.

func init() {
	// arange(start, stop, step): output extent is a function of the input
	// *values* — the paper's flagship data-dependent shape function.
	RegisterOp(&Op{
		Name: "arange",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			for i, a := range args {
				tt, ok := a.(*TensorType)
				if !ok || tt.Rank() != 0 {
					return nil, fmt.Errorf("ir: arange arg %d must be a scalar", i)
				}
			}
			return &TensorType{Dims: []Dim{AnyDim()}, DType: tensor.Float32}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataDependent,
			Fn: func(_ []tensor.Shape, inVals []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				if len(inVals) != 3 || inVals[0] == nil {
					return nil, fmt.Errorf("ir: arange shape function requires input values")
				}
				n := kernels.ArangeLen(inVals[0].F32()[0], inVals[1].F32()[0], inVals[2].F32()[0])
				return []tensor.Shape{{n}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Arange(args[0].F32()[0], args[1].F32()[0], args[2].F32()[0]), nil
		},
		Pattern:   PatternOpaque, // data-dependent: never fused (§4.2 policy)
		NumInputs: 3,
	})

	// unique(x): output extent depends on the distinct values of x.
	RegisterOp(&Op{
		Name: "unique",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok || tt.Rank() != 1 {
				return nil, fmt.Errorf("ir: unique requires a rank-1 tensor")
			}
			return &TensorType{Dims: []Dim{AnyDim()}, DType: tt.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataDependent,
			Fn: func(_ []tensor.Shape, inVals []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				if len(inVals) != 1 || inVals[0] == nil {
					return nil, fmt.Errorf("ir: unique shape function requires input values")
				}
				u := kernels.Unique(inVals[0])
				return []tensor.Shape{u.Shape().Clone()}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Unique(args[0]), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})

	// nms(boxes): computing the true output size is as expensive as the
	// operator itself, so the registered shape function returns the upper
	// bound (the input box count) and the kernel reports the precise shape
	// with its output (§4.2).
	RegisterOp(&Op{
		Name: "nms",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok || tt.Rank() != 2 {
				return nil, fmt.Errorf("ir: nms requires [n, 5] boxes")
			}
			return &TensorType{Dims: []Dim{AnyDim(), StaticDim(5)}, DType: tt.DType}, nil
		},
		Shape: ShapeFunc{
			Mode: ShapeUpperBound,
			Fn: func(inShapes []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				// Upper bound: every box survives.
				return []tensor.Shape{inShapes[0].Clone()}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			res := kernels.NMS(args[0], float32(attrs.Float("iou_threshold", 0.5)))
			return kernels.SliceNMS(res), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}

// Names of the dialect operators introduced by compilation passes. They are
// registered like ordinary ops so the printer, type checker, and pass
// machinery treat them uniformly, but their execution is special-cased by
// the bytecode compiler, which lowers each to a dedicated VM instruction.
const (
	OpAllocStorage    = "memory.alloc_storage"
	OpAllocTensor     = "memory.alloc_tensor"
	OpAllocTensorReg  = "memory.alloc_tensor_reg"
	OpInvokeMut       = "memory.invoke_mut"
	OpKill            = "memory.kill"
	OpShapeOf         = "vm.shape_of"
	OpInvokeShapeFunc = "vm.shape_func"
	OpDeviceCopy      = "device_copy"
	OpReshapeTensor   = "vm.reshape_tensor"
)

func init() {
	// alloc_storage(size, alignment, device) -> Storage
	RegisterOp(&Op{
		Name: OpAllocStorage,
		Rel: func(_ []Type, _ Attrs) (Type, error) {
			return &StorageType{}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 0,
	})
	// alloc_tensor(storage) {offset, shape, dtype} -> Tensor with static shape
	RegisterOp(&Op{
		Name: OpAllocTensor,
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("ir: alloc_tensor requires (storage)")
			}
			if _, ok := args[0].(*StorageType); !ok {
				return nil, fmt.Errorf("ir: alloc_tensor requires a storage, got %s", args[0])
			}
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			dims := attrs.Ints("shape")
			outDims := make([]Dim, len(dims))
			for i, d := range dims {
				outDims[i] = StaticDim(d)
			}
			return &TensorType{Dims: outDims, DType: dt}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	// alloc_tensor_reg(storage, shape) -> Tensor with runtime shape
	RegisterOp(&Op{
		Name: OpAllocTensorReg,
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("ir: alloc_tensor_reg requires (storage, shape)")
			}
			dt, err := tensor.ParseDType(attrs.String("dtype", "float32"))
			if err != nil {
				return nil, err
			}
			rank := attrs.Int("rank", 1)
			dims := make([]Dim, rank)
			for i := range dims {
				dims[i] = AnyDim()
			}
			return &TensorType{Dims: dims, DType: dt}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})
	// invoke_mut(op-args..., outputs...) executes a kernel with explicit
	// destination buffers; "op" and arity live in attrs.
	RegisterOp(&Op{
		Name: OpInvokeMut,
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			nOut := attrs.Int("num_outputs", 1)
			if nOut < 1 || nOut > len(args) {
				return nil, fmt.Errorf("ir: invoke_mut num_outputs %d out of range", nOut)
			}
			if nOut == 1 {
				return args[len(args)-1], nil
			}
			fields := make([]Type, nOut)
			copy(fields, args[len(args)-nOut:])
			return &TupleType{Fields: fields}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: -1,
	})
	// kill(tensor) frees a buffer before scope exit (§4.3).
	RegisterOp(&Op{
		Name: OpKill,
		Rel: func(args []Type, _ Attrs) (Type, error) {
			return &TupleType{}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	// shape_of(tensor) -> rank-1 int64 shape tensor; always CPU-placed.
	RegisterOp(&Op{
		Name:  OpShapeOf,
		Rel:   ruleRel(OpShapeOf, shapeOfDims, fixedDType(tensor.Int64)),
		Shape: ShapeFunc{Dims: shapeOfDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return tensor.ShapeTensor(args[0].Shape()), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	// shape_func(op-shape-inputs...) runs a registered shape function; the
	// target op name lives in attrs["op"]. Output is a tuple of shape
	// tensors (one per operator output).
	RegisterOp(&Op{
		Name: OpInvokeShapeFunc,
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			return &TensorType{Dims: []Dim{AnyDim()}, DType: tensor.Int64}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: -1,
	})
	// device_copy(x) {src, dst} transfers a tensor across device domains.
	RegisterOp(&Op{
		Name: OpDeviceCopy,
		Rel: func(args []Type, _ Attrs) (Type, error) {
			return args[0], nil
		},
		Shape:     ShapeFunc{Dims: sameDims},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
	// vm.reshape_tensor(x, shape) gives x a runtime-computed shape without
	// moving data — the ReshapeTensor instruction.
	RegisterOp(&Op{
		Name: OpReshapeTensor,
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			tt, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: reshape_tensor requires a tensor type")
			}
			rank := attrs.Int("rank", 1)
			dims := make([]Dim, rank)
			for i := range dims {
				dims[i] = AnyDim()
			}
			return &TensorType{Dims: dims, DType: tt.DType}, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})
}

// shapeOfDims is vm.shape_of's rule: one extent per input dim.
func shapeOfDims(in [][]Dim, _ Attrs) ([]Dim, error) { return []Dim{StaticDim(len(in[0]))}, nil }
