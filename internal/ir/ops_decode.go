package ir

import (
	"fmt"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// Operator names used by the compiler and runtime for streaming decode.
const (
	// OpStreamEmit is the identity operator the VM intercepts during
	// streaming invocations: when a sink is attached, every value passing
	// through it is also delivered (as a deep copy) to the sink.
	OpStreamEmit = "stream.emit"
)

// The autoregressive-decode operator family: a mutable state buffer
// (state_zeros), the in-place KV-cache append (cache_append), single-query
// attention over the cached prefix (attn_cached), deterministic sampling
// (sample_token), the loop-counter helpers (index_inc / index_lt), and the
// streaming tap (stream.emit). state_zeros is deliberately distinct from
// `zeros`: constant folding evaluates zeros into a shared ir.Constant, which
// must never happen to a buffer that cache_append mutates in place.
func init() {
	RegisterOp(zerosOp("state_zeros"))

	RegisterOp(&Op{
		Name: "cache_append",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			cache, ok1 := args[0].(*TensorType)
			row, ok2 := args[1].(*TensorType)
			idx, ok3 := args[2].(*TensorType)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("ir: cache_append requires tensor args")
			}
			if cache.DType != row.DType {
				return nil, fmt.Errorf("ir: cache_append dtype mismatch: %s vs %s", cache, row)
			}
			if idx.DType != tensor.Int64 {
				return nil, fmt.Errorf("ir: cache_append position must be int64, got %s", idx)
			}
			if cache.Rank() == 0 {
				return nil, fmt.Errorf("ir: cache_append cache must be at least rank 1")
			}
			return cache, nil
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.CacheAppendInto(args[0], args[1], args[2], out)
		},
		Pattern:   PatternOpaque,
		NumInputs: 3,
		InPlace:   true,
	})

	RegisterOp(&Op{
		Name: "attn_cached",
		Rel: func(args []Type, attrs Attrs) (Type, error) {
			q, ok := args[0].(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: attn_cached requires a tensor query")
			}
			if q.DType != tensor.Float32 {
				return nil, fmt.Errorf("ir: attn_cached requires float32, got %s", q)
			}
			heads := attrs.Int("heads", 1)
			if heads <= 0 {
				return nil, fmt.Errorf("ir: attn_cached requires positive heads, got %d", heads)
			}
			return q, nil
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AttnCachedInto(args[0], args[1], args[2], args[3], attrs.Int("heads", 1), out)
		},
		Pattern:   PatternOpaque,
		NumInputs: 4,
	})

	RegisterOp(&Op{
		Name: "sample_token",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			if _, ok := args[0].(*TensorType); !ok {
				return nil, fmt.Errorf("ir: sample_token requires tensor logits")
			}
			return TT(tensor.Int64, 1), nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(_ []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				return []tensor.Shape{{1}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.SampleToken(args[0], args[1], attrs.Float("temp", 0), int64(attrs.Int("seed", 0)))
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})

	// index_inc / index_lt are the loop-counter primitives of compiled
	// decode loops; the generic element-wise family is float32-only.
	RegisterOp(&Op{
		Name: "index_inc",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			t, ok := args[0].(*TensorType)
			if !ok || t.DType != tensor.Int64 {
				return nil, fmt.Errorf("ir: index_inc requires an int64 tensor, got %s", args[0])
			}
			return t, nil
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			in := args[0]
			if !sameLayout(in, out) {
				out = tensor.New(tensor.Int64, in.Shape()...)
			}
			ov := out.I64()
			for i, x := range in.I64() {
				ov[i] = x + 1
			}
			return out, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})

	RegisterOp(&Op{
		Name: "index_lt",
		Rel: func(args []Type, _ Attrs) (Type, error) {
			a, ok1 := args[0].(*TensorType)
			b, ok2 := args[1].(*TensorType)
			if !ok1 || !ok2 || a.DType != tensor.Int64 || b.DType != tensor.Int64 {
				return nil, fmt.Errorf("ir: index_lt requires int64 tensors")
			}
			return TT(tensor.Bool), nil
		},
		Shape: ShapeFunc{
			Mode: ShapeDataIndependent,
			Fn: func(_ []tensor.Shape, _ []*tensor.Tensor, _ Attrs) ([]tensor.Shape, error) {
				return []tensor.Shape{{}}, nil
			},
		},
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return tensor.ScalarBool(args[0].I64()[0] < args[1].I64()[0]), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name: OpStreamEmit,
		Rel: func(args []Type, _ Attrs) (Type, error) {
			if _, ok := args[0].(*TensorType); !ok {
				return nil, fmt.Errorf("ir: stream.emit requires a tensor")
			}
			return args[0], nil
		},
		Shape: identityShapeFunc,
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			in := args[0]
			if !sameLayout(in, out) {
				return in.Clone(), nil
			}
			switch in.DType() {
			case tensor.Float32:
				copy(out.F32(), in.F32())
			case tensor.Float64:
				copy(out.F64(), in.F64())
			case tensor.Int32:
				copy(out.I32(), in.I32())
			case tensor.Int64:
				copy(out.I64(), in.I64())
			case tensor.Bool:
				copy(out.Bools(), in.Bools())
			}
			return out, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}

// sameLayout reports whether out is a destination of in's dtype and shape.
// The element-wise writes of index_inc and stream.emit stay correct even
// when out shares in's storage.
func sameLayout(in, out *tensor.Tensor) bool {
	return out != nil && out.DType() == in.DType() && out.Shape().Equal(in.Shape())
}
