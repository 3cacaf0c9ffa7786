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
		Rel: ruleRel("cache_append", cacheAppendDims, func(ts []*TensorType, _ Attrs) (tensor.DType, error) {
			if ts[0].DType != ts[1].DType {
				return 0, fmt.Errorf("ir: cache_append dtype mismatch: %s vs %s", ts[0], ts[1])
			}
			if ts[2].DType != tensor.Int64 {
				return 0, fmt.Errorf("ir: cache_append position must be int64, got %s", ts[2])
			}
			return ts[0].DType, nil
		}),
		Shape: ShapeFunc{Dims: cacheAppendDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.CacheAppendInto(args[0], args[1], args[2], out)
		},
		Pattern:   PatternOpaque,
		NumInputs: 3,
		InPlace:   true,
	})

	RegisterOp(&Op{
		Name: "attn_cached",
		Rel: ruleRel("attn_cached", attnCachedDims, func(ts []*TensorType, attrs Attrs) (tensor.DType, error) {
			if ts[0].DType != tensor.Float32 {
				return 0, fmt.Errorf("ir: attn_cached requires float32, got %s", ts[0])
			}
			if heads := attrs.Int("heads", 1); heads <= 0 {
				return 0, fmt.Errorf("ir: attn_cached requires positive heads, got %d", heads)
			}
			return tensor.Float32, nil
		}),
		Shape: ShapeFunc{Dims: attnCachedDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.AttnCachedInto(args[0], args[1], args[2], args[3], attrs.Int("heads", 1), out)
		},
		Pattern:   PatternOpaque,
		NumInputs: 4,
	})

	RegisterOp(&Op{
		Name:  "sample_token",
		Rel:   ruleRel("sample_token", sampleTokenDims, fixedDType(tensor.Int64)),
		Shape: ShapeFunc{Dims: sampleTokenDims},
		Eval: func(args []*tensor.Tensor, attrs Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.SampleToken(args[0], args[1], attrs.Float("temp", 0), int64(attrs.Int("seed", 0)))
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})

	// index_inc / index_lt are the loop-counter primitives of compiled
	// decode loops; the generic element-wise family is float32-only.
	RegisterOp(&Op{
		Name:  "index_inc",
		Rel:   ruleRel("index_inc", sameDims, int64Args(tensor.Int64)),
		Shape: ShapeFunc{Dims: sameDims},
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
		Name:  "index_lt",
		Rel:   ruleRel("index_lt", scalarDims, int64Args(tensor.Bool)),
		Shape: ShapeFunc{Dims: scalarDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return tensor.ScalarBool(args[0].I64()[0] < args[1].I64()[0]), nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 2,
	})

	RegisterOp(&Op{
		Name:  OpStreamEmit,
		Rel:   ruleRel(OpStreamEmit, sameDims, nil),
		Shape: ShapeFunc{Dims: sameDims},
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			in := args[0]
			if !sameLayout(in, out) {
				return in.Clone(), nil
			}
			tensor.CopyElems(out, 0, in, 0, in.NumElements())
			return out, nil
		},
		Pattern:   PatternOpaque,
		NumInputs: 1,
	})
}

// cacheAppendDims is cache_append(cache, row, pos)'s rule: the result is
// the cache, which has a non-empty leading axis, and the row has as many
// elements as a cache row where both counts are static.
func cacheAppendDims(in [][]Dim, _ Attrs) ([]Dim, error) {
	cache := in[0]
	if len(cache) == 0 || (!cache[0].IsAny() && cache[0].Value == 0) {
		return nil, fmt.Errorf("ir: cache_append cache must have a non-empty leading axis, got %v", cache)
	}
	width, wok := staticElems(cache[1:])
	row, rok := staticElems(in[1])
	if wok && rok && width != row {
		return nil, fmt.Errorf("ir: cache_append row has %d elements, cache rows have %d", row, width)
	}
	return cache, nil
}

// attnCachedDims is attn_cached(q, k, v, length)'s rule: the result is the
// query's shape; both caches are rank 2 with equal row counts, each row as
// wide as the query has elements, and the heads divide that width, as
// kernels.AttnCachedInto checks. Any dims are left to the kernel.
func attnCachedDims(in [][]Dim, attrs Attrs) ([]Dim, error) {
	k, v := in[1], in[2]
	if len(k) != 2 || len(v) != 2 {
		return nil, fmt.Errorf("ir: attn_cached caches must be rank 2, got %v and %v", k, v)
	}
	if !k[0].IsAny() && !v[0].IsAny() && k[0].Value != v[0].Value {
		return nil, fmt.Errorf("ir: attn_cached key cache has %d rows, value cache %d", k[0].Value, v[0].Value)
	}
	if d, ok := staticElems(in[0]); ok {
		for _, w := range []Dim{k[1], v[1]} {
			if !w.IsAny() && w.Value != d {
				return nil, fmt.Errorf("ir: attn_cached cache width %d differs from the query's %d elements", w.Value, d)
			}
		}
		if heads := attrs.Int("heads", 1); heads > 0 && d%heads != 0 {
			return nil, fmt.Errorf("ir: attn_cached width %d not divisible by %d heads", d, heads)
		}
	}
	return in[0], nil
}

// staticElems is the element count of dims, and whether every dim is
// static.
func staticElems(dims []Dim) (int, bool) {
	n := 1
	for _, d := range dims {
		if d.IsAny() {
			return 0, false
		}
		n *= d.Value
	}
	return n, true
}

// sampleTokenDims is sample_token's rule: one token id.
func sampleTokenDims([][]Dim, Attrs) ([]Dim, error) { return []Dim{StaticDim(1)}, nil }

// scalarDims is the rule of an operator with a scalar result.
func scalarDims([][]Dim, Attrs) ([]Dim, error) { return []Dim{}, nil }

// int64Args checks that every argument is int64 and names the result
// dtype of the loop-counter helpers.
func int64Args(result tensor.DType) func([]*TensorType, Attrs) (tensor.DType, error) {
	return func(ts []*TensorType, _ Attrs) (tensor.DType, error) {
		for _, t := range ts {
			if t.DType != tensor.Int64 {
				return 0, fmt.Errorf("ir: loop-counter operators require int64 tensors, got %s", t)
			}
		}
		return result, nil
	}
}

// sameLayout reports whether out is a destination of in's dtype and shape.
// The element-wise writes of index_inc and stream.emit stay correct even
// when out shares in's storage.
func sameLayout(in, out *tensor.Tensor) bool {
	return out != nil && out.DType() == in.DType() && out.Shape().Equal(in.Shape())
}
