// Package codegen turns IR operators into executable kernels (PackedFuncs).
// It is the reproduction's stand-in for TVM's per-platform code generator:
// "generation" here means selecting and specializing Go loop nests per
// operator, shape class and residue, which preserves the loop-structure
// questions §4.5 studies — boundary-check elimination and residue dispatch.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// DispatchPolicy chooses how many symbolic kernels a dynamic dense operator
// compiles into (Figure 3's dispatch/k axis).
type DispatchPolicy int

const (
	// DispatchFull generates one kernel per residue (k = tile factor): the
	// best-performing configuration, matching static codegen.
	DispatchFull DispatchPolicy = kernels.TileFactor
	// DispatchNone generates a single guarded symbolic kernel.
	DispatchNone DispatchPolicy = 1
)

// Options configures kernel generation.
type Options struct {
	// Dispatch is the number of symbolic kernels per dynamic dense op
	// (8, 4, 2, or 1). Zero defaults to DispatchFull.
	Dispatch int
}

// Normalize fills defaults and validates the dispatch width.
func (o Options) Normalize() (Options, error) {
	if o.Dispatch == 0 {
		o.Dispatch = int(DispatchFull)
	}
	switch o.Dispatch {
	case 1, 2, 4, 8:
	default:
		return o, fmt.Errorf("codegen: dispatch width %d must divide the tile factor %d", o.Dispatch, kernels.TileFactor)
	}
	return o, nil
}

// Kernel is a generated kernel with its stable name (used for executable
// serialization and profiling).
type Kernel struct {
	Name string
	Fn   vm.PackedFunc
}

// ForOp generates the kernel for one operator invocation. outType is the
// checked output type; a dynamic first dimension on a dense op triggers
// symbolic codegen with residue dispatch over opts.Dispatch kernels, so
// opts must come from Options.Normalize.
func ForOp(op *ir.Op, attrs ir.Attrs, outType *ir.TensorType, opts Options) (Kernel, error) {
	if (op.Name == "dense" || op.Name == "dense_packed") && outType != nil && outType.Rank() == 2 && outType.Dims[0].IsAny() {
		return symbolicDense(op.Name, attrs, opts), nil
	}
	return genericKernel(op, attrs), nil
}

// ForShapeFunc generates the kernel that evaluates an operator's shape
// function at runtime. Shape functions are "realized as fragments of
// [the] tensor expression language" (§4.3); here they become packed
// functions like any other kernel, dispatched by InvokePacked and placed on
// the CPU by §4.4's rules. A data-independent operator's kernel reads the
// ShapeOf tensors of its inputs into its dims rule, so its errors are the
// checks the type relation deferred.
func ForShapeFunc(op *ir.Op, attrs ir.Attrs) (Kernel, error) {
	name := "shape:" + op.Name + attrsSuffix(attrs)
	if rule := op.Shape.Dims; rule != nil {
		packed := func(args []*tensor.Tensor, _ *tensor.Tensor) (*tensor.Tensor, error) {
			in, err := staticDims(args)
			if err != nil {
				return nil, fmt.Errorf("codegen: shape func %s: %w", op.Name, err)
			}
			dims, err := rule(in, attrs)
			if err != nil {
				return nil, err
			}
			out := make([]int64, len(dims))
			for i, d := range dims {
				if d.IsAny() {
					return nil, fmt.Errorf("codegen: shape func %s left dim %d unknown", op.Name, i)
				}
				out[i] = int64(d.Value)
			}
			return tensor.FromI64(out, len(out)), nil
		}
		return Kernel{Name: name, Fn: packed}, nil
	}
	if op.Shape.Fn == nil {
		return Kernel{}, fmt.Errorf("codegen: operator %s has no shape function", op.Name)
	}
	mode := op.Shape.Mode
	fn := op.Shape.Fn
	packed := func(args []*tensor.Tensor, _ *tensor.Tensor) (*tensor.Tensor, error) {
		var shapes []tensor.Shape
		var vals []*tensor.Tensor
		if mode == ir.ShapeDataDependent {
			// Arguments are the operator's input values.
			vals = args
			shapes = make([]tensor.Shape, len(args))
			for i, a := range args {
				shapes[i] = a.Shape()
			}
		} else {
			// Arguments are shape tensors produced by ShapeOf.
			shapes = make([]tensor.Shape, len(args))
			for i, a := range args {
				s, err := a.ToShape()
				if err != nil {
					return nil, fmt.Errorf("codegen: shape func %s input %d: %w", op.Name, i, err)
				}
				shapes[i] = s
			}
		}
		out, err := fn(shapes, vals, attrs)
		if err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, fmt.Errorf("codegen: shape func %s produced %d outputs", op.Name, len(out))
		}
		return tensor.ShapeTensor(out[0]), nil
	}
	return Kernel{Name: name, Fn: packed}, nil
}

// staticDims reads ShapeOf's rank-1 int64 tensors into one dims list per
// input, all carved from one backing array.
func staticDims(args []*tensor.Tensor) ([][]ir.Dim, error) {
	n := 0
	for i, a := range args {
		if a.Rank() != 1 || a.DType() != tensor.Int64 {
			return nil, fmt.Errorf("input %d is not a rank-1 int64 shape tensor", i)
		}
		n += a.NumElements()
	}
	flat, in := make([]ir.Dim, n), make([][]ir.Dim, len(args))
	for i, a := range args {
		in[i], flat = flat[:a.NumElements():a.NumElements()], flat[a.NumElements():]
		for j, v := range a.I64() {
			if v < 0 {
				return nil, fmt.Errorf("input %d has negative extent %d", i, v)
			}
			in[i][j] = ir.StaticDim(int(v))
		}
	}
	return in, nil
}

// genericKernel wraps an operator in the destination-passing packed
// convention. The operator's Eval receives the planned buffer; one with a
// destination form writes it directly — the fast path that makes §4.3
// memory planning pay: no per-op allocation and no result copy. A result
// that is not the planned buffer but has its dtype and shape is copied in:
// an operator without a destination form allocates, and reshape returns a
// view of its argument, whose storage coalescing may give to a later
// buffer while the view is still read. Upper-bound operators, whose precise result is
// smaller than the planned upper bound, return their precisely shaped
// tensor directly (§4.2: "use the real shape to slice the output tensors
// into precise output shape").
func genericKernel(op *ir.Op, attrs ir.Attrs) Kernel {
	eval := op.Eval
	packed := func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		res, err := eval(args, attrs, out)
		if err != nil {
			return nil, err
		}
		if out == nil || res == out || !res.Shape().Equal(out.Shape()) || res.DType() != out.DType() {
			return res, nil
		}
		tensor.CopyElems(out, 0, res, 0, out.NumElements())
		return out, nil
	}
	return Kernel{Name: op.Name + attrsSuffix(attrs), Fn: packed}
}

// symbolicDense builds the dispatch kernel of §4.5 for a dense operator
// whose row count is symbolic: k generated kernels, each covering
// TileFactor/k residues, selected at runtime by the actual shape ("we
// automatically generate a dispatch function that invokes the corresponding
// kernel based on the residue"). A dense_packed reads its compile-time
// panels; a dense packs its run-time B per call.
func symbolicDense(opName string, attrs ir.Attrs, opts Options) Kernel {
	table := BuildDispatchTable(opts.Dispatch)
	units, run := attrs.Int("units", -1), kernels.Variant.MatMul
	if units >= 0 {
		run = kernels.Variant.Packed
	}
	packed := func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("codegen: %s expects 2 inputs, got %d", opName, len(args))
		}
		if out == nil {
			n := args[1].Shape()[1]
			if units >= 0 {
				n = units
			}
			out = tensor.New(tensor.Float32, args[0].Shape()[0], n)
		}
		run(table.For(args[0].Shape()[0]), args[0], args[1], out)
		return out, nil
	}
	return Kernel{Name: fmt.Sprintf("%s_sym_dispatch%d%s", opName, opts.Dispatch, attrsSuffix(attrs)), Fn: packed}
}

// DispatchTable maps residues to generated kernel variants; Figure 3's
// experiment sweeps its width.
type DispatchTable struct {
	// Width is the number of generated kernels.
	Width int
	// variants[r] handles residue r.
	variants [kernels.TileFactor]kernels.Variant
}

// BuildDispatchTable generates width symbolic kernels covering the
// TileFactor residues:
//
//	width=8: one fully specialized kernel per residue (epilogue unrolled)
//	width=4,2: each kernel covers TileFactor/width residues; the epilogue
//	           keeps per-row guards for the uncertain remainder
//	width=1: a single kernel with guards throughout (naive symbolic codegen)
func BuildDispatchTable(width int) *DispatchTable {
	t := &DispatchTable{Width: width}
	span := kernels.TileFactor / width
	for r := range t.variants {
		lo := r / span * span
		switch width {
		case kernels.TileFactor:
			t.variants[r] = kernels.SymbolicFull(r)
		case 1:
			t.variants[r] = kernels.SymbolicNaive
		default:
			t.variants[r] = kernels.SymbolicPartial(lo, lo+span-1)
		}
	}
	return t
}

// For returns the variant that takes m rows: the one for m's residue, the
// dispatch on the runtime value of the symbolic dimension.
func (t *DispatchTable) For(m int) kernels.Variant { return t.variants[m%kernels.TileFactor] }

// attrsSuffix renders attrs deterministically into a kernel name so kernels
// with different static parameters get distinct identities.
func attrsSuffix(attrs ir.Attrs) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(attrs))
	for _, k := range attrs.Keys() {
		if strings.HasPrefix(k, "__") {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}
