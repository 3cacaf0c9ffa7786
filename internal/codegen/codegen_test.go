package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

func TestOptionsNormalize(t *testing.T) {
	o, err := Options{}.Normalize()
	if err != nil || o.Dispatch != kernels.TileFactor {
		t.Errorf("default dispatch = %d, %v", o.Dispatch, err)
	}
	for _, k := range []int{1, 2, 4, 8} {
		if _, err := (Options{Dispatch: k}).Normalize(); err != nil {
			t.Errorf("dispatch %d rejected: %v", k, err)
		}
	}
	if _, err := (Options{Dispatch: 3}).Normalize(); err == nil {
		t.Error("dispatch 3 accepted")
	}
}

func TestGenericKernelCopiesIntoPlannedBuffer(t *testing.T) {
	op := ir.MustGetOp("add")
	k, err := ForOp(op, nil, ir.TT(tensor.Float32, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "add" {
		t.Errorf("name = %q", k.Name)
	}
	a := tensor.FromF32([]float32{1, 2}, 2)
	b := tensor.FromF32([]float32{3, 4}, 2)
	out := tensor.New(tensor.Float32, 2)
	res, err := k.Fn([]*tensor.Tensor{a, b}, out)
	if err != nil {
		t.Fatal(err)
	}
	if res != out {
		t.Error("result not placed in planned buffer")
	}
	if !out.Equal(tensor.FromF32([]float32{4, 6}, 2)) {
		t.Errorf("add = %v", out.F32())
	}
	// nil out: kernel allocates.
	res, err = k.Fn([]*tensor.Tensor{a, b}, nil)
	if err != nil || res == nil {
		t.Fatalf("nil-out path: %v", err)
	}
}

// TestPackedKernelZeroAllocWithPlannedBuffer pins the memory plan's payoff at
// the dispatch-convention level, for every operator with a destination
// form: a generated kernel handed a planned destination of the right dtype
// and shape writes that buffer and returns it, bit-equal to the allocating
// (nil destination) run, with zero heap allocations — no result tensor, no
// copy. This is what turns §4.3's compile-time memory planning into a
// runtime win.
func TestPackedKernelZeroAllocWithPlannedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pos := func(shape ...int) *tensor.Tensor { // in [0.5, 1.5): sqrt and power stay finite
		x := tensor.Random(rng, 0.5, shape...)
		for i, v := range x.F32() {
			x.F32()[i] = v + 1
		}
		return x
	}
	a, b, w := pos(13, 24), pos(13, 24), pos(24, 16)
	img, filt := pos(1, 2, 6, 6), pos(3, 2, 3, 3)
	cache, kc, vc := pos(8, 24), pos(8, 24), pos(8, 24)
	f32 := func(shape ...int) *tensor.Tensor { return tensor.New(tensor.Float32, shape...) }
	type row struct {
		name  string
		attrs ir.Attrs
		args  []*tensor.Tensor
		out   *tensor.Tensor
	}
	var cases []row
	for _, name := range []string{"add", "subtract", "multiply", "divide", "maximum", "minimum", "power"} {
		cases = append(cases, row{name, nil, []*tensor.Tensor{a, b}, f32(13, 24)})
	}
	for _, name := range []string{"negative", "exp", "sqrt", "sigmoid", "tanh", "relu", "gelu", "softmax"} {
		cases = append(cases, row{name, nil, []*tensor.Tensor{a}, f32(13, 24)})
	}
	cases = append(cases, []row{
		{"dense", nil, []*tensor.Tensor{a, w}, f32(13, 16)},
		{"dense_packed", ir.Attrs{"units": 16}, []*tensor.Tensor{a, kernels.PackB(w)}, f32(13, 16)},
		{"bias_add", nil, []*tensor.Tensor{a, pos(24)}, f32(13, 24)},
		{"layer_norm", nil, []*tensor.Tensor{a, pos(24), pos(24)}, f32(13, 24)},
		{"sum", nil, []*tensor.Tensor{a}, f32(13)},
		{"mean", ir.Attrs{"axis": 0}, []*tensor.Tensor{a}, f32(24)},
		{"max", ir.Attrs{"keepdims": true}, []*tensor.Tensor{a}, f32(13, 1)},
		{"argmax", nil, []*tensor.Tensor{a}, tensor.New(tensor.Int64, 13)},
		{"conv2d", nil, []*tensor.Tensor{img, filt}, f32(1, 3, 4, 4)},
		{"max_pool2d", nil, []*tensor.Tensor{img}, f32(1, 2, 3, 3)},
		{"avg_pool2d", nil, []*tensor.Tensor{img}, f32(1, 2, 3, 3)},
		{"global_avg_pool2d", nil, []*tensor.Tensor{img}, f32(1, 2)},
		{"concat", nil, []*tensor.Tensor{a, b}, f32(26, 24)},
		{"strided_slice", ir.Attrs{"begin": 2, "end": 7}, []*tensor.Tensor{a}, f32(5, 24)},
		{"state_zeros", ir.Attrs{"shape": []int{4, 8}}, nil, f32(4, 8)},
		{"cache_append", nil, []*tensor.Tensor{cache, pos(24), tensor.ScalarI64(3)}, f32(8, 24)},
		{"attn_cached", ir.Attrs{"heads": 2}, []*tensor.Tensor{pos(1, 24), kc, vc, tensor.ScalarI64(5)}, f32(1, 24)},
		{"take", nil, []*tensor.Tensor{a, tensor.FromI64([]int64{3, 0, 12}, 3)}, f32(3, 24)},
		{ir.OpStreamEmit, nil, []*tensor.Tensor{tensor.FromI64([]int64{5}, 1)}, tensor.New(tensor.Int64, 1)},
		{"index_inc", nil, []*tensor.Tensor{tensor.FromI64([]int64{3, 9}, 2)}, tensor.New(tensor.Int64, 2)},
	}...)
	for _, c := range cases {
		k, err := ForOp(ir.MustGetOp(c.name), c.attrs, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := k.Fn(c.args, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.out.Fill(7) // a stale plan: every element must be written
		got, err := k.Fn(c.args, c.out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.out {
			t.Errorf("%s: result is not the planned buffer", c.name)
		}
		if !got.Equal(want) {
			t.Errorf("%s: planned result differs from the allocating run", c.name)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := k.Fn(c.args, c.out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("packed %s: %v allocs/op with planned buffer, want 0", c.name, n)
		}
	}
}

func TestGenericKernelUpperBoundReturnsPrecise(t *testing.T) {
	op := ir.MustGetOp("nms")
	k, err := ForOp(op, ir.Attrs{"iou_threshold": 0.5}, ir.TT(tensor.Float32, ir.DimAny, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	boxes := tensor.FromF32([]float32{
		0.9, 0, 0, 10, 10,
		0.8, 1, 1, 11, 11,
	}, 2, 5)
	// Planned upper-bound buffer is 2 rows; precise output is 1 row.
	out := tensor.New(tensor.Float32, 2, 5)
	res, err := k.Fn([]*tensor.Tensor{boxes}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shape().Equal(tensor.Shape{1, 5}) {
		t.Errorf("precise shape = %v", res.Shape())
	}
}

func TestKernelNamesEncodeAttrs(t *testing.T) {
	op := ir.MustGetOp("sum")
	k1, _ := ForOp(op, ir.Attrs{"axis": 0}, ir.TT(tensor.Float32, 2), Options{})
	k2, _ := ForOp(op, ir.Attrs{"axis": 1}, ir.TT(tensor.Float32, 2), Options{})
	if k1.Name == k2.Name {
		t.Errorf("distinct attrs share kernel name %q", k1.Name)
	}
}

func TestSymbolicDenseKernelSelected(t *testing.T) {
	op := ir.MustGetOp("dense")
	k, err := ForOp(op, nil, ir.TT(tensor.Float32, ir.DimAny, 16), Options{Dispatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.Name, "dense_sym_dispatch4") {
		t.Errorf("name = %q", k.Name)
	}
	// Static dense stays generic.
	ks, err := ForOp(op, nil, ir.TT(tensor.Float32, 3, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ks.Name, "sym") {
		t.Errorf("static dense got symbolic kernel %q", ks.Name)
	}
}

func TestDispatchTableCorrectAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kDim, n := 12, 10
	for _, width := range []int{8, 4, 2, 1} {
		table := BuildDispatchTable(width)
		if table.Width != width {
			t.Errorf("width = %d", table.Width)
		}
		for m := 1; m <= 2*kernels.TileFactor+3; m++ {
			a := tensor.Random(rng, 1, m, kDim)
			b := tensor.Random(rng, 1, kDim, n)
			want := kernels.MatMulRef(a, b)
			out := tensor.New(tensor.Float32, m, n)
			table.For(m).MatMul(a, b, out)
			if !out.AllClose(want, 1e-4, 1e-5) {
				t.Errorf("width=%d m=%d: dispatch result wrong", width, m)
			}
		}
	}
}

func TestSymbolicDenseViaPackedFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	op := ir.MustGetOp("dense")
	for _, disp := range []int{8, 1} {
		k, err := ForOp(op, nil, ir.TT(tensor.Float32, ir.DimAny, 8), Options{Dispatch: disp})
		if err != nil {
			t.Fatal(err)
		}
		a := tensor.Random(rng, 1, 13, 8)
		b := tensor.Random(rng, 1, 8, 6)
		out := tensor.New(tensor.Float32, 13, 6)
		res, err := k.Fn([]*tensor.Tensor{a, b}, out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllClose(kernels.MatMulRef(a, b), 1e-4, 1e-5) {
			t.Errorf("dispatch=%d symbolic dense wrong", disp)
		}
	}
}

// TestSymbolicDensePackedViaPackedFunc runs dense_packed's dispatch kernel
// over a compile-time packed B at every dispatch width, with a planned
// output and with none: it equals the row-major dense kernel bit for bit.
func TestSymbolicDensePackedViaPackedFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	op := ir.MustGetOp("dense_packed")
	a, b := tensor.Random(rng, 1, 13, 8), tensor.Random(rng, 1, 8, 20)
	want := kernels.MatMulInto(a, b, nil)
	for _, disp := range []int{8, 4, 2, 1} {
		k, err := ForOp(op, ir.Attrs{"units": 20}, ir.TT(tensor.Float32, ir.DimAny, 20), Options{Dispatch: disp})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("dense_packed_sym_dispatch%d{units=20}", disp); k.Name != want {
			t.Errorf("name = %q, want %q", k.Name, want)
		}
		for _, out := range []*tensor.Tensor{tensor.New(tensor.Float32, 13, 20), nil} {
			res, err := k.Fn([]*tensor.Tensor{a, kernels.PackB(b)}, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equal(want) {
				t.Errorf("dispatch=%d planned=%v: packed symbolic dense differs from dense", disp, out != nil)
			}
		}
	}
}

func TestShapeFuncKernelDataIndependent(t *testing.T) {
	op := ir.MustGetOp("concat")
	k, err := ForShapeFunc(op, ir.Attrs{"axis": 0})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(k.Name, "shape:concat") {
		t.Errorf("name = %q", k.Name)
	}
	// Inputs are shape tensors.
	s1 := tensor.ShapeTensor(tensor.Shape{3, 2})
	s2 := tensor.ShapeTensor(tensor.Shape{1, 2})
	res, err := k.Fn([]*tensor.Tensor{s1, s2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := res.ToShape()
	if err != nil || !shape.Equal(tensor.Shape{4, 2}) {
		t.Errorf("concat shape func = %v, %v", shape, err)
	}
	// The non-axis dims must agree at run time too: the residual of the
	// check the relation defers while a dim is Any.
	if _, err := k.Fn([]*tensor.Tensor{s1, tensor.ShapeTensor(tensor.Shape{1, 3})}, nil); err == nil {
		t.Error("concat shape func accepted a non-axis mismatch")
	}
}

// TestShapeFuncKernelAllocs holds the per-call allocations of the shape
// kernels BERT runs most (about 145 calls per request) at or below what
// they cost when each operator had a hand-written shape function.
func TestShapeFuncKernelAllocs(t *testing.T) {
	sh := func(dims ...int) *tensor.Tensor { return tensor.ShapeTensor(dims) }
	for _, c := range []struct {
		op    string
		attrs ir.Attrs
		args  []*tensor.Tensor
		limit float64
	}{
		{"dense", nil, []*tensor.Tensor{sh(13, 24), sh(24, 16)}, 8},
		{"concat", ir.Attrs{"axis": 0}, []*tensor.Tensor{sh(13, 24), sh(1, 24)}, 8},
		{"add", nil, []*tensor.Tensor{sh(13, 24), sh(24)}, 8},
		{"strided_slice", ir.Attrs{"begin": 1, "end": 13}, []*tensor.Tensor{sh(14, 24)}, 7},
	} {
		k, err := ForShapeFunc(ir.MustGetOp(c.op), c.attrs)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := k.Fn(c.args, nil); err != nil {
				t.Fatal(err)
			}
		}); n > c.limit {
			t.Errorf("shape:%s: %v allocs/op, want at most %v", c.op, n, c.limit)
		}
	}
}

func TestShapeFuncKernelDataDependent(t *testing.T) {
	op := ir.MustGetOp("arange")
	k, err := ForShapeFunc(op, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs are the operator's values themselves.
	res, err := k.Fn([]*tensor.Tensor{tensor.Scalar(0), tensor.Scalar(6), tensor.Scalar(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := res.ToShape()
	if err != nil || !shape.Equal(tensor.Shape{3}) {
		t.Errorf("arange shape func = %v, %v", shape, err)
	}
}

func TestShapeFuncKernelMissing(t *testing.T) {
	op := &ir.Op{Name: "noshape"}
	if _, err := ForShapeFunc(op, nil); err == nil {
		t.Error("missing shape function accepted")
	}
}
