package kernels

import (
	"math/rand"
	"testing"

	"nimble/internal/tensor"
)

// The destination-passing contract that makes memory planning pay (§4.3):
// when the caller hands a hot-path kernel a planned output buffer of the
// right dtype and shape, the kernel performs zero heap allocations. These
// tests are the regression fence — a future change that quietly reintroduces
// a per-invocation allocation (a materialized shape, an alloc+copy fallback)
// fails here immediately.

func fill(t *tensor.Tensor, v float64) *tensor.Tensor { t.Fill(v); return t }

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op with a planned destination, want 0", name, n)
	}
}

func TestDenseKernelsZeroAlloc(t *testing.T) {
	a := fill(tensor.New(tensor.Float32, 13, 32), 0.5) // odd rows: exercises the residue epilogue
	b := fill(tensor.New(tensor.Float32, 32, 24), 0.25)
	p := PackB(b)
	out := tensor.New(tensor.Float32, 13, 24)
	assertZeroAllocs(t, "MatMulInto", func() { MatMulInto(a, b, out) })
	assertZeroAllocs(t, "Static.MatMul", func() { Static.MatMul(a, b, out) })
	assertZeroAllocs(t, "Static.Packed", func() { Static.Packed(a, p, out) })
	assertZeroAllocs(t, "DensePackedInto", func() { DensePackedInto(a, p, 24, out) })
	// 29x256x1024 is above shardFLOPs: its column ranges go to the pool.
	// The row-major B is packed per call into pooled scratch.
	x := fill(tensor.New(tensor.Float32, 29, 256), 0.5)
	w := fill(tensor.New(tensor.Float32, 256, 1024), 0.25)
	pw := PackB(w)
	wide := tensor.New(tensor.Float32, 29, 1024)
	assertZeroAllocs(t, "Static.MatMul/sharded", func() { Static.MatMul(x, w, wide) })
	assertZeroAllocs(t, "Static.Packed/sharded", func() { Static.Packed(x, pw, wide) })
	// One row over the Tree-LSTM's 300x600 leaf weight: the one-row tile's
	// four-panel groups, a whole panel and a masked tail.
	row := fill(tensor.New(tensor.Float32, 1, 300), 0.5)
	leaf := PackB(fill(tensor.New(tensor.Float32, 300, 600), 0.25))
	rowOut := tensor.New(tensor.Float32, 1, 600)
	assertZeroAllocs(t, "Static.Packed/one-row", func() { Static.Packed(row, leaf, rowOut) })
}

func TestElementwiseKernelsZeroAlloc(t *testing.T) {
	x := fill(tensor.New(tensor.Float32, 4, 64), 0.5)
	y := fill(tensor.New(tensor.Float32, 4, 64), 2)
	bias := fill(tensor.New(tensor.Float32, 64), 1)
	scalar := fill(tensor.New(tensor.Float32, 1), 3)
	out := tensor.New(tensor.Float32, 4, 64)
	assertZeroAllocs(t, "AddInto/same-shape", func() { AddInto(x, y, out) })
	assertZeroAllocs(t, "AddInto/bias", func() { AddInto(x, bias, out) })
	assertZeroAllocs(t, "MulInto/scalar", func() { MulInto(x, scalar, out) })
	assertZeroAllocs(t, "SigmoidInto", func() { SigmoidInto(x, out) })
	assertZeroAllocs(t, "TanhInto", func() { TanhInto(x, out) })
	assertZeroAllocs(t, "ReluInto", func() { ReluInto(x, out) })
	assertZeroAllocs(t, "GeluInto", func() { GeluInto(x, out) })
}

func TestReduceKernelsZeroAlloc(t *testing.T) {
	x := fill(tensor.New(tensor.Float32, 8, 32), 0.5)
	gamma := fill(tensor.New(tensor.Float32, 32), 1)
	beta := tensor.New(tensor.Float32, 32)
	rowOut := tensor.New(tensor.Float32, 8)
	keepOut := tensor.New(tensor.Float32, 8, 1)
	fullOut := tensor.New(tensor.Float32, 8, 32)
	assertZeroAllocs(t, "SumInto", func() { SumInto(x, rowOut, -1, false) })
	assertZeroAllocs(t, "SumInto/keepdims", func() { SumInto(x, keepOut, -1, true) })
	assertZeroAllocs(t, "MeanInto", func() { MeanInto(x, rowOut, -1, false) })
	assertZeroAllocs(t, "MaxInto", func() { MaxInto(x, rowOut, -1, false) })
	argOut := tensor.New(tensor.Int64, 8)
	assertZeroAllocs(t, "ArgMaxInto", func() { ArgMaxInto(x, argOut, -1) })
	assertZeroAllocs(t, "SoftmaxInto", func() { SoftmaxInto(x, fullOut) })
	assertZeroAllocs(t, "LayerNormInto", func() { LayerNormInto(x, gamma, beta, fullOut, 1e-5) })
}

func TestConvKernelsZeroAlloc(t *testing.T) {
	in := fill(tensor.New(tensor.Float32, 1, 2, 8, 8), 0.5)
	w := fill(tensor.New(tensor.Float32, 3, 2, 3, 3), 0.25)
	convOut := tensor.New(tensor.Float32, 1, 3, 8, 8) // stride 1, pad 1 preserves 8x8
	assertZeroAllocs(t, "Conv2DInto", func() { Conv2DInto(in, w, convOut, 1, 1) })
	poolOut := tensor.New(tensor.Float32, 1, 2, 4, 4)
	assertZeroAllocs(t, "MaxPool2DInto", func() { MaxPool2DInto(in, poolOut, 2, 2) })
	gOut := tensor.New(tensor.Float32, 1, 2)
	assertZeroAllocs(t, "GlobalAvgPool2DInto", func() { GlobalAvgPool2DInto(in, gOut) })
	sOut := tensor.New(tensor.Float32, 1, 2, 8, 4)
	assertZeroAllocs(t, "SliceInto", func() { SliceInto(in, sOut, 3, 0, 4) })
}

// Above parallelThreshold the element-wise loops shard onto the worker
// pool; the results must be identical to the serial path. This is also the
// test that puts the pool-sharded kernels under `go test -race`.
func TestParallelElementwiseMatchesSerial(t *testing.T) {
	n := 2 * parallelThreshold
	a := tensor.New(tensor.Float32, n)
	b := tensor.New(tensor.Float32, n)
	for i := 0; i < n; i++ {
		a.F32()[i] = float32(i%13) * 0.5
		b.F32()[i] = float32(i % 7)
	}
	scalar := fill(tensor.New(tensor.Float32, 1), 0.25)
	bias := fill(tensor.New(tensor.Float32, n), 1) // rank-1 bias over a [2, n] matrix
	mat := tensor.New(tensor.Float32, 2, n)
	copy(mat.F32()[:n], a.F32())
	copy(mat.F32()[n:], b.F32())
	out := tensor.New(tensor.Float32, n)
	check := func(name string, got *tensor.Tensor, want func(i int) float32) {
		t.Helper()
		for j := 0; j < n; j++ {
			if got.F32()[j] != want(j) {
				t.Fatalf("%s: parallel result diverges at %d", name, j)
			}
		}
	}
	check("add", AddInto(a, b, out), func(i int) float32 { return a.F32()[i] + b.F32()[i] })
	check("mul-scalar", MulInto(a, scalar, out), func(i int) float32 { return a.F32()[i] * 0.25 })
	check("neg", NegInto(a, out), func(i int) float32 { return -a.F32()[i] })
	biased := AddInto(mat, bias, tensor.New(tensor.Float32, 2, n))
	for j := 0; j < 2*n; j++ {
		if biased.F32()[j] != mat.F32()[j]+1 {
			t.Fatalf("parallel bias diverges at %d", j)
		}
	}
}

// Zero-width shapes are legal empty dynamic results (e.g. a slice with
// begin == end); the bias fast path must not divide by the zero-sized last
// dimension.
func TestBinaryOpEmptyTensors(t *testing.T) {
	a := tensor.New(tensor.Float32, 3, 0)
	b := tensor.New(tensor.Float32, 0)
	got := AddInto(a, b, nil)
	if !got.Shape().Equal(tensor.Shape{3, 0}) || got.NumElements() != 0 {
		t.Errorf("empty add produced %v", got.Shape())
	}
	out := tensor.New(tensor.Float32, 3, 0)
	if got := AddInto(a, b, out); got != out {
		t.Error("empty AddInto ignored a matching destination")
	}
}

// Into kernels must still be correct when the destination does not match:
// they fall back to allocation and return the precise result.
func TestIntoKernelsFallbackOnMismatch(t *testing.T) {
	a := fill(tensor.New(tensor.Float32, 4, 8), 1)
	b := fill(tensor.New(tensor.Float32, 4, 8), 2)
	wrong := tensor.New(tensor.Float32, 3, 3)
	got := AddInto(a, b, wrong)
	if got == wrong {
		t.Fatal("AddInto wrote a mismatched destination")
	}
	if !got.Shape().Equal(tensor.Shape{4, 8}) || got.F32()[0] != 3 {
		t.Errorf("AddInto fallback produced %v", got)
	}
	if got := MatMulInto(a, tensor.New(tensor.Float32, 8, 2), wrong); got == wrong || !got.Shape().Equal(tensor.Shape{4, 2}) {
		t.Errorf("MatMulInto fallback produced %v", got.Shape())
	}
}

// Into kernels must agree with their allocating counterparts.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := tensor.Random(rng, 1, 7, 33)
	b := tensor.Random(rng, 1, 7, 33)
	bias := tensor.Random(rng, 1, 33)
	cases := []struct {
		name string
		ref  func() *tensor.Tensor
		into func(out *tensor.Tensor) *tensor.Tensor
	}{
		{"add", func() *tensor.Tensor { return AddInto(a, b, nil) }, func(o *tensor.Tensor) *tensor.Tensor { return AddInto(a, b, o) }},
		{"bias", func() *tensor.Tensor { return AddInto(a, bias, nil) }, func(o *tensor.Tensor) *tensor.Tensor { return AddInto(a, bias, o) }},
		{"tanh", func() *tensor.Tensor { return TanhInto(a, nil) }, func(o *tensor.Tensor) *tensor.Tensor { return TanhInto(a, o) }},
		{"softmax", func() *tensor.Tensor { return SoftmaxInto(a, nil) }, func(o *tensor.Tensor) *tensor.Tensor { return SoftmaxInto(a, o) }},
		{"sum", func() *tensor.Tensor { return SumInto(a, nil, -1, false) }, func(o *tensor.Tensor) *tensor.Tensor { return SumInto(a, o, -1, false) }},
	}
	for _, c := range cases {
		want := c.ref()
		out := tensor.New(tensor.Float32, want.Shape()...)
		got := c.into(out)
		if got != out {
			t.Errorf("%s: Into ignored a matching destination", c.name)
		}
		if !got.AllClose(want, 1e-6, 1e-6) {
			t.Errorf("%s: Into result diverges from allocating kernel", c.name)
		}
	}
}
