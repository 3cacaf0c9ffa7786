package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nimble/internal/tensor"
)

func TestAddBroadcast(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromF32([]float32{10, 20, 30}, 3)
	got := AddInto(a, b, nil)
	want := tensor.FromF32([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !got.Equal(want) {
		t.Errorf("Add = %v", got.F32())
	}
	// Column broadcast: (2,1) + (2,3)
	col := tensor.FromF32([]float32{100, 200}, 2, 1)
	got = AddInto(col, a, nil)
	want = tensor.FromF32([]float32{101, 102, 103, 204, 205, 206}, 2, 3)
	if !got.Equal(want) {
		t.Errorf("Add col = %v", got.F32())
	}
	// Scalar broadcast.
	got = AddInto(a, tensor.Scalar(1), nil)
	want = tensor.FromF32([]float32{2, 3, 4, 5, 6, 7}, 2, 3)
	if !got.Equal(want) {
		t.Errorf("Add scalar = %v", got.F32())
	}
	got = AddInto(tensor.Scalar(1), a, nil)
	if !got.Equal(want) {
		t.Errorf("scalar Add = %v", got.F32())
	}
	// The paper's broadcast_rel example: (Any,) against (5, 1) -> (5, Any).
	anyT := tensor.FromF32([]float32{1, 2, 3}, 3)
	fives := tensor.FromF32([]float32{10, 20, 30, 40, 50}, 5, 1)
	got = AddInto(fives, anyT, nil)
	if !got.Shape().Equal(tensor.Shape{5, 3}) {
		t.Errorf("broadcast shape = %v", got.Shape())
	}
	if got.At(4, 2) != 53 {
		t.Errorf("broadcast value = %v", got.At(4, 2))
	}
}

func TestBinaryOps(t *testing.T) {
	a := tensor.FromF32([]float32{4, 9}, 2)
	b := tensor.FromF32([]float32{2, 3}, 2)
	if got := SubInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{2, 6}, 2)) {
		t.Errorf("Sub = %v", got.F32())
	}
	if got := MulInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{8, 27}, 2)) {
		t.Errorf("Mul = %v", got.F32())
	}
	if got := DivInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{2, 3}, 2)) {
		t.Errorf("Div = %v", got.F32())
	}
	if got := MaximumInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{4, 9}, 2)) {
		t.Errorf("Maximum = %v", got.F32())
	}
	if got := MinimumInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{2, 3}, 2)) {
		t.Errorf("Minimum = %v", got.F32())
	}
	if got := PowerInto(a, b, nil); !got.Equal(tensor.FromF32([]float32{16, 729}, 2)) {
		t.Errorf("Power = %v", got.F32())
	}
	assertPanics(t, "bad broadcast", func() {
		AddInto(tensor.New(tensor.Float32, 3), tensor.New(tensor.Float32, 4), nil)
	})
	assertPanics(t, "dtype", func() {
		AddInto(tensor.New(tensor.Int64, 3), tensor.New(tensor.Float32, 3), nil)
	})
}

func TestUnaryOps(t *testing.T) {
	x := tensor.FromF32([]float32{-1, 0, 1}, 3)
	if got := NegInto(x, nil); !got.Equal(tensor.FromF32([]float32{1, 0, -1}, 3)) {
		t.Errorf("Neg = %v", got.F32())
	}
	if got := ReluInto(x, nil); !got.Equal(tensor.FromF32([]float32{0, 0, 1}, 3)) {
		t.Errorf("Relu = %v", got.F32())
	}
	sig := SigmoidInto(x, nil)
	if math.Abs(float64(sig.F32()[1])-0.5) > 1e-6 {
		t.Errorf("Sigmoid(0) = %v", sig.F32()[1])
	}
	th := TanhInto(x, nil)
	if math.Abs(float64(th.F32()[2])-math.Tanh(1)) > 1e-6 {
		t.Errorf("Tanh(1) = %v", th.F32()[2])
	}
	e := ExpInto(tensor.FromF32([]float32{0, 1}, 2), nil)
	if math.Abs(float64(e.F32()[1])-math.E) > 1e-5 {
		t.Errorf("Exp(1) = %v", e.F32()[1])
	}
	s := SqrtInto(tensor.FromF32([]float32{4, 9}, 2), nil)
	if !s.Equal(tensor.FromF32([]float32{2, 3}, 2)) {
		t.Errorf("Sqrt = %v", s.F32())
	}
	g := GeluInto(tensor.FromF32([]float32{0, 100}, 2), nil)
	if g.F32()[0] != 0 {
		t.Errorf("Gelu(0) = %v", g.F32()[0])
	}
	if math.Abs(float64(g.F32()[1])-100) > 1e-3 {
		t.Errorf("Gelu(100) = %v (should approach identity)", g.F32()[1])
	}
}

func TestCompareAndCast(t *testing.T) {
	a := tensor.FromF32([]float32{1, 5}, 2)
	b := tensor.FromF32([]float32{3, 3}, 2)
	if got := Greater(a, b); !got.Equal(tensor.FromBool([]bool{false, true}, 2)) {
		t.Errorf("Greater = %v", got.Bools())
	}
	if got := Less(a, b); !got.Equal(tensor.FromBool([]bool{true, false}, 2)) {
		t.Errorf("Less = %v", got.Bools())
	}
	if got := EqualOp(a, tensor.FromF32([]float32{1, 3}, 2)); !got.Equal(tensor.FromBool([]bool{true, false}, 2)) {
		t.Errorf("EqualOp = %v", got.Bools())
	}
	c := Cast(a, tensor.Int64)
	if !c.Equal(tensor.FromI64([]int64{1, 5}, 2)) {
		t.Errorf("Cast = %v", c.I64())
	}
}

func TestReduceOps(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := SumInto(a, nil, 1, false); !got.Equal(tensor.FromF32([]float32{6, 15}, 2)) {
		t.Errorf("Sum axis=1 = %v", got.F32())
	}
	if got := SumInto(a, nil, 0, false); !got.Equal(tensor.FromF32([]float32{5, 7, 9}, 3)) {
		t.Errorf("Sum axis=0 = %v", got.F32())
	}
	if got := SumInto(a, nil, -1, true); !got.Shape().Equal(tensor.Shape{2, 1}) {
		t.Errorf("Sum keepdims shape = %v", got.Shape())
	}
	if got := MeanInto(a, nil, 1, false); !got.Equal(tensor.FromF32([]float32{2, 5}, 2)) {
		t.Errorf("Mean = %v", got.F32())
	}
	if got := MaxInto(a, nil, 0, false); !got.Equal(tensor.FromF32([]float32{4, 5, 6}, 3)) {
		t.Errorf("Max = %v", got.F32())
	}
	am := ArgMaxInto(tensor.FromF32([]float32{1, 9, 2, 8, 3, 7}, 2, 3), nil, 1)
	if !am.Equal(tensor.FromI64([]int64{1, 0}, 2)) {
		t.Errorf("ArgMax = %v", am.I64())
	}
	assertPanics(t, "axis range", func() { SumInto(a, nil, 2, false) })
}

func TestSoftmax(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 1, 1, 1}, 2, 3)
	s := SoftmaxInto(a, nil)
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			sum += s.At(r, c)
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
	if math.Abs(s.At(1, 0)-1.0/3) > 1e-6 {
		t.Errorf("uniform row = %v", s.At(1, 0))
	}
	if s.At(0, 0) >= s.At(0, 2) {
		t.Error("softmax not monotone")
	}
	// Stability: large values must not overflow.
	big := SoftmaxInto(tensor.FromF32([]float32{1000, 1000}, 2), nil)
	if math.IsNaN(big.At(0)) || math.Abs(big.At(0)-0.5) > 1e-6 {
		t.Errorf("softmax unstable: %v", big.F32())
	}
}

func TestLayerNorm(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)
	gamma := tensor.FromF32([]float32{1, 1}, 2)
	beta := tensor.FromF32([]float32{0, 0}, 2)
	out := LayerNormInto(a, gamma, beta, nil, 1e-5)
	// Each row has mean 0 and unit variance after normalization.
	for r := 0; r < 2; r++ {
		if math.Abs(out.At(r, 0)+out.At(r, 1)) > 1e-4 {
			t.Errorf("row %d mean != 0", r)
		}
	}
	// Gamma/beta transform.
	out = LayerNormInto(a, tensor.FromF32([]float32{2, 2}, 2), tensor.FromF32([]float32{5, 5}, 2), nil, 1e-5)
	if math.Abs((out.At(0, 0)+out.At(0, 1))/2-5) > 1e-4 {
		t.Errorf("beta shift broken: %v", out.F32())
	}
	assertPanics(t, "param shape", func() { LayerNormInto(a, tensor.New(tensor.Float32, 3), beta, nil, 1e-5) })
}

func TestConcat(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2}, 1, 2)
	b := tensor.FromF32([]float32{3, 4, 5, 6}, 2, 2)
	got := ConcatInto([]*tensor.Tensor{a, b}, nil, 0)
	want := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	if !got.Equal(want) {
		t.Errorf("Concat axis 0 = %v", got.F32())
	}
	// Axis 1.
	c := tensor.FromF32([]float32{7, 8}, 2, 1)
	got = ConcatInto([]*tensor.Tensor{b, c}, nil, 1)
	want = tensor.FromF32([]float32{3, 4, 7, 5, 6, 8}, 2, 3)
	if !got.Equal(want) {
		t.Errorf("Concat axis 1 = %v", got.F32())
	}
	assertPanics(t, "empty", func() { ConcatInto(nil, nil, 0) })
	assertPanics(t, "mismatch", func() {
		ConcatInto([]*tensor.Tensor{a, tensor.New(tensor.Float32, 2, 3)}, nil, 0)
	})
}

func TestSplitSliceInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := tensor.Random(rng, 1, 4, 6)
	parts := make([]*tensor.Tensor, 3)
	for p := range parts {
		parts[p] = SliceInto(a, nil, 1, 2*p, 2*p+2)
	}
	back := ConcatInto(parts, nil, 1)
	if !back.Equal(a) {
		t.Error("concat of the column slices != x")
	}
	s := SliceInto(a, nil, 0, 1, 3)
	if !s.Shape().Equal(tensor.Shape{2, 6}) {
		t.Errorf("Slice shape = %v", s.Shape())
	}
	if s.At(0, 0) != a.At(1, 0) {
		t.Error("Slice content wrong")
	}
	assertPanics(t, "slice range", func() { SliceInto(a, nil, 0, 3, 10) })
}

func TestTake(t *testing.T) {
	table := tensor.FromF32([]float32{0, 0, 1, 1, 2, 2}, 3, 2)
	idx := tensor.FromI64([]int64{2, 0}, 2)
	got := TakeInto(table, idx, nil)
	want := tensor.FromF32([]float32{2, 2, 0, 0}, 2, 2)
	if !got.Equal(want) {
		t.Errorf("Take = %v", got.F32())
	}
	// int32 indices and higher-rank index tensors.
	idx32 := tensor.FromI32([]int32{1, 1, 0, 2}, 2, 2)
	got = TakeInto(table, idx32, nil)
	if !got.Shape().Equal(tensor.Shape{2, 2, 2}) {
		t.Errorf("Take rank-2 idx shape = %v", got.Shape())
	}
	assertPanics(t, "oob", func() { TakeInto(table, tensor.FromI64([]int64{3}, 1), nil) })
	assertPanics(t, "float idx", func() { TakeInto(table, tensor.New(tensor.Float32, 1), nil) })
}

func TestTranspose(t *testing.T) {
	a := tensor.FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(a, nil)
	want := tensor.FromF32([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Errorf("Transpose = %v", got.F32())
	}
	// Rank-3 permutation.
	b := tensor.FromF32([]float32{0, 1, 2, 3, 4, 5, 6, 7}, 2, 2, 2)
	got = Transpose(b, []int{1, 0, 2})
	if got.At(0, 1, 0) != b.At(1, 0, 0) {
		t.Error("rank-3 transpose wrong")
	}
	// Double transpose is identity.
	if !Transpose(got, []int{1, 0, 2}).Equal(b) {
		t.Error("transpose not involutive")
	}
	assertPanics(t, "perm", func() { Transpose(a, []int{0, 0}) })
}

func TestArange(t *testing.T) {
	got := Arange(0, 5, 1)
	if !got.Equal(tensor.FromF32([]float32{0, 1, 2, 3, 4}, 5)) {
		t.Errorf("Arange = %v", got.F32())
	}
	got = Arange(1, 0, -0.5)
	if !got.Equal(tensor.FromF32([]float32{1, 0.5}, 2)) {
		t.Errorf("Arange desc = %v", got.F32())
	}
	if Arange(3, 3, 1).NumElements() != 0 {
		t.Error("empty arange wrong")
	}
	if ArangeLen(0, 10, 3) != 4 {
		t.Errorf("ArangeLen = %d", ArangeLen(0, 10, 3))
	}
	assertPanics(t, "zero step", func() { Arange(0, 1, 0) })
}

func TestUnique(t *testing.T) {
	got := Unique(tensor.FromF32([]float32{3, 1, 3, 2, 1}, 5))
	if !got.Equal(tensor.FromF32([]float32{1, 2, 3}, 3)) {
		t.Errorf("Unique = %v", got.F32())
	}
	if Unique(tensor.New(tensor.Float32, 0)).NumElements() != 0 {
		t.Error("empty unique wrong")
	}
	// Property: output is sorted, deduplicated, and a subset of the input.
	f := func(vals []float32) bool {
		for i := range vals {
			if math.IsNaN(float64(vals[i])) {
				vals[i] = 0
			}
		}
		u := Unique(tensor.FromF32(append([]float32{}, vals...), len(vals)))
		uv := u.F32()
		in := map[float32]bool{}
		for _, v := range vals {
			in[v] = true
		}
		for i, v := range uv {
			if !in[v] {
				return false
			}
			if i > 0 && uv[i-1] >= v {
				return false
			}
		}
		return len(uv) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNMS(t *testing.T) {
	// Two heavily overlapping boxes and one distinct box.
	boxes := tensor.FromF32([]float32{
		0.9, 0, 0, 10, 10,
		0.8, 1, 1, 11, 11,
		0.7, 100, 100, 110, 110,
	}, 3, 5)
	res := NMS(boxes, 0.5)
	if res.Count != 2 {
		t.Fatalf("NMS count = %d, want 2", res.Count)
	}
	// Upper-bound allocation is the full input size.
	if !res.Boxes.Shape().Equal(tensor.Shape{3, 5}) {
		t.Errorf("upper-bound shape = %v", res.Boxes.Shape())
	}
	precise := SliceNMS(res)
	if !precise.Shape().Equal(tensor.Shape{2, 5}) {
		t.Errorf("precise shape = %v", precise.Shape())
	}
	if precise.F32()[0] != 0.9 || precise.F32()[5] != 0.7 {
		t.Errorf("selected scores = %v, %v", precise.F32()[0], precise.F32()[5])
	}
	// Low threshold suppresses nothing but itself overlapping.
	resAll := NMS(boxes, 0.99)
	if resAll.Count != 3 {
		t.Errorf("high-threshold count = %d", resAll.Count)
	}
}

func TestConv2D(t *testing.T) {
	// Identity kernel: 1x1 conv with weight 1 copies input.
	in := tensor.FromF32([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := tensor.FromF32([]float32{1}, 1, 1, 1, 1)
	got := Conv2DInto(in, w, nil, 1, 0)
	if !got.Shape().Equal(in.Shape()) {
		t.Errorf("identity conv shape = %v", got.Shape())
	}
	for i, v := range got.F32() {
		if v != in.F32()[i] {
			t.Errorf("identity conv[%d] = %v", i, v)
		}
	}
	// 2x2 sum kernel, stride 1, no padding -> single output 1+2+3+4.
	w = tensor.FromF32([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	got = Conv2DInto(in, w, nil, 1, 0)
	if got.NumElements() != 1 || got.F32()[0] != 10 {
		t.Errorf("sum conv = %v", got.F32())
	}
	// Padding grows output.
	got = Conv2DInto(in, w, nil, 1, 1)
	if !got.Shape().Equal(tensor.Shape{1, 1, 3, 3}) {
		t.Errorf("padded conv shape = %v", got.Shape())
	}
	oh, ow := Conv2DOutDims(224, 224, 7, 7, 2, 3)
	if oh != 112 || ow != 112 {
		t.Errorf("ResNet stem dims = %d, %d", oh, ow)
	}
	assertPanics(t, "channels", func() {
		Conv2DInto(in, tensor.New(tensor.Float32, 1, 2, 1, 1), nil, 1, 0)
	})
}

func TestPooling(t *testing.T) {
	in := tensor.FromF32([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	mp := MaxPool2DInto(in, nil, 2, 2)
	if mp.NumElements() != 1 || mp.F32()[0] != 4 {
		t.Errorf("MaxPool = %v", mp.F32())
	}
	ap := AvgPool2DInto(in, nil, 2, 2)
	if ap.F32()[0] != 2.5 {
		t.Errorf("AvgPool = %v", ap.F32())
	}
	g := GlobalAvgPool2DInto(in, nil)
	if !g.Shape().Equal(tensor.Shape{1, 1}) || g.F32()[0] != 2.5 {
		t.Errorf("GlobalAvgPool = %v %v", g.Shape(), g.F32())
	}
}
