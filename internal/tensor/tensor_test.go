package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDTypeSizeAndString(t *testing.T) {
	cases := []struct {
		dt   DType
		size int
		name string
	}{
		{Float32, 4, "float32"},
		{Float64, 8, "float64"},
		{Int32, 4, "int32"},
		{Int64, 8, "int64"},
		{Bool, 1, "bool"},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.dt, c.dt.Size(), c.size)
		}
		if c.dt.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.dt, c.dt.String(), c.name)
		}
		back, err := ParseDType(c.name)
		if err != nil || back != c.dt {
			t.Errorf("ParseDType(%q) = %v, %v", c.name, back, err)
		}
	}
	if _, err := ParseDType("complex128"); err == nil {
		t.Error("ParseDType accepted unknown dtype")
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.NumElements() != 24 {
		t.Errorf("NumElements = %d, want 24", s.NumElements())
	}
	if s.Rank() != 3 {
		t.Errorf("Rank = %d", s.Rank())
	}
	if got := s.String(); got != "(2, 3, 4)" {
		t.Errorf("String = %q", got)
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Equal misbehaves")
	}
	st := s.Strides()
	want := []int{12, 4, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Errorf("Strides = %v, want %v", st, want)
		}
	}
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Error("Clone aliases original")
	}
	var scalar Shape
	if scalar.NumElements() != 1 {
		t.Errorf("scalar NumElements = %d, want 1", scalar.NumElements())
	}
	zero := Shape{3, 0, 2}
	if zero.NumElements() != 0 {
		t.Errorf("zero-dim NumElements = %d, want 0", zero.NumElements())
	}
	if (Shape{-1, 2}).Valid() {
		t.Error("negative shape reported valid")
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want Shape
		ok         bool
	}{
		{Shape{5, 1}, Shape{3}, Shape{5, 3}, true},
		{Shape{2, 3}, Shape{2, 3}, Shape{2, 3}, true},
		{Shape{1}, Shape{7, 4}, Shape{7, 4}, true},
		{Shape{}, Shape{2, 2}, Shape{2, 2}, true},
		{Shape{4, 1, 6}, Shape{5, 1}, Shape{4, 5, 6}, true},
		{Shape{3}, Shape{4}, nil, false},
		{Shape{2, 3}, Shape{3, 3}, nil, false},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.ok {
			if err != nil {
				t.Errorf("BroadcastShapes(%v, %v) error: %v", c.a, c.b, err)
				continue
			}
			if !got.Equal(c.want) {
				t.Errorf("BroadcastShapes(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
		} else if err == nil {
			t.Errorf("BroadcastShapes(%v, %v) = %v, want error", c.a, c.b, got)
		}
	}
}

func TestBroadcastCommutative(t *testing.T) {
	// Property: broadcasting is commutative where defined.
	f := func(dims []uint8) bool {
		if len(dims) == 0 {
			return true
		}
		a := make(Shape, 0)
		b := make(Shape, 0)
		for i, d := range dims {
			v := int(d%3) + 1 // dims in 1..3 so broadcasts often succeed
			if i%2 == 0 {
				a = append(a, v)
			} else {
				b = append(b, v)
			}
		}
		r1, e1 := BroadcastShapes(a, b)
		r2, e2 := BroadcastShapes(b, a)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true
		}
		return r1.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewAndAccessors(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Int32, Int64, Bool} {
		tt := New(dt, 2, 3)
		if tt.DType() != dt || tt.NumElements() != 6 || tt.Rank() != 2 {
			t.Errorf("New(%v) metadata wrong", dt)
		}
		if tt.NumBytes() != 6*dt.Size() {
			t.Errorf("NumBytes(%v) = %d", dt, tt.NumBytes())
		}
		tt.SetAt(1, 1, 2)
		if tt.At(1, 2) != 1 {
			t.Errorf("At after SetAt (%v) = %v", dt, tt.At(1, 2))
		}
		if tt.At(0, 0) != 0 {
			t.Errorf("zero init broken for %v", dt)
		}
	}
}

func TestAccessorPanicsOnWrongDType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("F32 on int64 tensor did not panic")
		}
	}()
	New(Int64, 2).F32()
}

func TestFromConstructorsValidateLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromF32 with mismatched length did not panic")
		}
	}()
	FromF32([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.F32()[0] = 99
	if a.F32()[0] != 1 {
		t.Error("Clone shares storage")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestReshape(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Shape().Equal(Shape{3, 2}) {
		t.Errorf("shape = %v", b.Shape())
	}
	// Storage is shared: reshape must not copy.
	b.F32()[0] = 42
	if a.F32()[0] != 42 {
		t.Error("Reshape copied storage")
	}
	c, err := a.Reshape(-1, 2)
	if err != nil || !c.Shape().Equal(Shape{3, 2}) {
		t.Errorf("Reshape(-1, 2) = %v, %v", c.Shape(), err)
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Error("incompatible reshape accepted")
	}
	if _, err := a.Reshape(-1, -1); err == nil {
		t.Error("double -1 reshape accepted")
	}
	if _, err := a.Reshape(-1, 4); err == nil {
		t.Error("non-divisible -1 reshape accepted")
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromF32([]float32{1, 2}, 2)
	b := FromF32([]float32{1, 2.00001}, 2)
	if a.Equal(b) {
		t.Error("Equal ignored difference")
	}
	if !a.AllClose(b, 1e-5, 1e-5) {
		t.Error("AllClose too strict")
	}
	if a.AllClose(FromF32([]float32{1, 3}, 2), 1e-5, 1e-5) {
		t.Error("AllClose too lax")
	}
	if a.Equal(FromF32([]float32{1, 2}, 1, 2)) {
		t.Error("Equal ignored shape")
	}
	if a.Equal(FromF64([]float64{1, 2}, 2)) {
		t.Error("Equal ignored dtype")
	}
	nan := FromF32([]float32{float32(math.NaN())}, 1)
	if !nan.AllClose(nan.Clone(), 0, 0) {
		t.Error("AllClose should treat matching NaNs as close")
	}
	if nan.AllClose(FromF32([]float32{0}, 1), 0, 0) {
		t.Error("AllClose NaN vs 0 should differ")
	}
}

func TestFillAndRandom(t *testing.T) {
	a := New(Int64, 4)
	a.Fill(7)
	for _, v := range a.I64() {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	rng := rand.New(rand.NewSource(1))
	r := Random(rng, 0.5, 3, 3)
	for _, v := range r.F32() {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("Random out of range: %v", v)
		}
	}
	ri := RandomInts(rng, 10, 5)
	for _, v := range ri.I64() {
		if v < 0 || v >= 10 {
			t.Fatalf("RandomInts out of range: %v", v)
		}
	}
}

func TestShapeTensorRoundTrip(t *testing.T) {
	s := Shape{4, 1, 7}
	st := ShapeTensor(s)
	back, err := st.ToShape()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Errorf("round trip = %v", back)
	}
	if _, err := New(Float32, 3).ToShape(); err == nil {
		t.Error("float shape tensor accepted")
	}
	if _, err := New(Int64, 2, 2).ToShape(); err == nil {
		t.Error("rank-2 shape tensor accepted")
	}
	if _, err := FromI64([]int64{-1}, 1).ToShape(); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tensors := []*Tensor{
		Random(rng, 1, 4, 5),
		RandomInts(rng, 1000, 7),
		FromBool([]bool{true, false, true}, 3),
		FromF64([]float64{math.Pi, -math.E}, 2),
		FromI32([]int32{-5, 0, 5}, 3),
		Scalar(3.5),
		New(Float32, 0), // zero-element tensor
	}
	for _, orig := range tensors {
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo(%v): %v", orig, err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("ReadFrom(%v): %v", orig, err)
		}
		if !got.Equal(orig) {
			t.Errorf("round trip mismatch for %v", orig)
		}
	}
}

func TestSerializePropertyRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		tt := FromF32(append([]float32{}, vals...), len(vals))
		var buf bytes.Buffer
		if _, err := tt.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		// NaNs round-trip bit-exactly because encoding uses Float32bits.
		for i := range vals {
			if math.Float32bits(got.F32()[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return got.Shape().Equal(Shape{len(vals)})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeserializeCorruptInput(t *testing.T) {
	bad := [][]byte{
		{},
		{99, 0, 0, 0, 0},         // bad dtype
		{0, 255, 255, 255, 255},  // implausible rank
		{0, 1, 0, 0, 0},          // truncated dims
		{0, 0, 0, 0, 0, 9, 9, 9}, // truncated count
	}
	for i, b := range bad {
		if _, err := ReadFrom(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Count/shape mismatch.
	var buf bytes.Buffer
	tt := FromF32([]float32{1, 2}, 2)
	if _, err := tt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5+8] = 7 // overwrite element count
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Error("count mismatch accepted")
	}
}

// TestReadFromAllocationBounded bounds the bytes one read of a 300×608
// float32 tensor allocates (730 KB of payload, the Tree-LSTM leaf weight's
// packed size): the payload is read in chunks and decoded straight into the
// tensor's storage, so a read costs at most 2.5× the payload. Reading the
// whole payload into a growing buffer and decoding it into a second one
// cost 6.7×.
func TestReadFromAllocationBounded(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Random(rand.New(rand.NewSource(3)), 1, 300, 608).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	payload := uint64(300 * 608 * 4)
	const reads = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, err := ReadFrom(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per*2 > payload*5 {
		t.Errorf("one read allocated %d bytes, %.2f× the %d-byte payload; want at most 2.5×", per, float64(per)/float64(payload), payload)
	}
}

func TestAtBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds At did not panic")
		}
	}()
	New(Float32, 2, 2).At(2, 0)
}

func TestAsF64(t *testing.T) {
	b := FromBool([]bool{true, false}, 2)
	got := b.AsF64()
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("AsF64(bool) = %v", got)
	}
	i := FromI64([]int64{-3, 9}, 2)
	got = i.AsF64()
	if got[0] != -3 || got[1] != 9 {
		t.Errorf("AsF64(int64) = %v", got)
	}
}

func TestStringFormat(t *testing.T) {
	tt := New(Float32, 2, 3)
	if got := tt.String(); got != "Tensor[(2, 3), float32]" {
		t.Errorf("String = %q", got)
	}
}
