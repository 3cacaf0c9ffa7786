package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, contiguous, row-major n-dimensional array. Exactly one
// of the typed backing slices is non-nil, selected by dtype. Tensors are the
// only bulk-data object the VM manipulates; instructions move references to
// them between registers, so copies are explicit (Clone) and cheap reference
// passing is the default, matching the paper's copy-on-write register file
// discussion (§5.2).
type Tensor struct {
	dtype DType
	shape Shape

	f32 []float32
	f64 []float64
	i32 []int32
	i64 []int64
	b   []bool
}

// New allocates a zero-filled tensor of the given dtype and shape.
func New(dt DType, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	t := &Tensor{dtype: dt, shape: s}
	n := s.NumElements()
	switch dt {
	case Float32:
		t.f32 = make([]float32, n)
	case Float64:
		t.f64 = make([]float64, n)
	case Int32:
		t.i32 = make([]int32, n)
	case Int64:
		t.i64 = make([]int64, n)
	case Bool:
		t.b = make([]bool, n)
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %v", dt))
	}
	return t
}

// FromF32 wraps data (not copied) as a float32 tensor with the given shape.
func FromF32(data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), s, s.NumElements()))
	}
	return &Tensor{dtype: Float32, shape: s, f32: data}
}

// FromF64 wraps data as a float64 tensor.
func FromF64(data []float64, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{dtype: Float64, shape: s, f64: data}
}

// FromI32 wraps data as an int32 tensor.
func FromI32(data []int32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{dtype: Int32, shape: s, i32: data}
}

// FromI64 wraps data as an int64 tensor.
func FromI64(data []int64, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{dtype: Int64, shape: s, i64: data}
}

// FromBool wraps data as a bool tensor.
func FromBool(data []bool, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Tensor{dtype: Bool, shape: s, b: data}
}

// Scalar creates a rank-0 float32 tensor holding v.
func Scalar(v float32) *Tensor { return FromF32([]float32{v}) }

// ScalarI64 creates a rank-0 int64 tensor holding v.
func ScalarI64(v int64) *Tensor { return FromI64([]int64{v}) }

// ScalarBool creates a rank-0 bool tensor holding v.
func ScalarBool(v bool) *Tensor { return FromBool([]bool{v}) }

// ShapeTensor converts a concrete Shape into a rank-1 int64 tensor, the
// runtime representation produced by the ShapeOf VM instruction (§4.4).
func ShapeTensor(s Shape) *Tensor {
	d := make([]int64, len(s))
	for i, v := range s {
		d[i] = int64(v)
	}
	return FromI64(d, len(s))
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return t.shape.NumElements() }

// NumBytes returns the size of the backing storage in bytes.
func (t *Tensor) NumBytes() int { return t.NumElements() * t.dtype.Size() }

// F32 returns the float32 backing slice, panicking on dtype mismatch. The
// accessor panics rather than returning an error because a mismatch here is
// always a compiler bug (the type checker guarantees dtypes before codegen).
func (t *Tensor) F32() []float32 {
	if t.dtype != Float32 {
		panic(fmt.Sprintf("tensor: F32 access on %v tensor", t.dtype))
	}
	return t.f32
}

// F64 returns the float64 backing slice.
func (t *Tensor) F64() []float64 {
	if t.dtype != Float64 {
		panic(fmt.Sprintf("tensor: F64 access on %v tensor", t.dtype))
	}
	return t.f64
}

// I32 returns the int32 backing slice.
func (t *Tensor) I32() []int32 {
	if t.dtype != Int32 {
		panic(fmt.Sprintf("tensor: I32 access on %v tensor", t.dtype))
	}
	return t.i32
}

// I64 returns the int64 backing slice.
func (t *Tensor) I64() []int64 {
	if t.dtype != Int64 {
		panic(fmt.Sprintf("tensor: I64 access on %v tensor", t.dtype))
	}
	return t.i64
}

// Bools returns the bool backing slice.
func (t *Tensor) Bools() []bool {
	if t.dtype != Bool {
		panic(fmt.Sprintf("tensor: Bools access on %v tensor", t.dtype))
	}
	return t.b
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dtype, t.shape...)
	CopyElems(c, 0, t, 0, t.NumElements())
	return c
}

// CopyElems copies the n elements of src from srcOff to dst from dstOff.
// dst and src must share a dtype. Copying a range onto itself, as an
// in-place write through an aliasing destination does, is a no-op.
func CopyElems(dst *Tensor, dstOff int, src *Tensor, srcOff, n int) {
	if dst.dtype != src.dtype {
		panic(fmt.Sprintf("tensor: copy of %v elements into a %v tensor", src.dtype, dst.dtype))
	}
	switch dst.dtype {
	case Float32:
		copyRange(dst.f32, dstOff, src.f32, srcOff, n)
	case Float64:
		copyRange(dst.f64, dstOff, src.f64, srcOff, n)
	case Int32:
		copyRange(dst.i32, dstOff, src.i32, srcOff, n)
	case Int64:
		copyRange(dst.i64, dstOff, src.i64, srcOff, n)
	case Bool:
		copyRange(dst.b, dstOff, src.b, srcOff, n)
	}
}

func copyRange[E any](dst []E, dstOff int, src []E, srcOff, n int) {
	d, s := dst[dstOff:dstOff+n], src[srcOff:srcOff+n]
	if n > 0 && &d[0] != &s[0] {
		copy(d, s)
	}
}

// Reshape returns a tensor sharing t's storage with a new shape holding the
// same number of elements. One dimension may be -1, in which case it is
// inferred. This backs the ReshapeTensor VM instruction, which "assigns a new
// shape to a tensor without altering its data" (Appendix A).
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	infer := -1
	known := 1
	for i, d := range s {
		if d == -1 {
			if infer >= 0 {
				return nil, fmt.Errorf("tensor: reshape with multiple -1 dims %v", s)
			}
			infer = i
		} else if d < 0 {
			return nil, fmt.Errorf("tensor: reshape with negative dim %v", s)
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.NumElements()%known != 0 {
			return nil, fmt.Errorf("tensor: cannot infer -1 in reshape %v from %v", s, t.shape)
		}
		s[infer] = t.NumElements() / known
	}
	if s.NumElements() != t.NumElements() {
		return nil, fmt.Errorf("tensor: reshape %v incompatible with %v", s, t.shape)
	}
	c := *t
	c.shape = s
	return &c, nil
}

// At returns the element at the multi-index as a float64 regardless of
// dtype. It is intended for tests and formatting, not for kernels.
func (t *Tensor) At(idx ...int) float64 {
	off := t.offset(idx)
	switch t.dtype {
	case Float32:
		return float64(t.f32[off])
	case Float64:
		return t.f64[off]
	case Int32:
		return float64(t.i32[off])
	case Int64:
		return float64(t.i64[off])
	case Bool:
		if t.b[off] {
			return 1
		}
		return 0
	}
	panic("unreachable")
}

// SetAt stores v (converted to the tensor's dtype) at the multi-index.
func (t *Tensor) SetAt(v float64, idx ...int) {
	off := t.offset(idx)
	switch t.dtype {
	case Float32:
		t.f32[off] = float32(v)
	case Float64:
		t.f64[off] = v
	case Int32:
		t.i32[off] = int32(v)
	case Int64:
		t.i64[off] = int64(v)
	case Bool:
		t.b[off] = v != 0
	}
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
	}
	return index(idx, t.shape.Strides())
}

// Equal reports exact element-wise equality including dtype and shape.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.dtype != o.dtype || !t.shape.Equal(o.shape) {
		return false
	}
	switch t.dtype {
	case Float32:
		for i := range t.f32 {
			if t.f32[i] != o.f32[i] {
				return false
			}
		}
	case Float64:
		for i := range t.f64 {
			if t.f64[i] != o.f64[i] {
				return false
			}
		}
	case Int32:
		for i := range t.i32 {
			if t.i32[i] != o.i32[i] {
				return false
			}
		}
	case Int64:
		for i := range t.i64 {
			if t.i64[i] != o.i64[i] {
				return false
			}
		}
	case Bool:
		for i := range t.b {
			if t.b[i] != o.b[i] {
				return false
			}
		}
	}
	return true
}

// AllClose reports element-wise approximate equality for float tensors with
// absolute tolerance atol and relative tolerance rtol. Non-float tensors fall
// back to exact equality.
func (t *Tensor) AllClose(o *Tensor, rtol, atol float64) bool {
	if !t.dtype.IsFloat() || !o.dtype.IsFloat() {
		return t.Equal(o)
	}
	if !t.shape.Equal(o.shape) {
		return false
	}
	n := t.NumElements()
	for i := 0; i < n; i++ {
		var a, b float64
		if t.dtype == Float32 {
			a = float64(t.f32[i])
		} else {
			a = t.f64[i]
		}
		if o.dtype == Float32 {
			b = float64(o.f32[i])
		} else {
			b = o.f64[i]
		}
		if math.IsNaN(a) != math.IsNaN(b) {
			return false
		}
		if math.IsNaN(a) {
			continue
		}
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// Fill sets every element to v (converted to the tensor's dtype).
func (t *Tensor) Fill(v float64) {
	switch t.dtype {
	case Float32:
		f := float32(v)
		for i := range t.f32 {
			t.f32[i] = f
		}
	case Float64:
		for i := range t.f64 {
			t.f64[i] = v
		}
	case Int32:
		x := int32(v)
		for i := range t.i32 {
			t.i32[i] = x
		}
	case Int64:
		x := int64(v)
		for i := range t.i64 {
			t.i64[i] = x
		}
	case Bool:
		x := v != 0
		for i := range t.b {
			t.b[i] = x
		}
	}
}

// Random fills a new float32 tensor with uniform values in [-scale, scale)
// drawn from rng. Model weights in the reproduction are seeded random data:
// every evaluated quantity is a latency, so weight values are irrelevant
// beyond keeping arithmetic finite.
func Random(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(Float32, shape...)
	for i := range t.f32 {
		t.f32[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return t
}

// RandomInts fills a new int64 tensor with uniform values in [0, high).
func RandomInts(rng *rand.Rand, high int64, shape ...int) *Tensor {
	t := New(Int64, shape...)
	for i := range t.i64 {
		t.i64[i] = rng.Int63n(high)
	}
	return t
}

// AsF64 returns the tensor's contents converted element-wise to float64,
// regardless of dtype. Used by reference implementations in tests.
func (t *Tensor) AsF64() []float64 {
	n := t.NumElements()
	out := make([]float64, n)
	switch t.dtype {
	case Float32:
		for i, v := range t.f32 {
			out[i] = float64(v)
		}
	case Float64:
		copy(out, t.f64)
	case Int32:
		for i, v := range t.i32 {
			out[i] = float64(v)
		}
	case Int64:
		for i, v := range t.i64 {
			out[i] = float64(v)
		}
	case Bool:
		for i, v := range t.b {
			if v {
				out[i] = 1
			}
		}
	}
	return out
}

// ToShape interprets a rank-1 integer tensor as a concrete Shape. This is the
// inverse of ShapeTensor and is used when a shape computed by a shape
// function feeds an AllocTensorReg instruction.
func (t *Tensor) ToShape() (Shape, error) {
	if t.Rank() != 1 {
		return nil, fmt.Errorf("tensor: shape tensor must be rank 1, got %v", t.shape)
	}
	out := make(Shape, t.shape[0])
	switch t.dtype {
	case Int64:
		for i, v := range t.i64 {
			if v < 0 {
				return nil, fmt.Errorf("tensor: negative dimension %d in shape tensor", v)
			}
			out[i] = int(v)
		}
	case Int32:
		for i, v := range t.i32 {
			if v < 0 {
				return nil, fmt.Errorf("tensor: negative dimension %d in shape tensor", v)
			}
			out[i] = int(v)
		}
	default:
		return nil, fmt.Errorf("tensor: shape tensor must be integer, got %v", t.dtype)
	}
	return out, nil
}
