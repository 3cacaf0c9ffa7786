package vm

import (
	"fmt"

	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// Object is a VM value. The VM "uses a tagged object representation
// reminiscent of those used by programming languages such as Haskell and
// OCaml" (§5.2); here the Go interface is the tag and the concrete types are
// *tensor.Tensor, *Storage, *ADT and *Closure. Objects are passed by
// reference between registers, so register operations are cheap regardless
// of payload size.
type Object interface{ vmObject() }

// TensorObj wraps a tensor value; tensors are the only bulk data the
// instructions interact with.
type TensorObj struct {
	T *tensor.Tensor
	// Device records the logical device holding the data, maintained by
	// DeviceCopy and the allocation instructions for the platform cost
	// model.
	Device ir.Device
	// Backing is the storage this tensor was carved from, nil for tensors
	// that own their memory (constants, kernel-allocated results). The
	// interpreter uses it to decide which storages escape a frame.
	Backing *Storage
}

func (*TensorObj) vmObject() {}

// NewTensorObj wraps t on cpu(0).
func NewTensorObj(t *tensor.Tensor) *TensorObj {
	return &TensorObj{T: t, Device: ir.CPU(0)}
}

func (o *TensorObj) String() string { return o.T.String() }

// smallInts are the objects LoadConsti hands out for immediates 0-15 (the
// compiler emits 0 for the unit value and 1 or a constructor tag for match
// tests). Like constants they are never written, so every VM shares them.
var smallInts = func() (objs [16]*TensorObj) {
	for i := range objs {
		objs[i] = NewTensorObj(tensor.ScalarI64(int64(i)))
	}
	return objs
}()

// Storage is a raw allocation produced by AllocStorage and consumed by
// AllocTensor/AllocTensorReg. It lazily materializes one typed backing
// slice per dtype with capacity for SizeBytes, so tensors allocated from
// the same storage across iterations reuse memory instead of hitting the Go
// allocator — the runtime half of the §4.3 memory-planning story.
type Storage struct {
	SizeBytes int
	Device    ir.Device

	f32 []float32
	f64 []float64
	i32 []int32
	i64 []int64
	b   []bool
}

func (*Storage) vmObject() {}

// tensorAt carves a tensor of the given dtype/shape out of the storage at a
// byte offset. The backing slice for each dtype is allocated once and
// reused by later calls.
func (s *Storage) tensorAt(dt tensor.DType, shape tensor.Shape, offsetBytes int) (*tensor.Tensor, error) {
	n := shape.NumElements()
	need := offsetBytes + n*dt.Size()
	if need > s.SizeBytes {
		return nil, fmt.Errorf("vm: tensor %v %s (%d bytes at offset %d) exceeds storage of %d bytes",
			shape, dt, n*dt.Size(), offsetBytes, s.SizeBytes)
	}
	elemOff := offsetBytes / dt.Size()
	capElems := s.SizeBytes / dt.Size()
	switch dt {
	case tensor.Float32:
		if s.f32 == nil {
			s.f32 = make([]float32, capElems)
		}
		return tensor.FromF32(s.f32[elemOff:elemOff+n], shape...), nil
	case tensor.Float64:
		if s.f64 == nil {
			s.f64 = make([]float64, capElems)
		}
		return tensor.FromF64(s.f64[elemOff:elemOff+n], shape...), nil
	case tensor.Int32:
		if s.i32 == nil {
			s.i32 = make([]int32, capElems)
		}
		return tensor.FromI32(s.i32[elemOff:elemOff+n], shape...), nil
	case tensor.Int64:
		if s.i64 == nil {
			s.i64 = make([]int64, capElems)
		}
		return tensor.FromI64(s.i64[elemOff:elemOff+n], shape...), nil
	case tensor.Bool:
		if s.b == nil {
			s.b = make([]bool, capElems)
		}
		return tensor.FromBool(s.b[elemOff:elemOff+n], shape...), nil
	}
	return nil, fmt.Errorf("vm: unknown dtype %d", dt)
}

// ADT is an algebraic data type value (or a tuple, which uses TupleTag).
// AllocADT builds them; GetField and GetTag take them apart.
type ADT struct {
	Tag    int
	Fields []Object
}

func (*ADT) vmObject() {}

// TupleTag marks ADT objects that represent tuples rather than declared
// constructors.
const TupleTag = -1

// NewTuple builds a tuple object.
func NewTuple(fields ...Object) *ADT { return &ADT{Tag: TupleTag, Fields: fields} }

// Closure pairs a lowered VM function with its captured environment.
type Closure struct {
	Fn   int
	Free []Object
}

func (*Closure) vmObject() {}

// asTensor extracts the tensor from an object, reporting a decoded error
// otherwise. The compiler guarantees these never fire for well-typed
// programs; they guard against executable corruption.
func asTensor(o Object) (*TensorObj, error) {
	t, ok := o.(*TensorObj)
	if !ok {
		return nil, fmt.Errorf("vm: expected tensor object, got %T", o)
	}
	return t, nil
}

func asStorage(o Object) (*Storage, error) {
	s, ok := o.(*Storage)
	if !ok {
		return nil, fmt.Errorf("vm: expected storage object, got %T", o)
	}
	return s, nil
}

func asADT(o Object) (*ADT, error) {
	a, ok := o.(*ADT)
	if !ok {
		return nil, fmt.Errorf("vm: expected ADT object, got %T", o)
	}
	return a, nil
}

// scalarEqual implements the If instruction's test: two scalar tensors are
// equal when their numeric values coincide (bools compare as 0/1).
func scalarEqual(a, b Object) (bool, error) {
	ta, err := asTensor(a)
	if err != nil {
		return false, err
	}
	tb, err := asTensor(b)
	if err != nil {
		return false, err
	}
	if ta.T.NumElements() != 1 || tb.T.NumElements() != 1 {
		return false, fmt.Errorf("vm: If condition requires scalars, got %v and %v", ta.T.Shape(), tb.T.Shape())
	}
	return ta.T.AsF64()[0] == tb.T.AsF64()[0], nil
}
