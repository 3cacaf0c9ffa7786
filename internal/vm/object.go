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
// tests) and GetTag for tags 0-15. Like constants they are never written,
// so every VM shares them.
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
//
// A storage also keeps the tensor views carved from it: the last viewSlots
// (offset, dtype, shape) triples, each with its *TensorObj, in an inline
// array, so a fresh storage costs no extra allocation. AllocTensor and
// AllocTensorReg hand a cached view back instead of building a new one.
// This is safe because a view's metadata never changes and the view lives
// exactly as long as its storage, which frames and the pool already track:
// once the storage is free, so is every object carved from it.
type Storage struct {
	SizeBytes int
	Device    ir.Device

	f32 []float32
	f64 []float64
	i32 []int32
	i64 []int64
	b   []bool

	views    [viewSlots]storageView
	nextView uint8 // the slot the next miss overwrites, round robin
}

// viewSlots is how many carved views a storage remembers. The planner
// carves at most a few shapes out of one storage per function (Tree-LSTM's
// cell carves two); dynamic shapes that cycle through more just miss.
const viewSlots = 4

// storageView is one cached view: the byte offset it was carved at and the
// object, whose tensor holds its dtype and shape.
type storageView struct {
	off int
	obj *TensorObj
}

func (*Storage) vmObject() {}

// cachedView returns the view carved at offsetBytes with dtype dt and a
// shape for which sameShape holds, or nil if the storage keeps none.
func (s *Storage) cachedView(dt tensor.DType, offsetBytes int, sameShape func(tensor.Shape) bool) *TensorObj {
	for i := range s.views {
		v := &s.views[i]
		if v.obj != nil && v.off == offsetBytes && v.obj.T.DType() == dt && sameShape(v.obj.T.Shape()) {
			return v.obj
		}
	}
	return nil
}

// carve builds a view of dtype dt and shape at offsetBytes and keeps it,
// evicting the oldest cached view when every slot is taken.
func (s *Storage) carve(dt tensor.DType, shape tensor.Shape, offsetBytes int) (*TensorObj, error) {
	t, err := s.tensorAt(dt, shape, offsetBytes)
	if err != nil {
		return nil, err
	}
	o := &TensorObj{T: t, Device: s.Device, Backing: s}
	s.views[s.nextView] = storageView{off: offsetBytes, obj: o}
	s.nextView = (s.nextView + 1) % viewSlots
	return o, nil
}

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
	return firstF64(ta.T) == firstF64(tb.T), nil
}

// firstF64 reads a tensor's first element as a float64 (bools as 0/1).
func firstF64(t *tensor.Tensor) float64 {
	switch t.DType() {
	case tensor.Float32:
		return float64(t.F32()[0])
	case tensor.Float64:
		return t.F64()[0]
	case tensor.Int32:
		return float64(t.I32()[0])
	case tensor.Int64:
		return float64(t.I64()[0])
	case tensor.Bool:
		if t.Bools()[0] {
			return 1
		}
	}
	return 0
}

// numElements is the element count the shape tensor t names. An int64
// shape, the kind shape functions emit, is read in place; any other goes
// through ToShape, which also reports a malformed one.
func numElements(t *tensor.Tensor) (int, error) {
	if t.Rank() == 1 && t.DType() == tensor.Int64 {
		n := 1
		for _, d := range t.I64() {
			if d < 0 {
				return 0, fmt.Errorf("vm: negative dimension %d in shape tensor", d)
			}
			n *= int(d)
		}
		return n, nil
	}
	s, err := t.ToShape()
	return s.NumElements(), err
}

// shapeHolds reports whether the int64 shape tensor t holds s, reading it
// in place where ToShape would build a Shape. Any other shape tensor reads
// false and takes ToShape's path.
func shapeHolds(t *tensor.Tensor, s tensor.Shape) bool {
	if t.Rank() != 1 || t.DType() != tensor.Int64 || t.Shape()[0] != len(s) {
		return false
	}
	for i, d := range t.I64() {
		if d != int64(s[i]) {
			return false
		}
	}
	return true
}
