package vm

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// buildExe assembles a single-function executable.
func buildExe(name string, numParams, regCount int, code []Instruction) *Executable {
	e := NewExecutable()
	e.AddFunc(VMFunc{Name: name, NumParams: numParams, RegCount: regCount, Start: 0, Len: len(code)})
	e.Code = code
	return e
}

func TestISAComplete(t *testing.T) {
	// The paper's ISA (Table A.1) has exactly 20 instructions with these
	// names; this test pins the reproduction to it.
	if NumOpcodes != 20 {
		t.Fatalf("ISA has %d opcodes, want 20", NumOpcodes)
	}
	want := []string{
		"Move", "Ret", "Invoke", "InvokeClosure", "InvokePacked",
		"AllocStorage", "AllocTensor", "AllocTensorReg", "AllocADT",
		"AllocClosure", "GetField", "GetTag", "If", "Goto",
		"LoadConst", "LoadConsti", "DeviceCopy", "ShapeOf",
		"ReshapeTensor", "Fatal",
	}
	for i, w := range want {
		if Opcode(i).String() != w {
			t.Errorf("opcode %d = %s, want %s", i, Opcode(i), w)
		}
	}
	if Opcode(99).String() != "Opcode(99)" {
		t.Error("unknown opcode formatting broken")
	}
}

func TestMoveRetLoadConst(t *testing.T) {
	e := buildExe("main", 0, 2, []Instruction{
		{Op: OpLoadConst, Dst: 0, Imm: 0},
		{Op: OpMove, Dst: 1, A: 0},
		{Op: OpRet, A: 1},
	})
	c := tensor.FromF32([]float32{1, 2, 3}, 3)
	e.AddConst(c)
	out, err := New(e).InvokeContext(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*TensorObj).T.Equal(c) {
		t.Error("const round trip failed")
	}
}

func TestLoadConsti(t *testing.T) {
	e := buildExe("main", 0, 1, []Instruction{
		{Op: OpLoadConsti, Dst: 0, Imm: 42},
		{Op: OpRet, A: 0},
	})
	out, err := New(e).InvokeContext(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.I64()[0] != 42 {
		t.Error("immediate load failed")
	}
}

func TestIfAndGoto(t *testing.T) {
	// if (arg == 1) return 100 else return 200
	e := buildExe("main", 1, 4, []Instruction{
		{Op: OpLoadConsti, Dst: 1, Imm: 1},
		{Op: OpIf, A: 0, B: 1, Off1: 1, Off2: 3},
		{Op: OpLoadConsti, Dst: 2, Imm: 100}, // true branch
		{Op: OpGoto, Off1: 2},
		{Op: OpLoadConsti, Dst: 2, Imm: 200}, // false branch
		{Op: OpRet, A: 2},
	})
	vmi := New(e)
	out, err := vmi.InvokeContext(context.Background(), "main", NewTensorObj(tensor.ScalarI64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.I64()[0] != 100 {
		t.Errorf("true branch = %v", out)
	}
	out, err = vmi.InvokeContext(context.Background(), "main", NewTensorObj(tensor.ScalarI64(7)))
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.I64()[0] != 200 {
		t.Errorf("false branch = %v", out)
	}
	// Bool scalars compare against integer 1.
	out, err = vmi.InvokeContext(context.Background(), "main", NewTensorObj(tensor.ScalarBool(true)))
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.I64()[0] != 100 {
		t.Error("bool condition broken")
	}
}

func TestInvokeRecursion(t *testing.T) {
	// count(n): if n == 0 return 0 else return count(n-1)  — exercised via a
	// decrement kernel; the recursion covers Invoke + frame management.
	dec := func(args []*tensor.Tensor, _ *tensor.Tensor) (*tensor.Tensor, error) {
		return tensor.ScalarI64(args[0].I64()[0] - 1), nil
	}
	e := NewExecutable()
	kDec := e.AddKernel("dec", dec)
	code := []Instruction{
		{Op: OpLoadConsti, Dst: 1, Imm: 0},
		{Op: OpIf, A: 0, B: 1, Off1: 1, Off2: 2},
		{Op: OpRet, A: 1},
		{Op: OpInvokePacked, Dst: 2, Imm: int64(kDec), B: 0, Args: []Reg{0}},
		{Op: OpInvoke, Dst: 3, Imm: 0, Args: []Reg{2}},
		{Op: OpRet, A: 3},
	}
	e.AddFunc(VMFunc{Name: "count", NumParams: 1, RegCount: 4, Start: 0, Len: len(code)})
	e.Code = code
	out, err := New(e).InvokeContext(context.Background(), "count", NewTensorObj(tensor.ScalarI64(500)))
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.I64()[0] != 0 {
		t.Errorf("recursion result = %v", out)
	}
}

func TestStackOverflowGuard(t *testing.T) {
	// f() calls itself forever.
	e := buildExe("loop", 0, 1, []Instruction{
		{Op: OpInvoke, Dst: 0, Imm: 0, Args: nil},
		{Op: OpRet, A: 0},
	})
	vmi := New(e)
	vmi.maxDepth = 100
	if _, err := vmi.InvokeContext(context.Background(), "loop"); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("expected stack overflow, got %v", err)
	}
}

func TestInvokePackedWithDest(t *testing.T) {
	add := func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		av, bv, ov := args[0].F32(), args[1].F32(), out.F32()
		for i := range ov {
			ov[i] = av[i] + bv[i]
		}
		return out, nil
	}
	e := NewExecutable()
	k := e.AddKernel("add", add)
	c0 := e.AddConst(tensor.FromF32([]float32{1, 2}, 2))
	c1 := e.AddConst(tensor.FromF32([]float32{10, 20}, 2))
	code := []Instruction{
		{Op: OpLoadConst, Dst: 0, Imm: int64(c0)},
		{Op: OpLoadConst, Dst: 1, Imm: int64(c1)},
		{Op: OpAllocStorage, Dst: 2, A: -1, Imm: 8, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 3, A: 2, Shape: []int{2}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 4, Imm: int64(k), B: 1, Args: []Reg{0, 1, 3}},
		{Op: OpRet, A: 4},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 0, RegCount: 5, Start: 0, Len: len(code)})
	e.Code = code
	out, err := New(e).InvokeContext(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*TensorObj).T
	if !got.Equal(tensor.FromF32([]float32{11, 22}, 2)) {
		t.Errorf("packed add = %v", got.F32())
	}
	if out.(*TensorObj).Backing == nil {
		t.Error("result lost its backing storage")
	}
}

// TestReshapeTensorKeepsBacking pins that a ReshapeTensor view keeps its
// source's storage: inner's result escapes its frame only as the view, so
// a view without the storage would let the frame release it to the pool,
// and the second call's AllocStorage would overwrite the first result.
func TestReshapeTensorKeepsBacking(t *testing.T) {
	addOne := func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		av, ov := args[0].F32(), out.F32()
		for i := range ov {
			ov[i] = av[i] + 1
		}
		return out, nil
	}
	e := NewExecutable()
	k := e.AddKernel("add_one", addOne)
	main := []Instruction{
		{Op: OpInvoke, Dst: 1, Imm: 1, Args: []Reg{0}},
		{Op: OpInvoke, Dst: 2, Imm: 1, Args: []Reg{1}},
		{Op: OpAllocADT, Dst: 3, Imm: 0, Args: []Reg{1, 2}},
		{Op: OpRet, A: 3},
	}
	inner := []Instruction{
		{Op: OpAllocStorage, Dst: 1, A: -1, Imm: 16, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 2, A: 1, Shape: []int{2, 2}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 3, Imm: int64(k), B: 1, Args: []Reg{0, 2}},
		{Op: OpShapeOf, Dst: 4, A: 3},
		{Op: OpReshapeTensor, Dst: 5, A: 3, B: 4},
		{Op: OpRet, A: 5},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 1, RegCount: 4, Start: 0, Len: len(main)})
	e.AddFunc(VMFunc{Name: "inner", NumParams: 1, RegCount: 6, Start: len(main), Len: len(inner)})
	e.Code = append(main, inner...)
	out, err := New(e).InvokeContext(context.Background(), "main", NewTensorObj(tensor.New(tensor.Float32, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	fields := out.(*ADT).Fields
	for i, want := range []float32{1, 2} {
		got := fields[i].(*TensorObj).T
		if !got.Equal(tensor.FromF32([]float32{want, want, want, want}, 2, 2)) {
			t.Errorf("call %d = %v, want all %v", i+1, got.F32(), want)
		}
	}
}

func TestAllocTensorRegFromShape(t *testing.T) {
	e := buildExe("main", 1, 4, []Instruction{
		{Op: OpShapeOf, Dst: 1, A: 0},
		{Op: OpAllocStorage, Dst: 2, A: 1, DType: uint8(tensor.Float32), Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensorReg, Dst: 3, A: 2, B: 1, DType: uint8(tensor.Float32)},
		{Op: OpRet, A: 3},
	})
	in := tensor.New(tensor.Float32, 3, 5)
	out, err := New(e).InvokeContext(context.Background(), "main", NewTensorObj(in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*TensorObj).T.Shape().Equal(tensor.Shape{3, 5}) {
		t.Errorf("dynamic alloc shape = %v", out.(*TensorObj).T.Shape())
	}
}

// TestAllocStorageShapeRegister: a dynamic AllocStorage sizes its storage
// from an int64 or int32 shape tensor and rejects a malformed one.
func TestAllocStorageShapeRegister(t *testing.T) {
	e := buildExe("main", 1, 2, []Instruction{
		{Op: OpAllocStorage, Dst: 1, A: 0, DType: uint8(tensor.Float32), Device: uint8(ir.DevCPU)},
		{Op: OpLoadConsti, Dst: 1, Imm: 0},
		{Op: OpRet, A: 1},
	})
	for _, c := range []struct {
		shape *tensor.Tensor
		bytes int64
		err   string
	}{
		{tensor.FromI64([]int64{3, 5}, 2), 60, ""},
		{tensor.FromI32([]int32{3, 5}, 2), 60, ""},
		{tensor.FromI64([]int64{-1, 5}, 2), 0, "negative dimension"},
		{tensor.FromI64([]int64{3, 5}, 1, 2), 0, "rank 1"},
	} {
		m := New(e)
		prof := NewProfiler()
		m.SetProfiler(prof)
		_, err := m.InvokeContext(context.Background(), "main", NewTensorObj(c.shape))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: %v", c.shape, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want one naming %q", c.shape, err, c.err)
		case c.err == "" && prof.AllocBytes != c.bytes:
			t.Errorf("%v: allocated %d bytes, want %d", c.shape, prof.AllocBytes, c.bytes)
		}
	}
}

func TestStorageTooSmall(t *testing.T) {
	e := buildExe("main", 0, 2, []Instruction{
		{Op: OpAllocStorage, Dst: 0, A: -1, Imm: 4, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 1, A: 0, Shape: []int{100}, DType: uint8(tensor.Float32)},
		{Op: OpRet, A: 1},
	})
	if _, err := New(e).InvokeContext(context.Background(), "main"); err == nil || !strings.Contains(err.Error(), "exceeds storage") {
		t.Errorf("oversized tensor accepted: %v", err)
	}
}

func TestADTAndMatchPrimitives(t *testing.T) {
	// Build Node(tag=1){a, b}, then read tag and field 1.
	e := buildExe("main", 2, 5, []Instruction{
		{Op: OpAllocADT, Dst: 2, Imm: 1, Args: []Reg{0, 1}},
		{Op: OpGetTag, Dst: 3, A: 2},
		{Op: OpGetField, Dst: 4, A: 2, Imm: 1},
		{Op: OpRet, A: 4},
	})
	a := NewTensorObj(tensor.Scalar(1))
	b := NewTensorObj(tensor.Scalar(2))
	out, err := New(e).InvokeContext(context.Background(), "main", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.F32()[0] != 2 {
		t.Errorf("GetField = %v", out)
	}
	// Out-of-range field.
	e2 := buildExe("main", 1, 3, []Instruction{
		{Op: OpAllocADT, Dst: 1, Imm: 0, Args: []Reg{0}},
		{Op: OpGetField, Dst: 2, A: 1, Imm: 5},
		{Op: OpRet, A: 2},
	})
	if _, err := New(e2).InvokeContext(context.Background(), "main", a); err == nil {
		t.Error("out-of-range GetField accepted")
	}
}

func TestClosure(t *testing.T) {
	// helper(captured, x) = captured (returns its first arg)
	// main(x): c = AllocClosure(helper, [x]); InvokeClosure c ()
	e := NewExecutable()
	helper := []Instruction{
		{Op: OpRet, A: 0},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 1, RegCount: 3, Start: 0, Len: 3})
	e.AddFunc(VMFunc{Name: "helper", NumParams: 1, RegCount: 1, Start: 3, Len: 1})
	e.Code = append([]Instruction{
		{Op: OpAllocClosure, Dst: 1, Imm: 1, Args: []Reg{0}},
		{Op: OpInvokeClosure, Dst: 2, A: 1, Args: nil},
		{Op: OpRet, A: 2},
	}, helper...)
	in := NewTensorObj(tensor.Scalar(7))
	out, err := New(e).InvokeContext(context.Background(), "main", in)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*TensorObj).T.F32()[0] != 7 {
		t.Errorf("closure capture = %v", out)
	}
}

func TestDeviceCopyAndShapeOps(t *testing.T) {
	e := buildExe("main", 1, 4, []Instruction{
		{Op: OpDeviceCopy, Dst: 1, A: 0, Device: uint8(ir.DevGPU), DeviceID: 0},
		{Op: OpShapeOf, Dst: 2, A: 1},
		{Op: OpReshapeTensor, Dst: 3, A: 1, B: 2},
		{Op: OpRet, A: 3},
	})
	in := tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)
	vmi := New(e)
	prof := NewProfiler()
	vmi.SetProfiler(prof)
	out, err := vmi.InvokeContext(context.Background(), "main", NewTensorObj(in))
	if err != nil {
		t.Fatal(err)
	}
	to := out.(*TensorObj)
	if to.Device.Type != ir.DevGPU {
		t.Errorf("device = %v", to.Device)
	}
	if !to.T.Equal(in) {
		t.Error("copy changed data")
	}
	if prof.CopyBytes != 16 {
		t.Errorf("CopyBytes = %d", prof.CopyBytes)
	}
}

func TestFatal(t *testing.T) {
	e := buildExe("main", 0, 1, []Instruction{{Op: OpFatal}})
	if _, err := New(e).InvokeContext(context.Background(), "main"); err == nil || !strings.Contains(err.Error(), "Fatal") {
		t.Errorf("Fatal not raised: %v", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	e := buildExe("main", 0, 1, []Instruction{{Op: OpFatal}})
	if _, err := New(e).InvokeContext(context.Background(), "missing"); err == nil {
		t.Error("missing function accepted")
	}
}

func TestArityMismatch(t *testing.T) {
	e := buildExe("main", 2, 3, []Instruction{{Op: OpRet, A: 0}})
	if _, err := New(e).InvokeContext(context.Background(), "main", NewTensorObj(tensor.Scalar(1))); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestStoragePoolReuse(t *testing.T) {
	// A function that allocates a buffer and returns a scalar: its storage
	// must return to the pool, so repeated calls reuse it.
	zero := func(_ []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		return out, nil
	}
	e := NewExecutable()
	k := e.AddKernel("zero", zero)
	code := []Instruction{
		{Op: OpAllocStorage, Dst: 0, A: -1, Imm: 1024, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 1, A: 0, Shape: []int{256}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 2, Imm: int64(k), B: 1, Args: []Reg{1}},
		{Op: OpLoadConsti, Dst: 3, Imm: 0},
		{Op: OpRet, A: 3},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 0, RegCount: 4, Start: 0, Len: len(code)})
	e.Code = code
	vmi := New(e)
	prof := NewProfiler()
	vmi.SetProfiler(prof)
	for i := 0; i < 10; i++ {
		if _, err := vmi.InvokeContext(context.Background(), "main"); err != nil {
			t.Fatal(err)
		}
	}
	if prof.AllocFresh != 1 {
		t.Errorf("AllocFresh = %d, want 1 (pool should serve reruns)", prof.AllocFresh)
	}
	if prof.AllocReuses != 9 {
		t.Errorf("AllocReuses = %d, want 9", prof.AllocReuses)
	}
	// With the pool disabled every run allocates.
	vm2 := New(e)
	vm2.DisablePool()
	prof2 := NewProfiler()
	vm2.SetProfiler(prof2)
	for i := 0; i < 10; i++ {
		if _, err := vm2.InvokeContext(context.Background(), "main"); err != nil {
			t.Fatal(err)
		}
	}
	if prof2.AllocFresh != 10 || prof2.AllocReuses != 0 {
		t.Errorf("no-pool stats = %d fresh, %d reuses", prof2.AllocFresh, prof2.AllocReuses)
	}
}

func TestEscapingStorageNotReused(t *testing.T) {
	// The returned tensor's storage must NOT return to the pool: reusing it
	// would corrupt the caller-visible result.
	fill := func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		for i := range out.F32() {
			out.F32()[i] = args[0].F32()[0]
		}
		return out, nil
	}
	e := NewExecutable()
	k := e.AddKernel("fill", fill)
	code := []Instruction{
		{Op: OpAllocStorage, Dst: 1, A: -1, Imm: 16, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 2, A: 1, Shape: []int{4}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 3, Imm: int64(k), B: 1, Args: []Reg{0, 2}},
		{Op: OpRet, A: 3},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 1, RegCount: 4, Start: 0, Len: len(code)})
	e.Code = code
	vmi := New(e)
	first, err := vmi.InvokeContext(context.Background(), "main", NewTensorObj(tensor.Scalar(1)))
	if err != nil {
		t.Fatal(err)
	}
	second, err := vmi.InvokeContext(context.Background(), "main", NewTensorObj(tensor.Scalar(2)))
	if err != nil {
		t.Fatal(err)
	}
	f := first.(*TensorObj).T.F32()
	s := second.(*TensorObj).T.F32()
	if f[0] != 1 || s[0] != 2 {
		t.Errorf("escaping storage was clobbered: first=%v second=%v", f, s)
	}
}

// TestReturnedStorageMovesToCaller: a callee's storage that backs its
// return value passes to the caller, which releases it at its own exit, so
// reruns draw it from the pool.
func TestReturnedStorageMovesToCaller(t *testing.T) {
	e := NewExecutable()
	k := e.AddKernel("id", func(_ []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) { return out, nil })
	e.Code = []Instruction{
		// main: call make, drop its tensor, return a scalar.
		{Op: OpInvoke, Dst: 0, Imm: 1},
		{Op: OpLoadConsti, Dst: 1, Imm: 0},
		{Op: OpRet, A: 1},
		// make: allocate a buffer and return the tensor carved from it.
		{Op: OpAllocStorage, Dst: 0, A: -1, Imm: 64, Device: uint8(ir.DevCPU)},
		{Op: OpAllocTensor, Dst: 1, A: 0, Shape: []int{16}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 2, Imm: int64(k), B: 1, Args: []Reg{1}},
		{Op: OpRet, A: 2},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 0, RegCount: 2, Start: 0, Len: 3})
	e.AddFunc(VMFunc{Name: "make", NumParams: 0, RegCount: 3, Start: 3, Len: 4})
	vmi := New(e)
	prof := NewProfiler()
	vmi.SetProfiler(prof)
	for i := 0; i < 5; i++ {
		if _, err := vmi.InvokeContext(context.Background(), "main"); err != nil {
			t.Fatal(err)
		}
	}
	if prof.AllocFresh != 1 || prof.AllocReuses != 4 {
		t.Errorf("5 runs: %d fresh, %d reused storages, want 1 and 4", prof.AllocFresh, prof.AllocReuses)
	}
}

// TestStorageViewCache: one storage carved at two offsets, two dtypes and
// two shapes gives each its own view of the right dtype and shape, and
// carving any of them again hands back the same object.
func TestStorageViewCache(t *testing.T) {
	st := &Storage{SizeBytes: 256, Device: ir.CPU(0)}
	keys := []struct {
		dt    tensor.DType
		shape tensor.Shape
		off   int
	}{
		{tensor.Float32, tensor.Shape{2, 4}, 0},
		{tensor.Float32, tensor.Shape{2, 4}, 64},
		{tensor.Int64, tensor.Shape{2, 4}, 0},
		{tensor.Float32, tensor.Shape{8}, 0},
	}
	views := make([]*TensorObj, len(keys))
	for i, k := range keys {
		if st.cachedView(k.dt, k.off, k.shape.Equal) != nil {
			t.Fatalf("key %d: cache hit before the view was carved", i)
		}
		o, err := st.carve(k.dt, k.shape, k.off)
		if err != nil {
			t.Fatal(err)
		}
		if o.T.DType() != k.dt || !o.T.Shape().Equal(k.shape) || o.Backing != st {
			t.Errorf("key %d: carved %s %v backed by %p", i, o.T.DType(), o.T.Shape(), o.Backing)
		}
		for j := 0; j < i; j++ {
			if views[j] == o {
				t.Errorf("keys %d and %d share a view", j, i)
			}
		}
		views[i] = o
	}
	for i, k := range keys {
		if got := st.cachedView(k.dt, k.off, k.shape.Equal); got != views[i] {
			t.Errorf("key %d: cache returned %p, want the carved view %p", i, got, views[i])
		}
	}
	// The offset view reads the storage's memory past the first one's.
	views[1].T.F32()[0] = 7
	if views[0].T.F32()[0] != 0 || views[3].T.F32()[0] != 0 {
		t.Error("the view at offset 64 aliases offset 0")
	}
	// A fifth shape evicts the oldest view; the others stay.
	if _, err := st.carve(tensor.Float32, tensor.Shape{4}, 0); err != nil {
		t.Fatal(err)
	}
	if st.cachedView(keys[0].dt, keys[0].off, keys[0].shape.Equal) != nil {
		t.Error("the oldest view survived a fifth shape")
	}
	if st.cachedView(keys[3].dt, keys[3].off, keys[3].shape.Equal) != views[3] {
		t.Error("a newer view was evicted")
	}
	// AllocTensorReg matches a shape register in place.
	if !shapeHolds(tensor.ShapeTensor(tensor.Shape{2, 4}), tensor.Shape{2, 4}) ||
		shapeHolds(tensor.ShapeTensor(tensor.Shape{2, 4}), tensor.Shape{4, 2}) ||
		shapeHolds(tensor.ShapeTensor(tensor.Shape{8}), tensor.Shape{8, 1}) {
		t.Error("shapeHolds disagrees with ToShape")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	e := NewExecutable()
	e.AddKernel("add", func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		return out, nil
	})
	e.AddConst(tensor.FromF32([]float32{1, 2, 3}, 3))
	e.AddConst(tensor.ScalarI64(9))
	code := []Instruction{
		{Op: OpLoadConst, Dst: 0, Imm: 0},
		{Op: OpAllocStorage, Dst: 1, A: -1, Imm: 12, Device: uint8(ir.DevGPU), DeviceID: 1},
		{Op: OpAllocTensor, Dst: 2, A: 1, Shape: []int{3}, DType: uint8(tensor.Float32)},
		{Op: OpInvokePacked, Dst: 3, Imm: 0, B: 1, Args: []Reg{0, 2}},
		{Op: OpIf, A: 3, B: 0, Off1: 1, Off2: 2},
		{Op: OpRet, A: 3},
	}
	e.AddFunc(VMFunc{Name: "main", NumParams: 0, RegCount: 4, Start: 0, Len: len(code)})
	e.AddFunc(VMFunc{Name: "aux", NumParams: 1, RegCount: 2, Start: 5, Len: 1})
	e.Code = code

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExecutable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != 2 || got.Funcs[0].Name != "main" || got.Funcs[1].NumParams != 1 {
		t.Errorf("funcs = %+v", got.Funcs)
	}
	if len(got.Code) != len(code) {
		t.Fatalf("code length = %d", len(got.Code))
	}
	for i := range code {
		a, b := code[i], got.Code[i]
		if a.Op != b.Op || a.Dst != b.Dst || a.A != b.A || a.B != b.B || a.Imm != b.Imm ||
			a.Off1 != b.Off1 || a.Off2 != b.Off2 || a.DType != b.DType ||
			a.Device != b.Device || a.DeviceID != b.DeviceID ||
			len(a.Args) != len(b.Args) || len(a.Shape) != len(b.Shape) {
			t.Errorf("instruction %d mismatch: %v vs %v", i, a, b)
		}
	}
	if len(got.Consts) != 2 || !got.Consts[0].Equal(e.Consts[0]) {
		t.Error("constants corrupted")
	}
	if len(got.KernelNames) != 1 || got.KernelNames[0] != "add" {
		t.Errorf("kernels = %v", got.KernelNames)
	}
	// Kernels are unlinked until LinkKernels.
	if _, err := got.Kernel(0); err == nil {
		t.Error("unlinked kernel usable")
	}
	if err := got.LinkKernels(map[string]PackedFunc{}); err == nil {
		t.Error("missing kernel not reported")
	}
	if err := got.LinkKernels(map[string]PackedFunc{
		"add": func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) { return out, nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Kernel(0); err != nil {
		t.Errorf("linked kernel unusable: %v", err)
	}
}

func TestDeserializeCorrupt(t *testing.T) {
	if _, err := ReadExecutable(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	e := buildExe("main", 0, 1, []Instruction{{Op: OpFatal}})
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncations at every prefix must fail, not panic.
	for cut := 1; cut < len(raw); cut += 7 {
		if _, err := ReadExecutable(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupt opcode.
	bad := append([]byte{}, raw...)
	// find the instruction section: opcode byte of the single Fatal is at a
	// known position only through parsing, so corrupt the version instead.
	bad[4] = 99
	if _, err := ReadExecutable(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestProfilerCategoriesAndSummary(t *testing.T) {
	if CategoryOf(OpMove) != CatRegister || CategoryOf(OpAllocADT) != CatMemory ||
		CategoryOf(OpInvokePacked) != CatCall || CategoryOf(OpIf) != CatControl {
		t.Error("category mapping wrong")
	}
	for _, c := range []InstrCategory{CatRegister, CatMemory, CatCall, CatControl} {
		if c.String() == "" {
			t.Error("empty category name")
		}
	}
	p := NewProfiler()
	p.Counts[OpMove] = 3
	p.Counts[OpInvokePacked] = 2
	p.KernelCounts["dense"] = 2
	if p.TotalInstrs() != 5 {
		t.Errorf("TotalInstrs = %d", p.TotalInstrs())
	}
	cc := p.CategoryCounts()
	if cc[CatRegister] != 3 || cc[CatCall] != 2 {
		t.Errorf("CategoryCounts = %v", cc)
	}
	s := p.Summary()
	if !strings.Contains(s, "Move") || !strings.Contains(s, "dense") {
		t.Errorf("Summary missing entries:\n%s", s)
	}
	p.Reset()
	if p.TotalInstrs() != 0 {
		t.Error("Reset failed")
	}
}

func TestDisassemble(t *testing.T) {
	e := buildExe("main", 1, 3, []Instruction{
		{Op: OpMove, Dst: 1, A: 0},
		{Op: OpLoadConsti, Dst: 2, Imm: 5},
		{Op: OpRet, A: 2},
	})
	d := e.Disassemble()
	for _, want := range []string{"func main", "Move r1, r0", "LoadConsti r2, 5", "Ret r2"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
	// Every opcode has a String rendering (exercise all formatting paths).
	for op := 0; op < NumOpcodes; op++ {
		in := Instruction{Op: Opcode(op), Args: []Reg{1}, Shape: []int{2}}
		if in.String() == "" {
			t.Errorf("opcode %d renders empty", op)
		}
	}
}

func TestSizeClass(t *testing.T) {
	// Requests at or below one cache line clamp to the floor class; above
	// it, classes are ceil(log2(size)).
	cases := []struct{ size, cls int }{
		{0, minSizeClass}, {1, minSizeClass}, {2, minSizeClass}, {63, minSizeClass},
		{64, minSizeClass}, {65, 7}, {128, 7}, {129, 8}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := sizeClass(c.size); got != c.cls {
			t.Errorf("sizeClass(%d) = %d, want %d", c.size, got, c.cls)
		}
	}
}

func TestStoragePoolZeroSizeRequest(t *testing.T) {
	p := newStoragePool()
	st, reused := p.acquire(0, ir.CPU(0))
	if reused {
		t.Fatal("empty pool cannot reuse")
	}
	// A zero-byte request must still mint a usable storage at the floor
	// class, not a 1-byte stub.
	if st.SizeBytes != 1<<minSizeClass {
		t.Errorf("zero-size acquire minted %d bytes, want %d", st.SizeBytes, 1<<minSizeClass)
	}
	if _, err := st.tensorAt(tensor.Float32, tensor.Shape{4}, 0); err != nil {
		t.Errorf("floor-class storage cannot host a small tensor: %v", err)
	}
	// Releasing and re-acquiring at any size within the floor class hits.
	p.release(st)
	got, reused := p.acquire(16, ir.CPU(0))
	if !reused || got != st {
		t.Error("floor-class storage not reused for small request")
	}
}

func TestStoragePoolDeviceIndexing(t *testing.T) {
	p := newStoragePool()
	cpu, sim := ir.CPU(0), ir.Device{Type: ir.DevGPU, ID: 0}
	a, _ := p.acquire(1024, cpu)
	b, _ := p.acquire(1024, sim)
	p.release(a)
	p.release(b)
	// Same size class, different devices: each device gets its own bin.
	got, reused := p.acquire(1000, sim)
	if !reused || got != b {
		t.Error("device-keyed pool failed to return the sim-device storage")
	}
	got, reused = p.acquire(1000, cpu)
	if !reused || got != a {
		t.Error("device-keyed pool failed to return the cpu storage")
	}
	if _, reused = p.acquire(1000, cpu); reused {
		t.Error("pool returned a storage it no longer holds")
	}
	// LIFO: the most recently released storage in a bin comes back first.
	c, _ := p.acquire(1024, cpu)
	p.release(a)
	p.release(c)
	if got, _ := p.acquire(1024, cpu); got != c {
		t.Error("pool is not LIFO within a bin")
	}
}

func TestTupleObject(t *testing.T) {
	tup := NewTuple(NewTensorObj(tensor.Scalar(1)), NewTensorObj(tensor.Scalar(2)))
	if tup.Tag != TupleTag || len(tup.Fields) != 2 {
		t.Error("tuple construction broken")
	}
}
