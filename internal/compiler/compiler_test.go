package compiler

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/codegen"
	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/passes"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

const anyd = ir.DimAny

func mustCompile(t *testing.T, mod *ir.Module, opts Options) (*vm.VM, *Result) {
	t.Helper()
	machine, res, err := CompileToVM(mod, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return machine, res
}

func singleFuncModule(fn *ir.Function) *ir.Module {
	m := ir.NewModule()
	m.AddFunc("main", fn)
	return m
}

func TestCompileStaticDenseChain(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 6))
	bias := ir.NewVar("b", ir.TT(tensor.Float32, 6))
	b := ir.NewBuilder()
	d := b.Op("dense", x, w)
	ba := b.Op("bias_add", d, bias)
	out := b.Op("relu", ba)
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, w, bias}, b.Finish(out), nil))

	machine, res := mustCompile(t, mod, Options{})
	if res.Stats.Fusion.Groups != 1 {
		t.Errorf("fusion stats = %+v", res.Stats.Fusion)
	}
	xs := tensor.Random(rng, 1, 4, 8)
	ws := tensor.Random(rng, 1, 8, 6)
	bs := tensor.Random(rng, 1, 6)
	got, err := machine.InvokeTensorsContext(context.Background(), "main", xs, ws, bs)
	if err != nil {
		t.Fatal(err)
	}
	want := kernels.ReluInto(kernels.AddInto(kernels.MatMulInto(xs, ws, nil), bs, nil), nil)
	if !got.AllClose(want, 1e-4, 1e-5) {
		t.Error("compiled result differs from reference")
	}
}

func TestCompileDynamicConcatAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 3))
	y := ir.NewVar("y", ir.TT(tensor.Float32, 1, 3))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, y},
		ir.CallOpAttrs("concat", ir.Attrs{"axis": 0}, x, y), nil))
	machine, _ := mustCompile(t, mod, Options{})
	// The same executable serves every runtime extent of the Any dimension.
	for _, rows := range []int{1, 5, 17} {
		xs := tensor.Random(rng, 1, rows, 3)
		ys := tensor.Random(rng, 1, 1, 3)
		got, err := machine.InvokeTensorsContext(context.Background(), "main", xs, ys)
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		want := kernels.ConcatInto([]*tensor.Tensor{xs, ys}, nil, 0)
		if !got.Equal(want) {
			t.Errorf("rows=%d: concat mismatch", rows)
		}
	}
}

func TestCompileSymbolicDenseUsesDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 6))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, w}, ir.CallOp("dense", x, w), nil))
	machine, res := mustCompile(t, mod, Options{DisableFusion: true})
	foundSym := false
	for _, n := range res.Exe.KernelNames {
		if strings.Contains(n, "dense_sym_dispatch8") {
			foundSym = true
		}
	}
	if !foundSym {
		t.Errorf("symbolic dispatch kernel missing: %v", res.Exe.KernelNames)
	}
	for _, m := range []int{1, 8, 13, 64} {
		xs := tensor.Random(rng, 1, m, 8)
		ws := tensor.Random(rng, 1, 8, 6)
		got, err := machine.InvokeTensorsContext(context.Background(), "main", xs, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(kernels.MatMulRef(xs, ws), 1e-4, 1e-5) {
			t.Errorf("m=%d mismatch", m)
		}
	}
}

// TestCompileReshapeOfPlannedBuffers pins the copy genericKernel makes when
// an operator's result is not the planned buffer: reshape returns a view of
// its argument, and without the copy storage coalescing hands the storage
// of add's result on to multiply while the view of it is still to be read.
func TestCompileReshapeOfPlannedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4, 6))
	shape := ir.Attrs{"shape": []int{6, 4}}
	b := ir.NewBuilder()
	r := b.OpAttrs("reshape", shape, b.Op("add", x, x))
	m := b.OpAttrs("reshape", shape, b.Op("multiply", x, x))
	out := b.Op("subtract", r, m)
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))

	machine, _ := mustCompile(t, mod, Options{DisableFusion: true})
	xs := tensor.Random(rng, 1, 4, 6)
	got, err := machine.InvokeTensorsContext(context.Background(), "main", xs)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := kernels.AddInto(xs, xs, nil).Reshape(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := kernels.MulInto(xs, xs, nil).Reshape(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.SubInto(sum, prod, nil); !got.AllClose(want, 1e-5, 1e-6) {
		t.Errorf("got %v, want %v", got.F32(), want.F32())
	}
}

func TestCompileIf(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	c := ir.NewVar("c", ir.BoolType())
	body := &ir.If{Cond: c, Then: ir.CallOp("relu", x), Else: ir.CallOp("negative", x)}
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, c}, body, nil))
	machine, _ := mustCompile(t, mod, Options{})
	xs := tensor.FromF32([]float32{-1, 2}, 2)
	got, err := machine.InvokeTensorsContext(context.Background(), "main", xs, tensor.ScalarBool(true))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tensor.FromF32([]float32{0, 2}, 2)) {
		t.Errorf("then branch = %v", got.F32())
	}
	got, err = machine.InvokeTensorsContext(context.Background(), "main", xs, tensor.ScalarBool(false))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tensor.FromF32([]float32{1, -2}, 2)) {
		t.Errorf("else branch = %v", got.F32())
	}
}

func TestCompileRecursionGrowingTensor(t *testing.T) {
	// The paper's decoder motif: a loop that grows a tensor each iteration.
	// grow(acc: [Any, 2], n: scalar) = n == 0 ? acc : grow(concat(acc, acc0), n-1)
	f32 := tensor.Float32
	acc := ir.NewVar("acc", ir.TT(f32, anyd, 2))
	n := ir.NewVar("n", ir.ScalarType(tensor.Int64))
	step := ir.NewVar("step", ir.TT(f32, 1, 2))
	grow := &ir.GlobalVar{Name: "grow"}
	b := ir.NewBuilder()
	bigger := b.OpAttrs("concat", ir.Attrs{"axis": 0}, acc, step)
	nm1 := b.OpAttrs("cast", ir.Attrs{"dtype": "int64"},
		b.Op("subtract",
			b.OpAttrs("cast", ir.Attrs{"dtype": "float32"}, n),
			ir.ConstScalar(1)))
	rec := b.Bind("rec", ir.NewCall(grow, []ir.Expr{bigger, nm1, step}, nil))
	loop := b.Finish(rec)
	cond := ir.CallOp("equal",
		ir.CallOpAttrs("cast", ir.Attrs{"dtype": "float32"}, n),
		ir.ConstScalar(0))
	body := &ir.If{Cond: cond, Then: acc, Else: loop}
	mod := ir.NewModule()
	mod.AddFunc("grow", ir.NewFunc([]*ir.Var{acc, n, step}, body, ir.TT(f32, anyd, 2)))

	acc0 := ir.NewVar("a0", ir.TT(f32, 1, 2))
	n0 := ir.NewVar("n0", ir.ScalarType(tensor.Int64))
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{acc0, n0},
		ir.NewCall(&ir.GlobalVar{Name: "grow"}, []ir.Expr{acc0, n0, acc0}, nil), nil))

	machine, _ := mustCompile(t, mod, Options{})
	a0 := tensor.FromF32([]float32{1, 2}, 1, 2)
	got, err := machine.InvokeTensorsContext(context.Background(), "main", a0, tensor.ScalarI64(5))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape().Equal(tensor.Shape{6, 2}) {
		t.Errorf("grown shape = %v, want (6, 2)", got.Shape())
	}
	if got.F32()[10] != 1 || got.F32()[11] != 2 {
		t.Errorf("grown content wrong: %v", got.F32())
	}
}

func TestCompileMatchOverTree(t *testing.T) {
	// sum over a Tree ADT — the Tree-LSTM control skeleton.
	f32 := tensor.Float32
	leafT := ir.TT(f32, 1, 2)
	leaf := ir.NewConstructor("Leaf", leafT)
	node := ir.NewConstructor("Node")
	td := ir.NewTypeDef("Tree", leaf, node)
	node.Fields = []ir.Type{td.Type(), td.Type()}

	mod := ir.NewModule()
	mod.AddTypeDef(td)
	tree := ir.NewVar("tree", td.Type())
	l := ir.NewVar("l", nil)
	r := ir.NewVar("r", nil)
	v := ir.NewVar("v", nil)
	sum := &ir.GlobalVar{Name: "sum"}
	body := &ir.Match{Data: tree, Clauses: []*ir.Clause{
		{Pattern: ir.CtorPat(leaf, ir.VarPat(v)), Body: v},
		{Pattern: ir.CtorPat(node, ir.VarPat(l), ir.VarPat(r)),
			Body: ir.CallOp("add",
				ir.NewCall(sum, []ir.Expr{l}, nil),
				ir.NewCall(sum, []ir.Expr{r}, nil))},
	}}
	mod.AddFunc("sum", ir.NewFunc([]*ir.Var{tree}, body, leafT))
	tv := ir.NewVar("t", td.Type())
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{tv},
		ir.NewCall(&ir.GlobalVar{Name: "sum"}, []ir.Expr{tv}, nil), nil))

	machine, _ := mustCompile(t, mod, Options{})
	mkLeaf := func(a, b float32) vm.Object {
		return &vm.ADT{Tag: leaf.Tag, Fields: []vm.Object{
			vm.NewTensorObj(tensor.FromF32([]float32{a, b}, 1, 2)),
		}}
	}
	treeObj := &vm.ADT{Tag: node.Tag, Fields: []vm.Object{
		mkLeaf(1, 2),
		&vm.ADT{Tag: node.Tag, Fields: []vm.Object{mkLeaf(3, 4), mkLeaf(5, 6)}},
	}}
	out, err := machine.InvokeContext(context.Background(), "main", treeObj)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*vm.TensorObj).T
	if !got.Equal(tensor.FromF32([]float32{9, 12}, 1, 2)) {
		t.Errorf("tree sum = %v", got.F32())
	}
}

func TestCompileDataDependentArange(t *testing.T) {
	s := ir.NewVar("stop", ir.ScalarType(tensor.Float32))
	b := ir.NewBuilder()
	out := b.Op("arange", ir.ConstScalar(0), s, ir.ConstScalar(1))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{s}, b.Finish(out), nil))
	machine, _ := mustCompile(t, mod, Options{})
	got, err := machine.InvokeTensorsContext(context.Background(), "main", tensor.Scalar(4))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tensor.FromF32([]float32{0, 1, 2, 3}, 4)) {
		t.Errorf("arange = %v", got.F32())
	}
	// Same executable, different data, different output shape.
	got, err = machine.InvokeTensorsContext(context.Background(), "main", tensor.Scalar(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumElements() != 2 {
		t.Errorf("second arange len = %d", got.NumElements())
	}
}

func TestCompileUpperBoundNMS(t *testing.T) {
	boxes := ir.NewVar("boxes", ir.TT(tensor.Float32, anyd, 5))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{boxes},
		ir.CallOpAttrs("nms", ir.Attrs{"iou_threshold": 0.5}, boxes), nil))
	machine, _ := mustCompile(t, mod, Options{})
	in := tensor.FromF32([]float32{
		0.9, 0, 0, 10, 10,
		0.8, 1, 1, 11, 11,
		0.7, 50, 50, 60, 60,
	}, 3, 5)
	got, err := machine.InvokeTensorsContext(context.Background(), "main", in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape().Equal(tensor.Shape{2, 5}) {
		t.Errorf("nms precise shape = %v", got.Shape())
	}
}

func TestCompileClosureValue(t *testing.T) {
	f32 := tensor.Float32
	x := ir.NewVar("x", ir.TT(f32, 2))
	y := ir.NewVar("y", ir.TT(f32, 2))
	clos := ir.NewFunc([]*ir.Var{y}, ir.CallOp("add", x, y), nil)
	f := ir.NewVar("f", nil)
	body := ir.NewLet(f, clos, ir.NewCall(f, []ir.Expr{x}, nil))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x}, body, nil))
	machine, _ := mustCompile(t, mod, Options{})
	got, err := machine.InvokeTensorsContext(context.Background(), "main", tensor.FromF32([]float32{1, 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tensor.FromF32([]float32{2, 4}, 2)) {
		t.Errorf("closure = %v", got.F32())
	}
}

// TestCompileRejectsDispatchWidth pins that Compile validates the dispatch
// width before any pass runs: whether or not the module calls an operator
// whose kernel would read it, and ahead of the type error an ill-typed
// module would hit in the first pass.
func TestCompileRejectsDispatchWidth(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4))
	y := ir.NewVar("y", ir.TT(tensor.Float32, 5))
	for name, body := range map[string]ir.Expr{
		"tanh":      ir.CallOp("tanh", x),
		"identity":  x,
		"ill-typed": ir.CallOp("add", x, y),
	} {
		mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, y}, body, nil))
		_, err := Compile(mod, Options{Codegen: codegen.Options{Dispatch: 3}})
		if err == nil || !strings.Contains(err.Error(), "dispatch width 3") {
			t.Errorf("%s: err = %v, want the dispatch width rejected", name, err)
		}
	}
}

func TestAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 8))
	b := ir.NewBuilder()
	d := b.Op("dense", x, w)
	s := b.Op("sigmoid", d)
	out := b.OpAttrs("concat", ir.Attrs{"axis": 0}, s, x)
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, w}, b.Finish(out), nil))
	xs := tensor.Random(rng, 1, 5, 8)
	ws := tensor.Random(rng, 1, 8, 8)

	var ref *tensor.Tensor
	for i, opts := range []Options{
		{},
		{DisableFusion: true},
		{DisableCoalescing: true},
		{DisableMemoryPlanning: true},
		{DisableFusion: true, DisableMemoryPlanning: true},
	} {
		machine, res := mustCompile(t, mod, opts)
		if opts.DisableFusion && res.Stats.Fusion.Groups != 0 ||
			opts.DisableMemoryPlanning && res.Stats.Alloc != (passes.AllocStats{}) ||
			(opts.DisableCoalescing || opts.DisableMemoryPlanning) && res.Stats.Coalesce != (passes.CoalesceStats{}) {
			t.Errorf("config %d: a dropped pass reported %+v", i, res.Stats.Stats)
		}
		got, err := machine.InvokeTensorsContext(context.Background(), "main", xs, ws)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !got.AllClose(ref, 1e-4, 1e-5) {
			t.Errorf("config %d disagrees with default pipeline", i)
		}
	}
}

func TestSerializedExecutableRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 4))
	w := ir.Const(tensor.Random(rng, 1, 4, 4))
	b := ir.NewBuilder()
	d := b.Op("dense", x, w)
	out := b.Op("tanh", d)
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	_, res := mustCompile(t, mod, Options{})

	var buf bytes.Buffer
	if _, err := res.Exe.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := vm.ReadExecutable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LinkKernels(res.Registry); err != nil {
		t.Fatal(err)
	}
	xs := tensor.Random(rng, 1, 3, 4)
	got, err := vm.New(loaded).InvokeTensorsContext(context.Background(), "main", xs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vm.New(res.Exe).InvokeTensorsContext(context.Background(), "main", xs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("deserialized executable disagrees with original")
	}
}

func TestCompileStatsPopulated(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 16))
	b := ir.NewBuilder()
	h := b.Op("sigmoid", x)
	h2 := b.Op("tanh", h)
	out := b.Op("relu", h2)
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	_, res := mustCompile(t, mod, Options{})
	if res.Stats.Instructions == 0 || res.Stats.Kernels == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if res.Stats.Alloc.StaticAllocs == 0 {
		t.Errorf("no static allocs recorded: %+v", res.Stats.Alloc)
	}
}

func TestCompileGPUPlacementInsertsNoSpuriousCopies(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 4))
	y := ir.NewVar("y", ir.TT(tensor.Float32, 1, 4))
	mod := singleFuncModule(ir.NewFunc([]*ir.Var{x, y},
		ir.CallOpAttrs("concat", ir.Attrs{"axis": 0}, x, y), nil))
	_, res := mustCompile(t, mod, Options{Target: ir.GPU(0)})
	if res.Stats.Placement.CopiesInserted != 0 {
		t.Errorf("spurious copies: %+v", res.Stats.Placement)
	}
	if res.Stats.Placement.CPUVars == 0 {
		t.Error("shape pipeline not pinned to CPU")
	}
	// The compiled program still runs (host executes "GPU" kernels).
	machine := vm.New(res.Exe)
	got, err := machine.InvokeTensorsContext(context.Background(), "main",
		tensor.New(tensor.Float32, 2, 4), tensor.New(tensor.Float32, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shape().Equal(tensor.Shape{3, 4}) {
		t.Errorf("gpu-target result shape = %v", got.Shape())
	}
}
