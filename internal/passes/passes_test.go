package passes

import (
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/codegen"
	"nimble/internal/ir"
	"nimble/internal/tensor"
	"nimble/internal/typeinfer"
)

const anyd = ir.DimAny

func inferred(t *testing.T, fn *ir.Function) *ir.Module {
	t.Helper()
	m := ir.NewModule()
	m.AddFunc("main", fn)
	if err := typeinfer.InferModule(m); err != nil {
		t.Fatalf("infer: %v", err)
	}
	return m
}

func runPass(t *testing.T, m *ir.Module, p Pass) {
	t.Helper()
	if p.NeedsTypes {
		if err := typeinfer.InferModule(m); err != nil {
			t.Fatalf("re-infer before %s: %v", p.Name, err)
		}
	}
	if err := p.Run(m); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
}

func mainBody(t *testing.T, m *ir.Module) ir.Expr {
	t.Helper()
	fn, err := m.Main()
	if err != nil {
		t.Fatal(err)
	}
	return fn.Body
}

// --- ANF ---

func TestANFFlattensNestedCalls(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2, 2))
	// relu(sigmoid(tanh(x)))
	e := ir.CallOp("relu", ir.CallOp("sigmoid", ir.CallOp("tanh", x)))
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, e, nil))
	runPass(t, m, ANF())
	body := mainBody(t, m)
	bs, result := splitChain(body)
	if len(bs) != 2 {
		t.Fatalf("expected 2 bindings, got %d:\n%s", len(bs), ir.Print(body))
	}
	// Every call operand must now be atomic.
	ir.Visit(body, func(e ir.Expr) bool {
		if c, ok := e.(*ir.Call); ok {
			for _, a := range c.Args {
				if !isAtomic(a) {
					t.Errorf("non-atomic arg %s", ir.ExprKind(a))
				}
			}
		}
		return true
	})
	if _, ok := result.(*ir.Call); !ok {
		t.Errorf("tail should remain a call, got %s", ir.ExprKind(result))
	}
}

func TestANFKeepsBranchesInTailPosition(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	c := ir.NewVar("c", ir.BoolType())
	e := ir.CallOp("relu", &ir.If{Cond: c, Then: x, Else: ir.CallOp("sigmoid", x)})
	m := inferred(t, ir.NewFunc([]*ir.Var{x, c}, e, nil))
	runPass(t, m, ANF())
	body := mainBody(t, m)
	// The If must be let-bound (it is an operand), and its branches must be
	// normalized chains.
	bs, _ := splitChain(body)
	foundIf := false
	for _, b := range bs {
		if iff, ok := b.value.(*ir.If); ok {
			foundIf = true
			if !isAtomic(iff.Cond) {
				t.Error("if condition not atomic")
			}
		}
	}
	if !foundIf {
		t.Fatalf("if not let-bound:\n%s", ir.Print(body))
	}
}

func TestANFIdempotent(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2, 2))
	e := ir.CallOp("relu", ir.CallOp("sigmoid", x))
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, e, nil))
	runPass(t, m, ANF())
	first := ir.Print(mainBody(t, m))
	runPass(t, m, ANF())
	second := ir.Print(mainBody(t, m))
	if first != second {
		t.Errorf("ANF not idempotent:\n%s\nvs\n%s", first, second)
	}
}

// --- Constant folding ---

func TestConstantFold(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	// add(const 2, const 3) -> const 5; then multiply(x, 5) stays.
	b := ir.NewBuilder()
	c := b.Op("add", ir.ConstScalar(2), ir.ConstScalar(3))
	out := b.Op("multiply", x, c)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ConstantFold())
	runPass(t, m, DCE())
	body := ir.Print(mainBody(t, m))
	if !strings.Contains(body, "const(5") {
		t.Errorf("fold missing:\n%s", body)
	}
	if strings.Contains(body, "add") {
		t.Errorf("folded add still present:\n%s", body)
	}
}

func TestConstantFoldChains(t *testing.T) {
	// Folding through let-bound intermediates: relu(neg(const -3)) -> 3...
	// negative(-3)=3, relu(3)=3.
	b := ir.NewBuilder()
	n := b.Op("negative", ir.ConstScalar(-3))
	out := b.Op("relu", n)
	m := inferred(t, ir.NewFunc(nil, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ConstantFold())
	runPass(t, m, DCE())
	body := ir.Print(mainBody(t, m))
	if !strings.Contains(body, "const(3") || strings.Contains(body, "relu") {
		t.Errorf("chained fold failed:\n%s", body)
	}
}

func TestConstantFoldSkipsNonConst(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, ir.CallOp("relu", x), nil))
	runPass(t, m, ConstantFold())
	if !strings.Contains(ir.Print(mainBody(t, m)), "relu") {
		t.Error("non-constant call folded")
	}
}

// --- DCE ---

func TestDCERemovesDeadChains(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	b := ir.NewBuilder()
	dead1 := b.Op("sigmoid", x)
	_ = b.Op("tanh", dead1) // dead, and killing it makes dead1 dead too
	live := b.Op("relu", x)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(live), nil))
	runPass(t, m, DCE())
	body := ir.Print(mainBody(t, m))
	if strings.Contains(body, "sigmoid") || strings.Contains(body, "tanh") {
		t.Errorf("dead bindings survive:\n%s", body)
	}
	if !strings.Contains(body, "relu") {
		t.Errorf("live binding removed:\n%s", body)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 2))
	b := ir.NewBuilder()
	_ = b.Bind("k", ir.CallOp(ir.OpKill, x))
	out := b.Op("relu", x)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, DCE())
	if !strings.Contains(ir.Print(mainBody(t, m)), "kill") {
		t.Error("side-effecting kill removed")
	}
}

// --- Fusion ---

func TestFuseDenseEpilogue(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 4))
	bias := ir.NewVar("b", ir.TT(tensor.Float32, 4))
	b := ir.NewBuilder()
	d := b.Op("dense", x, w)
	ba := b.Op("bias_add", d, bias)
	out := b.Op("relu", ba)
	m := inferred(t, ir.NewFunc([]*ir.Var{x, w, bias}, b.Finish(out), nil))
	runPass(t, m, ANF())
	var stats FusionStats
	runPass(t, m, FuseOpsWithStats(&stats))
	if stats.Groups != 1 || stats.OpsFused != 3 {
		t.Errorf("stats = %+v, want 1 group of 3", stats)
	}
	body := ir.Print(mainBody(t, m))
	if !strings.Contains(body, "(dense+bias_add+relu)") {
		t.Errorf("fused op missing:\n%s", body)
	}
	// Semantics preserved: evaluate fused op directly.
	fusedOp := fusedOpOf(t, m)
	xs := tensor.FromF32([]float32{1, 0, 0, 0, 0, 0, 0, 0}, 1, 8)
	ws := tensor.New(tensor.Float32, 8, 4)
	ws.F32()[0] = -2 // x@w = [-2,0,0,0]
	bb := tensor.FromF32([]float32{1, 1, 1, 1}, 4)
	got, err := fusedOp.Eval([]*tensor.Tensor{xs, ws, bb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FromF32([]float32{0, 1, 1, 1}, 1, 4) // relu(-2+1)=0, relu(0+1)=1
	if !got.Equal(want) {
		t.Errorf("fused eval = %v, want %v", got.F32(), want.F32())
	}
	// Composed shape function works.
	shapes, err := fusedOp.Shape.Fn([]tensor.Shape{{7, 8}, {8, 4}, {4}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !shapes[0].Equal(tensor.Shape{7, 4}) {
		t.Errorf("fused shape = %v", shapes[0])
	}
}

// fusedOpOf returns the fused operator in main's top-level chain.
func fusedOpOf(t *testing.T, m *ir.Module) *ir.Op {
	t.Helper()
	bs, _ := splitChain(mainBody(t, m))
	for _, bd := range bs {
		if _, op := opCall(bd.value); op != nil && strings.HasPrefix(op.Name, "fused") {
			return op
		}
	}
	t.Fatal("fused op not found in chain")
	return nil
}

// TestFusedGroupWritesPlannedBufferInPlace compiles a dense+bias_add+gelu
// group and hands its kernel a planned output: every member writes that
// buffer, so the call allocates nothing. An output whose backing range
// overlaps an argument (at a different first element) must take the
// materializing path and still give the same values.
func TestFusedGroupWritesPlannedBufferInPlace(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 16))
	bias := ir.NewVar("b", ir.TT(tensor.Float32, 16))
	b := ir.NewBuilder()
	out := b.Op("gelu", b.Op("bias_add", b.Op("dense", x, w), bias))
	m := inferred(t, ir.NewFunc([]*ir.Var{x, w, bias}, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, FuseOps())
	k, err := codegen.ForOp(fusedOpOf(t, m), nil, nil, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	xs, ws, bs := tensor.Random(rng, 1, 5, 8), tensor.Random(rng, 1, 8, 16), tensor.Random(rng, 1, 16)
	args := []*tensor.Tensor{xs, ws, bs}
	want, err := k.Fn(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned := tensor.New(tensor.Float32, 5, 16)
	if got, err := k.Fn(args, planned); err != nil || got != planned || !got.Equal(want) {
		t.Fatalf("planned call: got planned buffer %v, equal %v, err %v", got == planned, got.Equal(want), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := k.Fn(args, planned); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused dense+bias_add+gelu: %v allocs/op with a planned buffer, want 0", n)
	}

	// x's last row shares memory with the output's first rows: writing the
	// output in place would clobber it before the dense member reads it.
	buf := make([]float32, 32+5*16)
	xo := tensor.FromF32(buf[:40], 5, 8)
	copy(xo.F32(), xs.F32())
	overlapping := tensor.FromF32(buf[32:], 5, 16)
	got, err := k.Fn([]*tensor.Tensor{xo, ws, bs}, overlapping)
	if err != nil || !got.Equal(want) {
		t.Errorf("overlapping output: result differs from the separate-buffer run (err %v)", err)
	}
}

func TestFusePolicyBlocksDataDependent(t *testing.T) {
	// arange (data-dependent shape) must not fuse with its consumer (§4.2).
	b := ir.NewBuilder()
	r := b.Op("arange", ir.ConstScalar(0), ir.ConstScalar(5), ir.ConstScalar(1))
	out := b.Op("sigmoid", r)
	m := inferred(t, ir.NewFunc(nil, b.Finish(out), nil))
	runPass(t, m, ANF())
	var stats FusionStats
	runPass(t, m, FuseOpsWithStats(&stats))
	if stats.Groups != 0 {
		t.Errorf("data-dependent producer fused: %+v", stats)
	}
}

func TestFuseStopsAtMultiUse(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4, 4))
	b := ir.NewBuilder()
	s := b.Op("sigmoid", x)
	t1 := b.Op("tanh", s)
	// s used twice: once by tanh, once by add — chain must not fuse through s.
	out := b.Op("add", t1, s)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, ANF())
	var stats FusionStats
	runPass(t, m, FuseOpsWithStats(&stats))
	for _, g := range []int{stats.Groups} {
		if g > 1 {
			t.Errorf("over-fused: %+v", stats)
		}
	}
	// tanh+add can fuse (t1 single use feeding add).
	body := ir.Print(mainBody(t, m))
	if strings.Contains(body, "(sigmoid+tanh") {
		t.Errorf("fused through multi-use value:\n%s", body)
	}
}

func TestFuseTwoOutFusablesDoNotMerge(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4, 8))
	w1 := ir.NewVar("w1", ir.TT(tensor.Float32, 8, 8))
	w2 := ir.NewVar("w2", ir.TT(tensor.Float32, 8, 8))
	b := ir.NewBuilder()
	d1 := b.Op("dense", x, w1)
	d2 := b.Op("dense", d1, w2)
	m := inferred(t, ir.NewFunc([]*ir.Var{x, w1, w2}, b.Finish(d2), nil))
	runPass(t, m, ANF())
	var stats FusionStats
	runPass(t, m, FuseOpsWithStats(&stats))
	if stats.Groups != 0 {
		t.Errorf("two matmuls fused together: %+v", stats)
	}
}

// --- Memory planning ---

func TestManifestAllocStatic(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 10))
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, ir.CallOp("add", x, x), nil))
	runPass(t, m, ANF())
	var stats AllocStats
	runPass(t, m, ManifestAllocWithStats(ir.CPU(0), &stats))
	body := ir.Print(mainBody(t, m))
	// The paper's first transformation example: a single static buffer of
	// 40 bytes for a Tensor<10> add.
	for _, want := range []string{"memory.alloc_storage", "size=40", "memory.alloc_tensor", "memory.invoke_mut"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q:\n%s", want, body)
		}
	}
	if stats.StaticAllocs != 1 || stats.DynamicAllocs != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestManifestAllocDynamicConcat(t *testing.T) {
	// The §4.3 concat example: dynamic output needs shape_of + shape_func
	// before allocation.
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 2))
	y := ir.NewVar("y", ir.TT(tensor.Float32, 1, 2))
	m := inferred(t, ir.NewFunc([]*ir.Var{x, y},
		ir.CallOpAttrs("concat", ir.Attrs{"axis": 0}, x, y), nil))
	runPass(t, m, ANF())
	var stats AllocStats
	runPass(t, m, ManifestAllocWithStats(ir.CPU(0), &stats))
	body := ir.Print(mainBody(t, m))
	for _, want := range []string{"vm.shape_of", "vm.shape_func", "memory.alloc_tensor_reg", "memory.invoke_mut"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q:\n%s", want, body)
		}
	}
	if stats.DynamicAllocs != 1 || stats.ShapeFuncs != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// Both inputs' shapes feed the shape function.
	if strings.Count(body, "vm.shape_of") != 2 {
		t.Errorf("expected 2 shape_of calls:\n%s", body)
	}
}

func TestManifestAllocDataDependentPassesValues(t *testing.T) {
	b := ir.NewBuilder()
	out := b.Op("arange", ir.ConstScalar(0), ir.ConstScalar(5), ir.ConstScalar(1))
	m := inferred(t, ir.NewFunc(nil, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.CPU(0)))
	body := ir.Print(mainBody(t, m))
	// Data-dependent: no shape_of; values flow straight into the shape func.
	if strings.Contains(body, "vm.shape_of") {
		t.Errorf("data-dependent shape func got shape_of:\n%s", body)
	}
	if !strings.Contains(body, "vm.shape_func") {
		t.Errorf("shape_func missing:\n%s", body)
	}
}

func TestManifestInsertsKills(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 8))
	b := ir.NewBuilder()
	h1 := b.Op("sigmoid", x)
	h2 := b.Op("tanh", h1) // h1 dead after this
	out := b.Op("relu", h2)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, ANF())
	var stats AllocStats
	runPass(t, m, ManifestAllocWithStats(ir.CPU(0), &stats))
	if stats.Kills < 2 {
		t.Errorf("expected kills for h1 and h2, stats = %+v\n%s", stats, ir.Print(mainBody(t, m)))
	}
	body := ir.Print(mainBody(t, m))
	if !strings.Contains(body, "memory.kill") {
		t.Errorf("kill missing:\n%s", body)
	}
}

// --- Storage coalescing ---

func TestCoalesceReusesFreedStorage(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 64))
	b := ir.NewBuilder()
	h1 := b.Op("sigmoid", x)
	h2 := b.Op("tanh", h1)
	h3 := b.Op("relu", h2)
	out := b.Op("negative", h3)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.CPU(0)))
	var stats CoalesceStats
	runPass(t, m, CoalesceStorageWithStats(&stats))
	if stats.Before != 4 {
		t.Fatalf("expected 4 allocations before, got %+v", stats)
	}
	// h1's storage is dead once h2 is computed, so h3 can reuse it, and so
	// on: a chain of same-size ops needs only 2 live buffers.
	if stats.After != 2 {
		t.Errorf("expected 2 allocations after coalescing, got %+v\n%s", stats, ir.Print(mainBody(t, m)))
	}
	if stats.Reuses() != 2 {
		t.Errorf("Reuses = %d", stats.Reuses())
	}
	if stats.BytesAfter >= stats.BytesBefore {
		t.Errorf("bytes did not shrink: %+v", stats)
	}
}

func TestCoalesceRespectsSizes(t *testing.T) {
	// A freed small buffer must not satisfy a larger request.
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4))
	big := ir.NewVar("big", ir.TT(tensor.Float32, 4, 100))
	b := ir.NewBuilder()
	h1 := b.Op("sigmoid", x)    // 16 bytes
	h2 := b.Op("tanh", h1)      // 16 bytes, h1 freed after
	t3 := b.Op("add", big, big) // 1600 bytes: must NOT reuse h1's storage
	pair := b.Bind("pair", &ir.Tuple{Fields: []ir.Expr{h2, t3}})
	m := inferred(t, ir.NewFunc([]*ir.Var{x, big}, b.Finish(pair), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.CPU(0)))
	var stats CoalesceStats
	runPass(t, m, CoalesceStorageWithStats(&stats))
	if stats.After != stats.Before {
		t.Errorf("undersized storage was reused: %+v\n%s", stats, ir.Print(mainBody(t, m)))
	}
}

// --- Device placement ---

func TestPlaceDevicesPinsShapeFuncsToCPU(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 2))
	y := ir.NewVar("y", ir.TT(tensor.Float32, 1, 2))
	m := inferred(t, ir.NewFunc([]*ir.Var{x, y},
		ir.CallOpAttrs("concat", ir.Attrs{"axis": 0}, x, y), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.GPU(0)))
	var stats PlacementStats
	runPass(t, m, PlaceDevicesWithStats(ir.GPU(0), &stats))
	body := ir.Print(mainBody(t, m))
	// Kernel inputs x, y default to GPU; shape tensors stay on CPU; no
	// copies are needed because shape_of reads metadata from any domain.
	if stats.CopiesInserted != 0 {
		t.Errorf("unnecessary copies inserted: %+v\n%s", stats, body)
	}
	if stats.CPUVars == 0 {
		t.Errorf("no CPU-domain vars found: %+v", stats)
	}
	if !strings.Contains(body, "device=2") { // invoke_mut annotated gpu
		t.Errorf("kernel not annotated with gpu device:\n%s", body)
	}
}

func TestPlaceDevicesInsertsMandatoryCopy(t *testing.T) {
	// A data-dependent shape function (arange) whose inputs are produced on
	// GPU: the values must be copied to CPU — the §4.4 overhead case.
	s := ir.NewVar("s", ir.TT(tensor.Float32))
	b := ir.NewBuilder()
	// stop = relu(s) executes on GPU; arange(0, stop, 1) shape func needs it
	// on CPU.
	stop := b.Op("relu", s)
	out := b.Op("arange", ir.ConstScalar(0), stop, ir.ConstScalar(1))
	m := inferred(t, ir.NewFunc([]*ir.Var{s}, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.GPU(0)))
	var stats PlacementStats
	runPass(t, m, PlaceDevicesWithStats(ir.GPU(0), &stats))
	body := ir.Print(mainBody(t, m))
	if stats.CopiesInserted == 0 {
		t.Fatalf("expected a device copy:\n%s", body)
	}
	if !strings.Contains(body, "device_copy") {
		t.Errorf("device_copy missing:\n%s", body)
	}
}

func TestPlaceDevicesAllCPUNeedsNoCopies(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 4))
	b := ir.NewBuilder()
	h := b.Op("sigmoid", x)
	out := b.Op("tanh", h)
	m := inferred(t, ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))
	runPass(t, m, ANF())
	runPass(t, m, ManifestAlloc(ir.CPU(0)))
	var stats PlacementStats
	runPass(t, m, PlaceDevicesWithStats(ir.CPU(0), &stats))
	if stats.CopiesInserted != 0 {
		t.Errorf("CPU-only program got copies: %+v", stats)
	}
}

// --- Full pipeline ---

func TestDefaultPipelineRuns(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8))
	w := ir.NewVar("w", ir.TT(tensor.Float32, 8, 8))
	bias := ir.NewVar("bias", ir.TT(tensor.Float32, 8))
	b := ir.NewBuilder()
	d := b.Op("dense", x, w)
	ba := b.Op("bias_add", d, bias)
	act := b.Op("tanh", ba)
	out := b.OpAttrs("concat", ir.Attrs{"axis": 0}, act, x)
	m := inferred(t, ir.NewFunc([]*ir.Var{x, w, bias}, b.Finish(out), nil))
	mgr := DefaultPipeline(ir.CPU(0))
	var traced []string
	mgr.Trace = func(s string) { traced = append(traced, s) }
	if err := mgr.Run(m); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(traced) != 8 {
		t.Errorf("expected 8 passes, traced %v", traced)
	}
	body := ir.Print(mainBody(t, m))
	// concat is injective with a data-independent shape function, so the
	// §4.2 policy allows it into the group.
	for _, want := range []string{"(dense+bias_add+tanh+concat)", "memory.invoke_mut", "vm.shape_func"} {
		if !strings.Contains(body, want) {
			t.Errorf("pipeline output missing %q:\n%s", want, body)
		}
	}
}

func TestUnionFind(t *testing.T) {
	a, b, c := &domain{}, &domain{}, &domain{dev: ir.CPU(0)}
	if err := union(a, b); err != nil {
		t.Fatal(err)
	}
	if err := union(b, c); err != nil {
		t.Fatal(err)
	}
	if a.find().dev != ir.CPU(0) {
		t.Errorf("device did not propagate: %v", a.find().dev)
	}
	d := &domain{dev: ir.GPU(0)}
	if err := union(a, d); err == nil {
		t.Error("conflicting union accepted")
	}
	// Union is idempotent on same class.
	if err := union(a, b); err != nil {
		t.Errorf("re-union failed: %v", err)
	}
}
