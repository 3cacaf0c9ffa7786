package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"nimble/internal/tensor"
)

func TestDimBasics(t *testing.T) {
	d := StaticDim(5)
	if d.IsAny() || d.Static() != 5 || d.String() != "5" {
		t.Errorf("StaticDim broken: %v", d)
	}
	a := AnyDim()
	if !a.IsAny() || a.String() != "Any" {
		t.Errorf("AnyDim broken: %v", a)
	}
	s := SymDim(3)
	if !s.IsAny() || s.String() != "Any#3" {
		t.Errorf("SymDim broken: %v", s)
	}
	if !a.Equal(AnyDim()) || a.Equal(s) || d.Equal(StaticDim(6)) {
		t.Error("Dim.Equal broken")
	}
	assertPanic(t, "negative dim", func() { StaticDim(-2) })
	assertPanic(t, "Static on Any", func() { AnyDim().Static() })
}

func TestTensorType(t *testing.T) {
	tt := TT(tensor.Float32, 1, 10, DimAny)
	if got := tt.String(); got != "Tensor[(1, 10, Any), float32]" {
		t.Errorf("String = %q", got)
	}
	if tt.IsStatic() {
		t.Error("dynamic type reported static")
	}
	if _, ok := tt.StaticShape(); ok {
		t.Error("StaticShape on dynamic type succeeded")
	}
	st := TT(tensor.Float32, 2, 3)
	shape, ok := st.StaticShape()
	if !ok || !shape.Equal(tensor.Shape{2, 3}) {
		t.Errorf("StaticShape = %v, %v", shape, ok)
	}
	n, ok := st.NumElementsUpperBound()
	if !ok || n != 6 {
		t.Errorf("NumElementsUpperBound = %d, %v", n, ok)
	}
	if !st.EqualType(TT(tensor.Float32, 2, 3)) || st.EqualType(tt) || st.EqualType(TT(tensor.Int64, 2, 3)) {
		t.Error("EqualType broken")
	}
}

func TestSubShaping(t *testing.T) {
	// Sub-shaping (§4.1): a more specific shape flows into a less specific
	// context, never the reverse.
	specific := TT(tensor.Float32, 5, 3)
	dynamic := TT(tensor.Float32, 5, DimAny)
	if !specific.AssignableTo(dynamic) {
		t.Error("specific should be assignable to dynamic")
	}
	if dynamic.AssignableTo(specific) {
		t.Error("dynamic should not be assignable to specific")
	}
	if !specific.AssignableTo(specific) || !dynamic.AssignableTo(dynamic) {
		t.Error("assignability should be reflexive")
	}
	if specific.AssignableTo(TT(tensor.Float32, 6, DimAny)) {
		t.Error("mismatched static dim accepted")
	}
	if specific.AssignableTo(TT(tensor.Int64, 5, DimAny)) {
		t.Error("dtype mismatch accepted")
	}
}

func TestCompositeTypes(t *testing.T) {
	tup := &TupleType{Fields: []Type{TT(tensor.Float32, 2), BoolType()}}
	if tup.String() != "(Tensor[(2), float32], Tensor[(), bool])" {
		t.Errorf("TupleType.String = %q", tup.String())
	}
	if !tup.EqualType(&TupleType{Fields: []Type{TT(tensor.Float32, 2), BoolType()}}) {
		t.Error("TupleType equality broken")
	}
	fn := &FuncType{Params: []Type{TT(tensor.Float32, 2)}, Ret: BoolType()}
	if !strings.Contains(fn.String(), "fn(") {
		t.Errorf("FuncType.String = %q", fn.String())
	}
	if fn.EqualType(tup) || tup.EqualType(fn) {
		t.Error("cross-kind equality broken")
	}
	td := NewTypeDef("Tree", NewConstructor("Leaf", TT(tensor.Float32, 1, 4)), NewConstructor("Node"))
	adt := td.Type()
	if adt.String() != "Tree" || !adt.EqualType(td.Type()) {
		t.Error("ADTType broken")
	}
	st := &StorageType{}
	if st.String() != "Storage" || !st.EqualType(&StorageType{}) {
		t.Error("StorageType broken")
	}
}

func TestBroadcastRelPaperRules(t *testing.T) {
	f32 := tensor.Float32
	cases := []struct {
		a, b Dim
		want string
	}{
		{AnyDim(), StaticDim(1), "Any"},
		{AnyDim(), StaticDim(4), "4"},
		{AnyDim(), AnyDim(), "Any"},
		{StaticDim(1), AnyDim(), "Any"},
		{StaticDim(4), AnyDim(), "4"},
		{SymDim(2), StaticDim(1), "Any#2"},
		{SymDim(2), SymDim(2), "Any#2"},
		{SymDim(2), SymDim(3), "Any"},
	}
	for _, c := range cases {
		got, err := BroadcastRel([]Type{
			&TensorType{Dims: []Dim{c.a}, DType: f32},
			&TensorType{Dims: []Dim{c.b}, DType: f32},
		}, nil)
		if err != nil {
			t.Errorf("BroadcastRel(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got.(*TensorType).Dims[0].String() != c.want {
			t.Errorf("BroadcastRel(%v, %v) = %v, want %v", c.a, c.b, got.(*TensorType).Dims[0], c.want)
		}
	}
	// Static mismatch is a compile-time error.
	if _, err := BroadcastRel([]Type{TT(f32, 3), TT(f32, 4)}, nil); err == nil {
		t.Error("static broadcast mismatch accepted")
	}
	// Dtype mismatch.
	if _, err := BroadcastRel([]Type{TT(f32, 3), TT(tensor.Int64, 3)}, nil); err == nil {
		t.Error("dtype mismatch accepted")
	}
	// Paper's contamination example: arange output (Any,) + (5, 1) -> (5, Any).
	got, err := BroadcastRel([]Type{TT(f32, DimAny), TT(f32, 5, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "Tensor[(5, Any), float32]" {
		t.Errorf("contamination example = %s", got)
	}
}

func TestBroadcastRelProperty(t *testing.T) {
	// Property: the type relation commutes, matching runtime broadcasting.
	f := func(aRaw, bRaw []int8) bool {
		mk := func(raw []int8) *TensorType {
			dims := make([]Dim, 0, 3)
			for i, r := range raw {
				if i == 3 {
					break
				}
				switch r % 3 {
				case 0:
					dims = append(dims, AnyDim())
				case 1, -1:
					dims = append(dims, StaticDim(1))
				default:
					dims = append(dims, StaticDim(4))
				}
			}
			return &TensorType{Dims: dims, DType: tensor.Float32}
		}
		ta, tb := mk(aRaw), mk(bRaw)
		r1, e1 := BroadcastRel([]Type{ta, tb}, nil)
		r2, e2 := BroadcastRel([]Type{tb, ta}, nil)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true
		}
		return r1.EqualType(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDenseRel(t *testing.T) {
	f32 := tensor.Float32
	got, err := denseRel([]Type{TT(f32, DimAny, 300), TT(f32, 300, 512)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "Tensor[(Any, 512), float32]" {
		t.Errorf("denseRel = %s", got)
	}
	if _, err := denseRel([]Type{TT(f32, 2, 3), TT(f32, 4, 5)}, nil); err == nil {
		t.Error("reduction mismatch accepted")
	}
	// Any unifies gradually.
	if _, err := denseRel([]Type{TT(f32, 2, DimAny), TT(f32, 4, 5)}, nil); err != nil {
		t.Errorf("Any reduction rejected: %v", err)
	}
}

func TestConcatRel(t *testing.T) {
	f32 := tensor.Float32
	// Static + static.
	got, err := concatRel([]Type{TT(f32, 2, 4), TT(f32, 3, 4)}, Attrs{"axis": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "Tensor[(5, 4), float32]" {
		t.Errorf("concat static = %s", got)
	}
	// The paper's §4.3 example: (Any, 2) ++ (1, 2) -> (Any, 2).
	got, err = concatRel([]Type{TT(f32, DimAny, 2), TT(f32, 1, 2)}, Attrs{"axis": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "Tensor[(Any, 2), float32]" {
		t.Errorf("concat dynamic = %s", got)
	}
	// Non-axis mismatch rejected.
	if _, err := concatRel([]Type{TT(f32, 2, 4), TT(f32, 2, 5)}, Attrs{"axis": 0}); err == nil {
		t.Error("non-axis mismatch accepted")
	}
	// Sub-shaping refinement: Any non-axis dim refined by static input.
	got, err = concatRel([]Type{TT(f32, 2, DimAny), TT(f32, 3, 7)}, Attrs{"axis": 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "Tensor[(5, 7), float32]" {
		t.Errorf("concat refinement = %s", got)
	}
}

// TestDensePackedRel types dense_packed against its panels: the packed B
// must hold n columns rounded up to whole 16-column panels.
func TestDensePackedRel(t *testing.T) {
	f32 := tensor.Float32
	got, err := densePackedRel([]Type{TT(f32, DimAny, 8), TT(f32, 8, 32)}, Attrs{"units": 20})
	if err != nil || got.String() != "Tensor[(Any, 20), float32]" {
		t.Errorf("dense_packed [Any,8] x [8,32]{units=20} = %v, %v", got, err)
	}
	for _, bad := range []struct {
		p     Type
		units int
	}{{TT(f32, 8, 16), 20}, {TT(f32, 8, 48), 20}, {TT(f32, 7, 32), 20}, {TT(f32, 8, DimAny), 20}, {TT(f32, 8, 32), -1}} {
		if _, err := densePackedRel([]Type{TT(f32, DimAny, 8), bad.p}, Attrs{"units": bad.units}); err == nil {
			t.Errorf("dense_packed accepted panels %s for units %d", bad.p, bad.units)
		}
	}
}

func TestShapeFuncModes(t *testing.T) {
	// Registered modes match the paper's taxonomy.
	cases := map[string]ShapeFuncMode{
		"dense":  ShapeDataIndependent,
		"conv2d": ShapeDataIndependent,
		"concat": ShapeDataIndependent,
		"arange": ShapeDataDependent,
		"unique": ShapeDataDependent,
		"nms":    ShapeUpperBound,
	}
	for name, want := range cases {
		op := MustGetOp(name)
		if op.Shape.Mode != want {
			t.Errorf("%s shape mode = %v, want %v", name, op.Shape.Mode, want)
		}
	}
	if ShapeDataIndependent.String() != "data-independent" ||
		ShapeDataDependent.String() != "data-dependent" ||
		ShapeUpperBound.String() != "upper-bound" {
		t.Error("mode names wrong")
	}
}

func TestArangeShapeFunc(t *testing.T) {
	op := MustGetOp("arange")
	shapes, err := op.Shape.Fn(nil, []*tensor.Tensor{
		tensor.Scalar(0), tensor.Scalar(10), tensor.Scalar(2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !shapes[0].Equal(tensor.Shape{5}) {
		t.Errorf("arange shape = %v", shapes[0])
	}
	if _, err := op.Shape.Fn(nil, nil, nil); err == nil {
		t.Error("data-dependent shape func without values accepted")
	}
}

func TestOpRegistry(t *testing.T) {
	if _, ok := GetOp("add"); !ok {
		t.Fatal("add not registered")
	}
	if _, ok := GetOp("nonexistent"); ok {
		t.Error("nonexistent op found")
	}
	assertPanic(t, "MustGetOp", func() { MustGetOp("nonexistent") })
	assertPanic(t, "duplicate", func() { RegisterOp(&Op{Name: "add"}) })
	names := OpNames()
	if len(names) < 30 {
		t.Errorf("expected a full registry, got %d ops", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("OpNames not sorted")
		}
	}
}

func TestAttrs(t *testing.T) {
	a := Attrs{"axis": 1, "eps": 0.5, "flag": true, "name": "x", "dims": []int{1, 2}}
	if a.Int("axis", 0) != 1 || a.Int("missing", 7) != 7 {
		t.Error("Int broken")
	}
	if a.Float("eps", 0) != 0.5 || a.Float("missing", 2.5) != 2.5 {
		t.Error("Float broken")
	}
	if !a.Bool("flag", false) || a.Bool("missing", true) != true {
		t.Error("Bool broken")
	}
	if a.String("name", "") != "x" || a.String("missing", "d") != "d" {
		t.Error("String broken")
	}
	if got := a.Ints("dims"); len(got) != 2 || got[0] != 1 {
		t.Error("Ints broken")
	}
	var nilAttrs Attrs
	if nilAttrs.Int("x", 3) != 3 || nilAttrs.Ints("x") != nil {
		t.Error("nil attrs broken")
	}
	keys := a.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Error("Keys not sorted")
		}
	}
}

func TestFreeVars(t *testing.T) {
	x := NewVar("x", nil)
	y := NewVar("y", nil)
	z := NewVar("z", nil)
	// let z = x + y in z + x  -> free: x, y
	body := NewLet(z, CallOp("add", x, y), CallOp("add", z, x))
	fv := FreeVars(body)
	if len(fv) != 2 || fv[0] != x || fv[1] != y {
		t.Errorf("FreeVars = %v", varNames(fv))
	}
	// Function params are bound.
	fn := NewFunc([]*Var{x}, CallOp("add", x, y), nil)
	fv = FreeVars(fn)
	if len(fv) != 1 || fv[0] != y {
		t.Errorf("FreeVars(fn) = %v", varNames(fv))
	}
	// Match patterns bind.
	td := NewTypeDef("T", NewConstructor("C", TT(tensor.Float32, 1)))
	v := NewVar("v", nil)
	m := &Match{Data: x, Clauses: []*Clause{
		{Pattern: CtorPat(td.Constructors[0], VarPat(v)), Body: CallOp("add", v, y)},
	}}
	fv = FreeVars(m)
	if len(fv) != 2 || fv[0] != x || fv[1] != y {
		t.Errorf("FreeVars(match) = %v", varNames(fv))
	}
}

func varNames(vs []*Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func TestVisitAndCount(t *testing.T) {
	x := NewVar("x", nil)
	e := NewLet(NewVar("a", nil), CallOp("sigmoid", x), ConstScalar(1))
	count := CountNodes(e)
	// let, var a, call, opref, var x, const = 6
	if count != 6 {
		t.Errorf("CountNodes = %d, want 6", count)
	}
	// Early cutoff.
	n := 0
	Visit(e, func(Expr) bool { n++; return false })
	if n != 1 {
		t.Errorf("Visit cutoff broken: %d", n)
	}
}

func TestRewrite(t *testing.T) {
	x := NewVar("x", nil)
	e := CallOp("add", CallOp("sigmoid", x), ConstScalar(2))
	// Replace all sigmoid calls with tanh.
	got := Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*Call); ok {
			if op, ok := c.Callee.(*OpRef); ok && op.Op.Name == "sigmoid" {
				return CallOp("tanh", c.Args...)
			}
		}
		return n
	})
	if !strings.Contains(Print(got), "tanh") {
		t.Errorf("Rewrite failed: %s", Print(got))
	}
	// Untouched trees are returned unchanged (pointer-equal).
	same := Rewrite(e, func(n Expr) Expr { return n })
	if same != e {
		t.Error("identity rewrite allocated a new tree")
	}
}

func TestPrinter(t *testing.T) {
	x := NewVar("x", TT(tensor.Float32, DimAny, 2))
	y := NewVar("y", TT(tensor.Float32, 1, 2))
	out := NewVar("out", nil)
	fn := NewFunc([]*Var{x, y},
		NewLet(out, CallOpAttrs("concat", Attrs{"axis": 0}, x, y), out),
		TT(tensor.Float32, DimAny, 2))
	m := NewModule()
	m.AddFunc("main", fn)
	text := PrintModule(m)
	for _, want := range []string{"def @main", "Tensor[(Any, 2), float32]", "concat", "axis=0", "let %out"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
	// If/Tuple/Match/TupleGet printing paths.
	td := NewTypeDef("Tree", NewConstructor("Leaf"), NewConstructor("Node"))
	e := &If{
		Cond: ConstBool(true),
		Then: &TupleGet{Tuple: &Tuple{Fields: []Expr{x}}, Index: 0},
		Else: &Match{Data: y, Clauses: []*Clause{
			{Pattern: CtorPat(td.Constructors[0]), Body: x},
			{Pattern: WildcardPat(), Body: y},
		}},
	}
	s := Print(e)
	for _, want := range []string{"if (", "match (", "Leaf", "_", ".0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Print missing %q in:\n%s", want, s)
		}
	}
	// Distinct vars with the same name are disambiguated.
	a1, a2 := NewVar("a", nil), NewVar("a", nil)
	s = Print(CallOp("add", a1, a2))
	if !strings.Contains(s, "%a") || !strings.Contains(s, "%a.1") {
		t.Errorf("name uniquing broken: %s", s)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder()
	x := NewVar("x", nil)
	h := b.Op("sigmoid", x)
	out := b.OpAttrs("sum", Attrs{"axis": 0}, h)
	e := b.Finish(out)
	text := Print(e)
	if !strings.Contains(text, "let %t1 = sigmoid(%x)") {
		t.Errorf("builder chain wrong:\n%s", text)
	}
	if !strings.Contains(text, "sum(%t1){axis=0}") {
		t.Errorf("builder attrs wrong:\n%s", text)
	}
}

func TestADT(t *testing.T) {
	leaf := NewConstructor("Leaf", TT(tensor.Float32, 1, 4))
	node := NewConstructor("Node")
	td := NewTypeDef("Tree", leaf, node)
	if leaf.Tag != 0 || node.Tag != 1 || leaf.Def != td {
		t.Error("constructor wiring broken")
	}
	got, err := td.CtorByName("Node")
	if err != nil || got != node {
		t.Errorf("CtorByName = %v, %v", got, err)
	}
	if _, err := td.CtorByName("Missing"); err == nil {
		t.Error("missing constructor accepted")
	}
	p := CtorPat(node, VarPat(NewVar("l", nil)), WildcardPat())
	if len(p.BoundVars()) != 1 {
		t.Errorf("BoundVars = %v", p.BoundVars())
	}
}

func TestDeviceString(t *testing.T) {
	if CPU(0).String() != "cpu(0)" || GPU(1).String() != "gpu(1)" {
		t.Error("device strings wrong")
	}
	var d Device
	if !d.IsUnknown() || CPU(0).IsUnknown() {
		t.Error("IsUnknown broken")
	}
}

func TestModule(t *testing.T) {
	m := NewModule()
	fn := NewFunc(nil, ConstScalar(1), nil)
	m.AddFunc("main", fn)
	m.AddFunc("aux", fn)
	got, err := m.Main()
	if err != nil || got != fn {
		t.Errorf("Main = %v, %v", got, err)
	}
	if _, err := m.Func("nope"); err == nil {
		t.Error("missing func accepted")
	}
	names := m.FuncNames()
	if len(names) != 2 || names[0] != "aux" {
		t.Errorf("FuncNames = %v", names)
	}
	m.AddTypeDef(NewTypeDef("Tree"))
	if len(m.TypeDefNames()) != 1 {
		t.Error("TypeDefNames broken")
	}
}

func assertPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
