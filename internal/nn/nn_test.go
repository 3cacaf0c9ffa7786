package nn

import (
	"testing"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
	"nimble/internal/typeinfer"
)

func TestInitShapesAndDeterminism(t *testing.T) {
	a := NewInit(5).Xavier(4, 6)
	b := NewInit(5).Xavier(4, 6)
	if !a.Equal(b) {
		t.Error("same seed gave different weights")
	}
	if !a.Shape().Equal(tensor.Shape{4, 6}) {
		t.Errorf("Xavier shape = %v", a.Shape())
	}
	ones := NewInit(1).Ones(3)
	for _, v := range ones.F32() {
		if v != 1 {
			t.Fatal("Ones broken")
		}
	}
	zeros := NewInit(1).Zeros(3)
	for _, v := range zeros.F32() {
		if v != 0 {
			t.Fatal("Zeros broken")
		}
	}
	if NewInit(1).Vector(7).NumElements() != 7 {
		t.Error("Vector length wrong")
	}
}

// TestWeightIsPackedXavier pins Weight to the panels kernels.PackB makes of
// the Xavier draw, value for value, and to the same number of draws, so a
// model's later weights do not move.
func TestWeightIsPackedXavier(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {3, 15}, {5, 16}, {7, 17}, {4, 40}, {2, 150}} {
		a, b := NewInit(9), NewInit(9)
		w := a.Weight(s[0], s[1])
		if want := kernels.PackB(b.Xavier(s[0], s[1])); w.Units != s[1] || !w.Value.Equal(want) {
			t.Errorf("Weight(%d, %d) = %v units %d, want PackB of Xavier", s[0], s[1], w.Value.Shape(), w.Units)
		}
		if a.Rng.Int63() != b.Rng.Int63() {
			t.Errorf("Weight(%d, %d) drew a different number of values than Xavier", s[0], s[1])
		}
	}
}

func TestLinearBuildsTypedIR(t *testing.T) {
	init := NewInit(2)
	l := NewLinear(init, 8, 4)
	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, 8))
	b := ir.NewBuilder()
	out := l.Apply(b, x)
	fn := ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil)
	if err := typeinfer.InferFunc(fn); err != nil {
		t.Fatal(err)
	}
	if got := fn.RetAnn.String(); got != "Tensor[(Any#1, 4), float32]" {
		t.Errorf("linear output type = %s", got)
	}
	// No-bias path types identically.
	x2 := ir.NewVar("x", ir.TT(tensor.Float32, 3, 8))
	b2 := ir.NewBuilder()
	fn2 := ir.NewFunc([]*ir.Var{x2}, b2.Finish(l.ApplyNoBias(b2, x2)), nil)
	if err := typeinfer.InferFunc(fn2); err != nil {
		t.Fatal(err)
	}
}

func TestLSTMCellAndLayerNormTypes(t *testing.T) {
	init := NewInit(3)
	cell := NewLSTMCell(init, 6, 5)
	x := ir.NewVar("x", ir.TT(tensor.Float32, 1, 6))
	b := ir.NewBuilder()
	h, c := cell.Step(b, x, cell.ZeroState(), cell.ZeroState())
	fn := ir.NewFunc([]*ir.Var{x}, b.Finish(&ir.Tuple{Fields: []ir.Expr{h, c}}), nil)
	if err := typeinfer.InferFunc(fn); err != nil {
		t.Fatal(err)
	}
	want := "(Tensor[(1, 5), float32], Tensor[(1, 5), float32])"
	if got := fn.RetAnn.String(); got != want {
		t.Errorf("cell state types = %s", got)
	}

	ln := NewLayerNorm(init, 6)
	b3 := ir.NewBuilder()
	x3 := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, 6))
	fn3 := ir.NewFunc([]*ir.Var{x3}, b3.Finish(ln.Apply(b3, x3)), nil)
	if err := typeinfer.InferFunc(fn3); err != nil {
		t.Fatal(err)
	}

	emb := NewEmbedding(init, 100, 6)
	b4 := ir.NewBuilder()
	ids := ir.NewVar("ids", ir.TT(tensor.Int64, ir.DimAny))
	fn4 := ir.NewFunc([]*ir.Var{ids}, b4.Finish(emb.Apply(b4, ids)), nil)
	if err := typeinfer.InferFunc(fn4); err != nil {
		t.Fatal(err)
	}
	if got := fn4.RetAnn.String(); got != "Tensor[(Any#1, 6), float32]" {
		t.Errorf("embedding type = %s", got)
	}
}

func TestListType(t *testing.T) {
	td, nilC, consC := ListType("L", 4)
	if len(td.Constructors) != 2 || nilC.Tag != 0 || consC.Tag != 1 {
		t.Error("list constructors broken")
	}
	if !consC.Fields[1].EqualType(td.Type()) {
		t.Error("cons tail not recursive")
	}
}

func TestValidate(t *testing.T) {
	Validate(1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("Validate accepted non-positive dim")
		}
	}()
	Validate(4, 0)
}
