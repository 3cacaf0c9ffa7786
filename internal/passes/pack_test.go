package passes

import (
	"maps"
	"math/rand"
	"testing"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// denseWeights walks every function and returns the constant B tensors of
// dense calls and the packed B tensors of dense_packed calls, each
// de-duplicated by identity.
func denseWeights(mod *ir.Module) (plain, packed map[*tensor.Tensor]*ir.Constant) {
	plain, packed = map[*tensor.Tensor]*ir.Constant{}, map[*tensor.Tensor]*ir.Constant{}
	for _, name := range mod.FuncNames() {
		ir.Visit(mod.Funcs[name].Body, func(e ir.Expr) bool {
			if call, op := ir.OpCall(e); op != nil && len(call.Args) == 2 {
				if c, ok := call.Args[1].(*ir.Constant); ok && op.Name == "dense" {
					plain[c.Value] = c
				} else if ok && op.Name == "dense_packed" {
					packed[c.Value] = c
				}
			}
			return true
		})
	}
	return plain, packed
}

// TestPackDenseWeightsSharesOnePackedConstant builds one weight used by two
// entries, through two Constant nodes, beside a dense whose B is a
// parameter: the pass packs the weight once, leaves the parameter's dense
// alone and does not touch the caller's tensor.
func TestPackDenseWeightsSharesOnePackedConstant(t *testing.T) {
	w := tensor.Random(rand.New(rand.NewSource(1)), 1, 8, 20)
	before := w.Clone()
	mod := ir.NewModule()
	for _, name := range []string{"main", "other"} {
		x, y := ir.NewVar("x", ir.TT(tensor.Float32, anyd, 8)), ir.NewVar("y", ir.TT(tensor.Float32, 20, 8))
		b := ir.NewBuilder()
		h := b.Op("dense", b.Op("dense", x, ir.Const(w)), y)
		mod.AddFunc(name, ir.NewFunc([]*ir.Var{x, y}, b.Finish(b.Op("dense", h, ir.Const(w))), nil))
	}
	if err := NewManager(ANF(), PackDenseWeights()).Run(mod); err != nil {
		t.Fatal(err)
	}
	plain, packed := denseWeights(mod)
	if len(plain) != 0 || len(packed) != 1 {
		t.Fatalf("%d dense calls over a constant and %d packed constants, want 0 and 1", len(plain), len(packed))
	}
	for p, c := range packed {
		if c.Units != 20 || !p.Shape().Equal(tensor.Shape{8, 32}) || !p.Equal(kernels.PackB(w)) {
			t.Errorf("packed constant %v with units %d, want PackB of the [8, 20] weight", p.Shape(), c.Units)
		}
	}
	if !w.Equal(before) {
		t.Error("the pass modified the caller's weight")
	}
	calls := 0
	for _, name := range mod.FuncNames() {
		ir.Visit(mod.Funcs[name].Body, func(e ir.Expr) bool {
			if _, op := ir.OpCall(e); op != nil && op.Name == "dense" {
				calls++
			}
			return true
		})
	}
	if calls != 2 {
		t.Errorf("%d dense calls over a parameter B remain, want 2 (one per entry)", calls)
	}
}

// TestModelsHoldPackedWeights checks that the evaluation's models are
// built with their weights already in panels (nn.Init.Weight): no dense
// reads a row-major constant, so compiling them copies no weight, and the
// pass leaves them as they are. A weight shared by several calls (the
// Tree-LSTM's forget weight serves both children, the decoder's weights
// all four entries) is one constant.
func TestModelsHoldPackedWeights(t *testing.T) {
	for name, c := range map[string]struct {
		mod           *ir.Module
		calls, consts int
	}{
		// Leaf Wx, node wIOU and wF twice; the leaf's Wh multiplies the zero
		// state and is folded away.
		"treelstm": {models.NewTreeLSTM(models.TreeLSTMConfig{Input: 12, Hidden: 10, Seed: 43}).Module, 4, 3},
		"bert":     {models.NewBERT(models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 32, Seed: 44}).Module, 6, 6},
	} {
		if err := NewManager(ANF(), ConstantFold(), DCE()).Run(c.mod); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, packed := denseWeights(c.mod)
		if calls := densePackedCalls(c.mod); len(plain) != 0 || calls != c.calls || len(packed) != c.consts {
			t.Errorf("%s: %d dense calls over a row-major constant, %d dense_packed calls over %d constants; want 0, %d and %d",
				name, len(plain), calls, len(packed), c.calls, c.consts)
		}
		if err := NewManager(PackDenseWeights()).Run(c.mod); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, after := denseWeights(c.mod); !maps.Equal(after, packed) {
			t.Errorf("%s: the pass changed the packed constants", name)
		}
	}
	dec := models.NewDecoder(models.DefaultDecoderConfig()).Module
	if err := NewManager(ANF(), ConstantFold(), DCE()).Run(dec); err != nil {
		t.Fatal(err)
	}
	plain, packed := denseWeights(dec)
	if len(plain) != 0 || len(packed) == 0 || densePackedCalls(dec) <= len(packed) {
		t.Errorf("decoder: %d row-major, %d packed constants under %d calls; want its entries to share the packed ones",
			len(plain), len(packed), densePackedCalls(dec))
	}
}

func densePackedCalls(mod *ir.Module) int {
	calls := 0
	for _, name := range mod.FuncNames() {
		ir.Visit(mod.Funcs[name].Body, func(e ir.Expr) bool {
			if _, op := ir.OpCall(e); op != nil && op.Name == "dense_packed" {
				calls++
			}
			return true
		})
	}
	return calls
}

// BenchmarkPackDenseWeights times the pass over a chain of dense calls with
// BERT-reduced's 24 weight shapes (12.6 MB) as row-major constants, the
// module a frontend that does not emit panels hands the compiler; building
// it is outside the timer.
func BenchmarkPackDenseWeights(b *testing.B) {
	cfg := models.BERTReduced()
	h, f := cfg.Hidden, cfg.FFN
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(cfg.Seed))
		x := ir.NewVar("x", ir.TT(tensor.Float32, anyd, h))
		bld := ir.NewBuilder()
		var y ir.Expr = x
		for l := 0; l < cfg.Layers; l++ {
			for _, s := range [][2]int{{h, h}, {h, h}, {h, h}, {h, h}, {h, f}, {f, h}} {
				y = bld.Op("dense", y, ir.Const(tensor.Random(rng, 0.1, s[0], s[1])))
			}
		}
		mod := ir.NewModule()
		mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, bld.Finish(y), nil))
		if err := NewManager(ANF()).Run(mod); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := PackDenseWeights().Run(mod, &Stats{}); err != nil {
			b.Fatal(err)
		}
	}
}
