package models

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

func TestLSTMCompilesAndRuns(t *testing.T) {
	cfg := LSTMConfig{Input: 16, Hidden: 24, Layers: 1, Seed: 1}
	m := NewLSTM(cfg)
	machine, res, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Stats.Fusion.Groups == 0 {
		t.Error("LSTM cell produced no fusion groups")
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 9} {
		out, err := machine.InvokeContext(context.Background(), "main", m.RandomSequence(rng, n))
		if err != nil {
			t.Fatalf("seq len %d: %v", n, err)
		}
		h := out.(*vm.TensorObj).T
		if !h.Shape().Equal(tensor.Shape{1, cfg.Hidden}) {
			t.Errorf("hidden shape = %v", h.Shape())
		}
		for _, v := range h.F32() {
			if math.IsNaN(float64(v)) || v < -1 || v > 1 {
				t.Fatalf("hidden state out of tanh range: %v", v)
			}
		}
	}
}

func TestLSTMMatchesReferenceStep(t *testing.T) {
	// One step through the compiled model equals a hand-computed LSTM step.
	cfg := LSTMConfig{Input: 4, Hidden: 3, Layers: 1, Seed: 3}
	m := NewLSTM(cfg)
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.Random(rng, 1, 1, cfg.Input)
	out, err := machine.InvokeContext(context.Background(), "main", SequenceToList(m.NilC.Tag, m.ConsC.Tag, []*tensor.Tensor{x}))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*vm.TensorObj).T

	// Reference: gates = x@Wx + 0@Wh + b, Wx read from its 16-column panels.
	cell := m.Cells[0]
	wx, bias := cell.Wx.Value, cell.Bias.Value
	h := cfg.Hidden
	gates := make([]float64, 4*h)
	for j := 0; j < 4*h; j++ {
		acc := float64(bias.F32()[j])
		for k := 0; k < cfg.Input; k++ {
			acc += float64(x.F32()[k]) * float64(wx.F32()[j/16*cfg.Input*16+k*16+j%16])
		}
		gates[j] = acc
	}
	sig := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	for j := 0; j < h; j++ {
		i := sig(gates[j])
		g := math.Tanh(gates[2*h+j])
		o := sig(gates[3*h+j])
		c := i * g
		want := o * math.Tanh(c)
		if math.Abs(float64(got.F32()[j])-want) > 1e-4 {
			t.Fatalf("h[%d] = %v, want %v", j, got.F32()[j], want)
		}
	}
}

func TestLSTMTwoLayer(t *testing.T) {
	m := NewLSTM(LSTMConfig{Input: 8, Hidden: 12, Layers: 2, Seed: 5})
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	out, err := machine.InvokeContext(context.Background(), "main", m.RandomSequence(rng, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*vm.TensorObj).T.Shape().Equal(tensor.Shape{1, 12}) {
		t.Errorf("2-layer output shape = %v", out.(*vm.TensorObj).T.Shape())
	}
}

func TestTreeLSTMCompilesAndRuns(t *testing.T) {
	cfg := TreeLSTMConfig{Input: 10, Hidden: 8, Seed: 7}
	m := NewTreeLSTM(cfg)
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	for _, leaves := range []int{1, 2, 7, 20} {
		tree := RandomTree(rng, leaves, cfg.Input)
		if tree.Leaves() != leaves {
			t.Fatalf("tree has %d leaves, want %d", tree.Leaves(), leaves)
		}
		if leaves > 1 && tree.Nodes() != 2*leaves-1 {
			t.Fatalf("binary tree nodes = %d, want %d", tree.Nodes(), 2*leaves-1)
		}
		out, err := machine.InvokeContext(context.Background(), "main", m.ToObject(tree))
		if err != nil {
			t.Fatalf("leaves=%d: %v", leaves, err)
		}
		h := out.(*vm.TensorObj).T
		if !h.Shape().Equal(tensor.Shape{1, cfg.Hidden}) {
			t.Errorf("root hidden shape = %v", h.Shape())
		}
		for _, v := range h.F32() {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN in tree output")
			}
		}
	}
}

func TestTreeLSTMDeterministicPerTree(t *testing.T) {
	cfg := TreeLSTMConfig{Input: 6, Hidden: 5, Seed: 9}
	m := NewTreeLSTM(cfg)
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	tree := RandomTree(rng, 5, cfg.Input)
	a, err := machine.InvokeContext(context.Background(), "main", m.ToObject(tree))
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.InvokeContext(context.Background(), "main", m.ToObject(tree))
	if err != nil {
		t.Fatal(err)
	}
	if !a.(*vm.TensorObj).T.Equal(b.(*vm.TensorObj).T) {
		t.Error("same tree produced different outputs")
	}
}

func TestBERTCompilesAndRunsAcrossLengths(t *testing.T) {
	cfg := BERTConfig{Layers: 2, Hidden: 32, Heads: 2, FFN: 64, Vocab: 100, MaxSeq: 64, Seed: 11}
	m := NewBERT(cfg)
	machine, res, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Dynamic sequence length: the same executable serves every length.
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{3, 8, 17, 33} {
		ids := m.RandomIDs(rng, n)
		out, err := machine.InvokeTensorsContext(context.Background(), "main", ids)
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if !out.Shape().Equal(tensor.Shape{n, cfg.Hidden}) {
			t.Errorf("len %d: output shape = %v", n, out.Shape())
		}
		for _, v := range out.F32()[:8] {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN in BERT output")
			}
		}
	}
	// The symbolic dense kernel must be present (dynamic shapes compile to
	// residue dispatch).
	found := false
	for _, k := range res.Exe.KernelNames {
		if len(k) > 10 && k[:10] == "dense_sym_" {
			found = true
		}
	}
	if !found {
		t.Errorf("no symbolic dense kernels in %v", res.Exe.KernelNames)
	}
}

func TestBERTConfigs(t *testing.T) {
	base := BERTBase()
	if base.Layers != 12 || base.Hidden != 768 || base.Heads != 12 {
		t.Errorf("BERTBase = %+v", base)
	}
	red := BERTReduced()
	if red.Hidden%red.Heads != 0 {
		t.Error("reduced config heads do not divide hidden")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid heads accepted")
		}
	}()
	NewBERT(BERTConfig{Layers: 1, Hidden: 10, Heads: 3, FFN: 8, Vocab: 10, Seed: 1})
}

func TestCVModelsCompileAndRun(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range CVModels(32) {
		machine, res, err := compiler.CompileToVM(m.Module, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", m.Name, err)
		}
		if res.Stats.Coalesce.Reuses() == 0 {
			t.Errorf("%s: static planning found no reuse", m.Name)
		}
		img := tensor.Random(rng, 1, m.InputShape...)
		out, err := machine.InvokeTensorsContext(context.Background(), "main", img)
		if err != nil {
			t.Fatalf("%s: run: %v", m.Name, err)
		}
		if !out.Shape().Equal(tensor.Shape{1, 1000}) {
			t.Errorf("%s: logits shape = %v", m.Name, out.Shape())
		}
		if m.String() == "" {
			t.Error("empty description")
		}
	}
}

func TestMLPCompilesAndIsRowIndependent(t *testing.T) {
	m := NewMLP(MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 45})
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	batch := m.RandomBatch(rng, 5)
	out, err := machine.InvokeTensorsContext(context.Background(), "main", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{5, 4}) {
		t.Fatalf("output shape = %v", out.Shape())
	}
	// Row independence is the property the serving scheduler's coalescing
	// relies on: each row of the batched output must equal the model applied to
	// that row alone.
	for r := 0; r < 5; r++ {
		rowData := make([]float32, m.Config.In)
		copy(rowData, batch.F32()[r*m.Config.In:(r+1)*m.Config.In])
		row := tensor.FromF32(rowData, 1, m.Config.In)
		single, err := machine.InvokeTensorsContext(context.Background(), "main", row)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < m.Config.Out; c++ {
			got := out.At(r, c)
			want := single.At(0, c)
			if math.Abs(got-want) > 1e-5 {
				t.Fatalf("row %d col %d: batched %v != single %v", r, c, got, want)
			}
		}
	}
	if m.BatchFlops(5) <= 0 {
		t.Error("BatchFlops not positive")
	}
}
