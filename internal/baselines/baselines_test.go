package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

func lstmFixture(t *testing.T, layers int) (*models.LSTM, *vm.VM) {
	t.Helper()
	m := models.NewLSTM(models.LSTMConfig{Input: 12, Hidden: 16, Layers: layers, Seed: 30})
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, machine
}

func TestEagerLSTMMatchesNimble(t *testing.T) {
	// Eager shares Nimble's weights, so the two systems must agree — the
	// latency tables compare identical computations.
	m, machine := lstmFixture(t, 1)
	rng := rand.New(rand.NewSource(31))
	steps := m.RandomSteps(rng, 7)

	e := NewEager()
	cells := e.CellsFromModel(m)
	eagerOut := e.RunLSTM(cells, steps)

	nimbleOut, err := machine.InvokeContext(context.Background(), "main", models.SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps))
	if err != nil {
		t.Fatal(err)
	}
	if !eagerOut.AllClose(nimbleOut.(*vm.TensorObj).T, 1e-4, 1e-5) {
		t.Error("eager and Nimble disagree on LSTM output")
	}
	// The tape records every framework op: an LSTM step is 14 ops + 4
	// slices per layer; the overhead Nimble fuses away.
	if e.TapeLen() == 0 || e.Ops == 0 {
		t.Error("eager tape not populated")
	}
}

func TestEagerTwoLayer(t *testing.T) {
	m, machine := lstmFixture(t, 2)
	rng := rand.New(rand.NewSource(32))
	steps := m.RandomSteps(rng, 4)
	e := NewEager()
	out := e.RunLSTM(e.CellsFromModel(m), steps)
	nimbleOut, err := machine.InvokeContext(context.Background(), "main", models.SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps))
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(nimbleOut.(*vm.TensorObj).T, 1e-4, 1e-5) {
		t.Error("2-layer eager disagrees with Nimble")
	}
}

func TestDataflowLSTMMatchesNimble(t *testing.T) {
	m, machine := lstmFixture(t, 1)
	rng := rand.New(rand.NewSource(33))
	steps := m.RandomSteps(rng, 6)

	g := BuildDataflowLSTM(m, steps)
	var stats DFStats
	out, err := g.Run(&stats)
	if err != nil {
		t.Fatal(err)
	}
	nimbleOut, err := machine.InvokeContext(context.Background(), "main", models.SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps))
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(nimbleOut.(*vm.TensorObj).T, 1e-4, 1e-5) {
		t.Error("dataflow and Nimble disagree")
	}
	if stats.Iterations != 6 {
		t.Errorf("iterations = %d, want 6", stats.Iterations)
	}
	// Control primitives fire every iteration — the TF-style overhead.
	if stats.ControlNodes == 0 {
		t.Error("no control nodes executed")
	}
	if stats.NodesExecuted <= stats.ControlNodes {
		t.Error("kernel nodes missing")
	}
}

func TestDataflowLSTMTwoLayerAndLengthOne(t *testing.T) {
	m, machine := lstmFixture(t, 2)
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 3} {
		steps := m.RandomSteps(rng, n)
		g := BuildDataflowLSTM(m, steps)
		out, err := g.Run(nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		nimbleOut, err := machine.InvokeContext(context.Background(), "main", models.SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps))
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllClose(nimbleOut.(*vm.TensorObj).T, 1e-4, 1e-5) {
			t.Errorf("n=%d: dataflow disagrees", n)
		}
	}
}

func TestEagerTreeLSTMRuns(t *testing.T) {
	cfg := models.TreeLSTMConfig{Input: 8, Hidden: 6, Seed: 36}
	e := NewEager()
	cell := NewEagerTreeCell(e, cfg)
	rng := rand.New(rand.NewSource(37))
	for _, leaves := range []int{1, 4, 11} {
		tree := models.RandomTree(rng, leaves, cfg.Input)
		h, c := e.RunTreeLSTM(cell, tree)
		if !h.T.Shape().Equal(tensor.Shape{1, cfg.Hidden}) || !c.T.Shape().Equal(tensor.Shape{1, cfg.Hidden}) {
			t.Errorf("leaves=%d: state shapes %v, %v", leaves, h.T.Shape(), c.T.Shape())
		}
		for _, v := range h.T.F32() {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN in eager tree output")
			}
		}
	}
}

func TestFoldMatchesEager(t *testing.T) {
	// Fold batches by depth but must compute the same function as the
	// unbatched recursive execution.
	cfg := models.TreeLSTMConfig{Input: 8, Hidden: 6, Seed: 38}
	e := NewEager()
	cell := NewEagerTreeCell(e, cfg)
	fold := NewFold(cell)
	rng := rand.New(rand.NewSource(39))
	for _, leaves := range []int{1, 2, 5, 12} {
		tree := models.RandomTree(rng, leaves, cfg.Input)
		want, _ := e.RunTreeLSTM(cell, tree)
		got := fold.RunTree(tree)
		if !got.AllClose(want.T, 1e-4, 1e-5) {
			t.Errorf("leaves=%d: fold disagrees with eager", leaves)
		}
	}
	if fold.GraphsBuilt != 4 {
		t.Errorf("GraphsBuilt = %d, want one per input", fold.GraphsBuilt)
	}
	if fold.BatchedKernels == 0 || fold.NodesBatched == 0 {
		t.Error("fold stats empty")
	}
}

func TestEagerBERTRuns(t *testing.T) {
	cfg := models.BERTConfig{Layers: 2, Hidden: 16, Heads: 2, FFN: 32, Vocab: 50, MaxSeq: 32, Seed: 40}
	e := NewEager()
	m := NewEagerBERT(e, cfg)
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{3, 9} {
		ids := tensor.RandomInts(rng, int64(cfg.Vocab), n)
		out := e.RunBERT(m, ids)
		if !out.Shape().Equal(tensor.Shape{n, cfg.Hidden}) {
			t.Errorf("n=%d: shape %v", n, out.Shape())
		}
		for _, v := range out.F32()[:4] {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN in eager BERT")
			}
		}
	}
	if e.Ops == 0 {
		t.Error("no eager ops recorded")
	}
}

func TestOptimalStaticPlan(t *testing.T) {
	// Three same-size buffers with disjoint lifetimes need one slot.
	ivs := []Interval{{100, 0, 1}, {100, 2, 3}, {100, 4, 5}}
	if got := OptimalStaticPlan(ivs); got != 100 {
		t.Errorf("disjoint plan = %d, want 100", got)
	}
	// Overlapping lifetimes need separate slots.
	ivs = []Interval{{100, 0, 5}, {100, 1, 3}, {50, 2, 4}}
	if got := OptimalStaticPlan(ivs); got != 250 {
		t.Errorf("overlapping plan = %d, want 250", got)
	}
	// Growing reuse: a small freed slot grows for a bigger later buffer.
	ivs = []Interval{{60, 0, 1}, {100, 2, 3}}
	if got := OptimalStaticPlan(ivs); got != 100 {
		t.Errorf("grown plan = %d, want 100", got)
	}
	if SumSizes(ivs) != 160 {
		t.Errorf("SumSizes = %d", SumSizes(ivs))
	}
	// Optimal never exceeds the no-reuse footprint.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var ivs []Interval
		for i := 0; i < 20; i++ {
			lo := rng.Intn(40)
			ivs = append(ivs, Interval{Size: 1 + rng.Intn(1000), Lo: lo, Hi: lo + 1 + rng.Intn(10)})
		}
		if OptimalStaticPlan(ivs) > SumSizes(ivs) {
			t.Fatal("plan exceeds sum of sizes")
		}
	}
}
