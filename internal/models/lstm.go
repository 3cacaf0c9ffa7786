// Package models builds the paper's evaluation models as IR modules: LSTM
// (dynamic control flow, §6.1), Tree-LSTM (dynamic data structures), BERT
// (dynamic data shapes), and the computer-vision graphs used by the §6.3
// memory-footprint study.
package models

import (
	"fmt"
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/nn"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// LSTMConfig sizes the LSTM of Table 1: "the input size / hidden size used
// in the LSTM ... are 300/512".
type LSTMConfig struct {
	Input  int
	Hidden int
	Layers int
	Seed   int64
}

// DefaultLSTMConfig matches the paper.
func DefaultLSTMConfig(layers int) LSTMConfig {
	return LSTMConfig{Input: 300, Hidden: 512, Layers: layers, Seed: 42}
}

// LSTM bundles the IR module with the pieces the harness needs to drive it.
type LSTM struct {
	Config LSTMConfig
	Module *ir.Module
	Cells  []*nn.LSTMCell
	// List constructors for building input sequences.
	ListDef *ir.TypeDef
	NilC    *ir.Constructor
	ConsC   *ir.Constructor
}

// NewLSTM builds a stacked LSTM as a recursive IR function over a cons-list
// of [1, input] step tensors. The dynamic control flow — "the execution
// path can only be determined at runtime" — is the match on the list spine:
//
//	loop(xs, h1, c1, ..., hN, cN) = match xs {
//	  Nil          => h_last
//	  Cons(x, rest) => step all layers; loop(rest, states')
//	}
func NewLSTM(cfg LSTMConfig) *LSTM {
	nn.Validate(cfg.Input, cfg.Hidden, cfg.Layers)
	init := nn.NewInit(cfg.Seed)
	mod := ir.NewModule()
	listDef, nilC, consC := nn.ListType("List", cfg.Input)
	mod.AddTypeDef(listDef)

	cells := make([]*nn.LSTMCell, cfg.Layers)
	for i := range cells {
		in := cfg.Input
		if i > 0 {
			in = cfg.Hidden
		}
		cells[i] = nn.NewLSTMCell(init, in, cfg.Hidden)
	}

	// loop(xs, h1, c1, ..., hL, cL) -> Tensor[(1, hidden)]
	stateT := ir.TT(tensor.Float32, 1, cfg.Hidden)
	params := []*ir.Var{ir.NewVar("xs", listDef.Type())}
	for i := 0; i < cfg.Layers; i++ {
		params = append(params,
			ir.NewVar(fmt.Sprintf("h%d", i), stateT),
			ir.NewVar(fmt.Sprintf("c%d", i), stateT))
	}
	x := ir.NewVar("x", nil)
	rest := ir.NewVar("rest", nil)

	b := ir.NewBuilder()
	input := ir.Expr(x)
	recArgs := []ir.Expr{rest}
	for i, cell := range cells {
		h, c := cell.Step(b, input, params[1+2*i], params[2+2*i])
		recArgs = append(recArgs, h, c)
		input = h
	}
	rec := b.Bind("rec", ir.NewCall(&ir.GlobalVar{Name: "loop"}, recArgs, nil))
	consBody := b.Finish(rec)

	body := &ir.Match{Data: params[0], Clauses: []*ir.Clause{
		{Pattern: ir.CtorPat(nilC), Body: params[len(params)-2]},
		{Pattern: ir.CtorPat(consC, ir.VarPat(x), ir.VarPat(rest)), Body: consBody},
	}}
	mod.AddFunc("loop", ir.NewFunc(params, body, stateT))

	// main(xs) seeds zero states.
	xsMain := ir.NewVar("xs", listDef.Type())
	mainArgs := []ir.Expr{xsMain}
	for i := 0; i < cfg.Layers; i++ {
		z1, z2 := cells[i].ZeroState(), cells[i].ZeroState()
		mainArgs = append(mainArgs, z1, z2)
	}
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{xsMain},
		ir.NewCall(&ir.GlobalVar{Name: "loop"}, mainArgs, nil), stateT))

	return &LSTM{Config: cfg, Module: mod, Cells: cells, ListDef: listDef, NilC: nilC, ConsC: consC}
}

// SequenceToList packs step tensors into the VM cons-list the compiled
// model consumes (first step at the head).
func SequenceToList(nilTag, consTag int, steps []*tensor.Tensor) vm.Object {
	var list vm.Object = &vm.ADT{Tag: nilTag}
	for i := len(steps) - 1; i >= 0; i-- {
		list = &vm.ADT{Tag: consTag, Fields: []vm.Object{vm.NewTensorObj(steps[i]), list}}
	}
	return list
}

// RandomSequence draws a length-n input sequence for the model.
func (m *LSTM) RandomSequence(rng *rand.Rand, n int) vm.Object {
	steps := make([]*tensor.Tensor, n)
	for i := range steps {
		steps[i] = tensor.Random(rng, 1, 1, m.Config.Input)
	}
	return SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps)
}

// RandomSteps draws the raw step tensors (for baseline executors that
// consume slices rather than ADT lists).
func (m *LSTM) RandomSteps(rng *rand.Rand, n int) []*tensor.Tensor {
	steps := make([]*tensor.Tensor, n)
	for i := range steps {
		steps[i] = tensor.Random(rng, 1, 1, m.Config.Input)
	}
	return steps
}
