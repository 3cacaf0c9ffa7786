package models

import (
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/nn"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// TreeLSTMConfig sizes the Tree-LSTM of Table 2: "input size / hidden size
// ... 300/150".
type TreeLSTMConfig struct {
	Input  int
	Hidden int
	Seed   int64
}

// DefaultTreeLSTMConfig matches the paper.
func DefaultTreeLSTMConfig() TreeLSTMConfig {
	return TreeLSTMConfig{Input: 300, Hidden: 150, Seed: 43}
}

// TreeLSTM is a binary child-sum Tree-LSTM over the Tree ADT — the
// evaluation's "dynamic data structure" model. Its execution path is the
// shape of the input tree, unknowable before runtime.
type TreeLSTM struct {
	Config  TreeLSTMConfig
	Module  *ir.Module
	TreeDef *ir.TypeDef
	LeafC   *ir.Constructor
	NodeC   *ir.Constructor
}

// NewTreeLSTM builds the module:
//
//	type Tree { Leaf(Tensor[(1, in)]); Node(Tree, Tree) }
//	enc(t) -> (h, c) = match t {
//	  Leaf(x)    => leaf cell on x
//	  Node(l, r) => child-sum cell over enc(l), enc(r)
//	}
func NewTreeLSTM(cfg TreeLSTMConfig) *TreeLSTM {
	nn.Validate(cfg.Input, cfg.Hidden)
	init := nn.NewInit(cfg.Seed)
	mod := ir.NewModule()

	leafT := ir.TT(tensor.Float32, 1, cfg.Input)
	leafC := ir.NewConstructor("Leaf", leafT)
	nodeC := ir.NewConstructor("Node")
	treeDef := ir.NewTypeDef("Tree", leafC, nodeC)
	nodeC.Fields = []ir.Type{treeDef.Type(), treeDef.Type()}
	mod.AddTypeDef(treeDef)

	h := cfg.Hidden
	stateT := ir.TT(tensor.Float32, 1, h)
	pairT := &ir.TupleType{Fields: []ir.Type{stateT, stateT}}

	// Leaf cell: a standard LSTM step with zero recurrent state.
	leafCell := nn.NewLSTMCell(init, cfg.Input, h)
	// Node (child-sum) parameters: gates from summed child h, with
	// per-child forget gates.
	wIOU := init.Weight(h, 3*h) // input, output, update from h-sum
	bIOU := ir.Const(init.Vector(3 * h))
	wF := init.Weight(h, h) // forget gate per child
	bF := ir.Const(init.Vector(h))

	tv := ir.NewVar("t", treeDef.Type())
	x := ir.NewVar("x", nil)
	l := ir.NewVar("l", nil)
	r := ir.NewVar("r", nil)
	enc := &ir.GlobalVar{Name: "enc"}

	// Leaf clause.
	lb := ir.NewBuilder()
	lh, lc := leafCell.Step(lb, x, leafCell.ZeroState(), leafCell.ZeroState())
	leafBody := lb.Finish(&ir.Tuple{Fields: []ir.Expr{lh, lc}})

	// Node clause.
	nb := ir.NewBuilder()
	lp := nb.Bind("lp", ir.NewCall(enc, []ir.Expr{l}, nil))
	rp := nb.Bind("rp", ir.NewCall(enc, []ir.Expr{r}, nil))
	hl := nb.Bind("hl", &ir.TupleGet{Tuple: lp, Index: 0})
	cl := nb.Bind("cl", &ir.TupleGet{Tuple: lp, Index: 1})
	hr := nb.Bind("hr", &ir.TupleGet{Tuple: rp, Index: 0})
	cr := nb.Bind("cr", &ir.TupleGet{Tuple: rp, Index: 1})
	hsum := nb.Op("add", hl, hr)
	iou := nb.Op("bias_add", nn.Dense(nb, hsum, wIOU), bIOU)
	slice := func(idx int) ir.Expr {
		return nb.OpAttrs("strided_slice", ir.Attrs{"axis": 1, "begin": idx * h, "end": (idx + 1) * h}, iou)
	}
	iGate := nb.Op("sigmoid", slice(0))
	oGate := nb.Op("sigmoid", slice(1))
	uVal := nb.Op("tanh", slice(2))
	fl := nb.Op("sigmoid", nb.Op("bias_add", nn.Dense(nb, hl, wF), bF))
	fr := nb.Op("sigmoid", nb.Op("bias_add", nn.Dense(nb, hr, wF), bF))
	cNew := nb.Op("add",
		nb.Op("multiply", iGate, uVal),
		nb.Op("add", nb.Op("multiply", fl, cl), nb.Op("multiply", fr, cr)))
	hNew := nb.Op("multiply", oGate, nb.Op("tanh", cNew))
	nodeBody := nb.Finish(&ir.Tuple{Fields: []ir.Expr{hNew, cNew}})

	body := &ir.Match{Data: tv, Clauses: []*ir.Clause{
		{Pattern: ir.CtorPat(leafC, ir.VarPat(x)), Body: leafBody},
		{Pattern: ir.CtorPat(nodeC, ir.VarPat(l), ir.VarPat(r)), Body: nodeBody},
	}}
	mod.AddFunc("enc", ir.NewFunc([]*ir.Var{tv}, body, pairT))

	// main returns the root hidden state.
	tMain := ir.NewVar("t", treeDef.Type())
	mb := ir.NewBuilder()
	root := mb.Bind("root", ir.NewCall(&ir.GlobalVar{Name: "enc"}, []ir.Expr{tMain}, nil))
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{tMain},
		mb.Finish(&ir.TupleGet{Tuple: root, Index: 0}), stateT))

	return &TreeLSTM{Config: cfg, Module: mod, TreeDef: treeDef, LeafC: leafC, NodeC: nodeC}
}

// Tree is the host-side tree shape used to build inputs for both Nimble and
// the baseline executors.
type Tree struct {
	Left, Right *Tree
	// Value is non-nil exactly at leaves.
	Value *tensor.Tensor
}

// Leaves counts leaf nodes (tokens).
func (t *Tree) Leaves() int {
	if t.Value != nil {
		return 1
	}
	return t.Left.Leaves() + t.Right.Leaves()
}

// Nodes counts all nodes.
func (t *Tree) Nodes() int {
	if t.Value != nil {
		return 1
	}
	return 1 + t.Left.Nodes() + t.Right.Nodes()
}

// RandomTree builds a random binary tree over n leaves with seeded shape —
// the stand-in for SST parse trees.
func RandomTree(rng *rand.Rand, n, inputDim int) *Tree {
	if n <= 1 {
		return &Tree{Value: tensor.Random(rng, 1, 1, inputDim)}
	}
	split := 1 + rng.Intn(n-1)
	return &Tree{
		Left:  RandomTree(rng, split, inputDim),
		Right: RandomTree(rng, n-split, inputDim),
	}
}

// ToObject converts a host tree into the VM's ADT representation.
func (m *TreeLSTM) ToObject(t *Tree) vm.Object {
	if t.Value != nil {
		return &vm.ADT{Tag: m.LeafC.Tag, Fields: []vm.Object{vm.NewTensorObj(t.Value)}}
	}
	return &vm.ADT{Tag: m.NodeC.Tag, Fields: []vm.Object{m.ToObject(t.Left), m.ToObject(t.Right)}}
}
