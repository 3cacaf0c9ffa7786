package baselines

import (
	"time"

	"nimble/internal/kernels"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// Fold models TensorFlow Fold's dynamic batching (§7): for every input tree
// it (1) analyzes the structure, (2) builds a fresh depth-batched dataflow
// graph whose operations at the same depth are batched together, and (3)
// executes that graph. Step (2) repeats per input — the "has to re-compile
// upon every input" cost the paper measures as 5.2x slower than Nimble on
// Tree-LSTM.
type Fold struct {
	Hidden int
	// Tree-LSTM weights (shared layout with the eager cell).
	Cell EagerTreeCell
	// BuildOverhead charges a calibrated per-node cost for the per-input
	// Python-side analysis and graph construction (see Eager.OpOverhead for
	// the rationale; Fold amortizes kernel dispatch through batching but
	// still pays construction on every input).
	BuildOverhead time.Duration
	// Stats
	GraphsBuilt    int64
	NodesBatched   int64
	BatchedKernels int64
}

// NewFold creates a Fold session around an eager weight set.
func NewFold(cell EagerTreeCell) *Fold {
	return &Fold{Hidden: cell.Hidden, Cell: cell}
}

// foldNode is one scheduled operation in the per-input batched graph.
type foldNode struct {
	tree  *models.Tree
	depth int
	// results
	h, c *tensor.Tensor
}

// RunTree performs one Tree-LSTM inference with per-input graph construction
// and depth-wise dynamic batching.
func (f *Fold) RunTree(t *models.Tree) *tensor.Tensor {
	// Phase 1-2 (per input): analyze the tree and build the batching plan —
	// group nodes by depth from the leaves so same-depth cells execute as
	// one batched kernel. This is real graph-construction work performed on
	// every input.
	f.GraphsBuilt++
	byDepth := map[int][]*foldNode{}
	index := map[*models.Tree]*foldNode{}
	maxDepth := 0
	var analyze func(tr *models.Tree) int
	analyze = func(tr *models.Tree) int {
		n := &foldNode{tree: tr}
		if tr.Value == nil {
			dl := analyze(tr.Left)
			dr := analyze(tr.Right)
			n.depth = 1 + maxI(dl, dr)
		}
		if f.BuildOverhead > 0 {
			deadline := time.Now().Add(f.BuildOverhead)
			for time.Now().Before(deadline) {
			}
		}
		index[tr] = n
		byDepth[n.depth] = append(byDepth[n.depth], n)
		if n.depth > maxDepth {
			maxDepth = n.depth
		}
		f.NodesBatched++
		return n.depth
	}
	analyze(t)

	// Phase 3: execute depth by depth; nodes at one depth form one batch.
	for d := 0; d <= maxDepth; d++ {
		batch := byDepth[d]
		if len(batch) == 0 {
			continue
		}
		if d == 0 {
			f.runLeafBatch(batch)
		} else {
			f.runNodeBatch(batch, index)
		}
		f.BatchedKernels++
	}
	return index[t].h
}

// runLeafBatch stacks leaf inputs into one [batch, in] matrix and runs the
// leaf cell once.
func (f *Fold) runLeafBatch(batch []*foldNode) {
	rows := make([]*tensor.Tensor, len(batch))
	for i, n := range batch {
		rows[i] = n.tree.Value
	}
	x := kernels.Concat(rows, 0)
	hd := f.Hidden
	gates := kernels.Add(dense(x, f.Cell.Leaf.Wx), f.Cell.Leaf.Bias.T)
	i := kernels.Sigmoid(kernels.Slice(gates, 1, 0, hd))
	g := kernels.Tanh(kernels.Slice(gates, 1, 2*hd, 3*hd))
	o := kernels.Sigmoid(kernels.Slice(gates, 1, 3*hd, 4*hd))
	c := kernels.Mul(i, g)
	h := kernels.Mul(o, kernels.Tanh(c))
	for r, n := range batch {
		n.h = kernels.Slice(h, 0, r, r+1)
		n.c = kernels.Slice(c, 0, r, r+1)
	}
}

// runNodeBatch gathers children states, batches the child-sum cell.
func (f *Fold) runNodeBatch(batch []*foldNode, index map[*models.Tree]*foldNode) {
	hd := f.Hidden
	hls := make([]*tensor.Tensor, len(batch))
	hrs := make([]*tensor.Tensor, len(batch))
	cls := make([]*tensor.Tensor, len(batch))
	crs := make([]*tensor.Tensor, len(batch))
	for i, n := range batch {
		l, r := index[n.tree.Left], index[n.tree.Right]
		hls[i], hrs[i], cls[i], crs[i] = l.h, r.h, l.c, r.c
	}
	hl := kernels.Concat(hls, 0)
	hr := kernels.Concat(hrs, 0)
	cl := kernels.Concat(cls, 0)
	cr := kernels.Concat(crs, 0)
	hsum := kernels.Add(hl, hr)
	iou := kernels.Add(dense(hsum, f.Cell.WIOU), f.Cell.BIOU.T)
	iG := kernels.Sigmoid(kernels.Slice(iou, 1, 0, hd))
	oG := kernels.Sigmoid(kernels.Slice(iou, 1, hd, 2*hd))
	uV := kernels.Tanh(kernels.Slice(iou, 1, 2*hd, 3*hd))
	fl := kernels.Sigmoid(kernels.Add(dense(hl, f.Cell.WF), f.Cell.BF.T))
	fr := kernels.Sigmoid(kernels.Add(dense(hr, f.Cell.WF), f.Cell.BF.T))
	c := kernels.Add(kernels.Mul(iG, uV), kernels.Add(kernels.Mul(fl, cl), kernels.Mul(fr, cr)))
	h := kernels.Mul(oG, kernels.Tanh(c))
	for r, n := range batch {
		n.h = kernels.Slice(h, 0, r, r+1)
		n.c = kernels.Slice(c, 0, r, r+1)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
