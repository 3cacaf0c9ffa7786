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
	x := kernels.ConcatInto(rows, nil, 0)
	hd := f.Hidden
	gates := kernels.AddInto(dense(x, f.Cell.Leaf.Wx), f.Cell.Leaf.Bias.T, nil)
	i := kernels.SigmoidInto(kernels.SliceInto(gates, nil, 1, 0, hd), nil)
	g := kernels.TanhInto(kernels.SliceInto(gates, nil, 1, 2*hd, 3*hd), nil)
	o := kernels.SigmoidInto(kernels.SliceInto(gates, nil, 1, 3*hd, 4*hd), nil)
	c := kernels.MulInto(i, g, nil)
	h := kernels.MulInto(o, kernels.TanhInto(c, nil), nil)
	for r, n := range batch {
		n.h = kernels.SliceInto(h, nil, 0, r, r+1)
		n.c = kernels.SliceInto(c, nil, 0, r, r+1)
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
	hl := kernels.ConcatInto(hls, nil, 0)
	hr := kernels.ConcatInto(hrs, nil, 0)
	cl := kernels.ConcatInto(cls, nil, 0)
	cr := kernels.ConcatInto(crs, nil, 0)
	hsum := kernels.AddInto(hl, hr, nil)
	iou := kernels.AddInto(dense(hsum, f.Cell.WIOU), f.Cell.BIOU.T, nil)
	iG := kernels.SigmoidInto(kernels.SliceInto(iou, nil, 1, 0, hd), nil)
	oG := kernels.SigmoidInto(kernels.SliceInto(iou, nil, 1, hd, 2*hd), nil)
	uV := kernels.TanhInto(kernels.SliceInto(iou, nil, 1, 2*hd, 3*hd), nil)
	fl := kernels.SigmoidInto(kernels.AddInto(dense(hl, f.Cell.WF), f.Cell.BF.T, nil), nil)
	fr := kernels.SigmoidInto(kernels.AddInto(dense(hr, f.Cell.WF), f.Cell.BF.T, nil), nil)
	c := kernels.AddInto(kernels.MulInto(iG, uV, nil), kernels.AddInto(kernels.MulInto(fl, cl, nil), kernels.MulInto(fr, cr, nil), nil), nil)
	h := kernels.MulInto(oG, kernels.TanhInto(c, nil), nil)
	for r, n := range batch {
		n.h = kernels.SliceInto(h, nil, 0, r, r+1)
		n.c = kernels.SliceInto(c, nil, 0, r, r+1)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
