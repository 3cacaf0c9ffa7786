package baselines

import (
	"fmt"
	"time"

	"nimble/internal/kernels"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// The dataflow executor models the define-then-run frameworks (TensorFlow,
// MXNet symbolic): a static graph where dynamism is encoded with
// control-flow primitives — Enter/Merge/Switch/Exit/NextIteration — executed
// by a tagged-token scheduler (Yu et al., "Dynamic control flow in
// large-scale machine learning"). The per-node scheduling work (ready queue,
// per-iteration value tagging, pending-count bookkeeping) is the "inefficient
// and complex control flow encoding" overhead of §7 / §2.1.

// DFKind enumerates dataflow node kinds.
type DFKind int

const (
	// DFKernel executes a tensor kernel.
	DFKernel DFKind = iota
	// DFConst produces a constant tensor.
	DFConst
	// DFEnter imports a value into the loop frame at iteration 0.
	DFEnter
	// DFMerge forwards whichever of its two inputs arrives (Enter at iter
	// 0, NextIteration afterwards).
	DFMerge
	// DFSwitch routes its input to the loop body or the exit depending on
	// the loop predicate.
	DFSwitch
	// DFExit exports the value that leaves the loop.
	DFExit
	// DFNextIter feeds a body result to the next iteration's Merge.
	DFNextIter
	// DFRead reads the iteration-indexed input (a TensorArray read).
	DFRead
)

// DFNode is one graph node.
type DFNode struct {
	ID     int
	Kind   DFKind
	Name   string
	Inputs []int
	Kernel func(args []*tensor.Tensor) *tensor.Tensor
	Value  *tensor.Tensor
}

// DFGraph is a built dataflow graph with (at most) one loop.
type DFGraph struct {
	Nodes []*DFNode
	// NodeOverhead charges a calibrated session cost per node firing,
	// modeling the framework executor's per-node work (allocator, scoped
	// bookkeeping) beyond this scheduler's own map and queue operations;
	// see Eager.OpOverhead for the calibration rationale.
	NodeOverhead time.Duration
	// Output is the node whose value is the graph result.
	Output int
	// Cond reports whether iteration i should run.
	Cond func(iter int) bool
	// Read provides the TensorArray backing DFRead nodes.
	Read func(iter int) *tensor.Tensor
	// loop bookkeeping
	merges, switches, exits, nextIters []int
}

// NewDFGraph creates an empty graph.
func NewDFGraph() *DFGraph { return &DFGraph{} }

func (g *DFGraph) add(n *DFNode) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// Const adds a constant node.
func (g *DFGraph) Const(t *tensor.Tensor) int {
	return g.add(&DFNode{Kind: DFConst, Name: "const", Value: t})
}

// Kernel adds a compute node.
func (g *DFGraph) Kernel(name string, fn func([]*tensor.Tensor) *tensor.Tensor, inputs ...int) int {
	return g.add(&DFNode{Kind: DFKernel, Name: name, Kernel: fn, Inputs: inputs})
}

// LoopVar wires Enter->Merge->Switch for one loop-carried value and returns
// (mergeOutForBody, exitNode); the caller later connects the body result via
// CloseLoopVar.
func (g *DFGraph) LoopVar(initial int) (body, exit int) {
	enter := g.add(&DFNode{Kind: DFEnter, Name: "enter", Inputs: []int{initial}})
	merge := g.add(&DFNode{Kind: DFMerge, Name: "merge", Inputs: []int{enter, -1}})
	sw := g.add(&DFNode{Kind: DFSwitch, Name: "switch", Inputs: []int{merge}})
	ex := g.add(&DFNode{Kind: DFExit, Name: "exit", Inputs: []int{sw}})
	g.merges = append(g.merges, merge)
	g.switches = append(g.switches, sw)
	g.exits = append(g.exits, ex)
	return sw, ex
}

// CloseLoopVar connects a body result back to its Merge via NextIteration.
func (g *DFGraph) CloseLoopVar(mergeBodyOut, bodyResult int) {
	ni := g.add(&DFNode{Kind: DFNextIter, Name: "next_iteration", Inputs: []int{bodyResult}})
	// Find the merge feeding this switch.
	for i, sw := range g.switches {
		if sw == mergeBodyOut {
			g.Nodes[g.merges[i]].Inputs[1] = ni
			g.nextIters = append(g.nextIters, ni)
			return
		}
	}
	panic("baselines: CloseLoopVar on unknown loop variable")
}

// ReadInput adds a TensorArray read of the current iteration.
func (g *DFGraph) ReadInput() int {
	return g.add(&DFNode{Kind: DFRead, Name: "ta_read"})
}

// DFStats reports executor work for the harness.
type DFStats struct {
	// NodesExecuted counts node firings (including control primitives).
	NodesExecuted int64
	// ControlNodes counts Enter/Merge/Switch/Exit/NextIteration firings —
	// the pure control-flow-encoding overhead.
	ControlNodes int64
	// Iterations is the number of loop iterations executed.
	Iterations int
}

type valKey struct {
	node, iter int
}

// Run executes the graph with the tagged-token scheduler. Every node firing
// performs the framework bookkeeping a dataflow runtime does: ready-queue
// push/pop, per-(node, iteration) value-map writes, and downstream
// pending-count updates.
func (g *DFGraph) Run(stats *DFStats) (*tensor.Tensor, error) {
	vals := make(map[valKey]*tensor.Tensor, len(g.Nodes)*2)
	type token struct {
		node, iter int
	}
	var queue []token
	consumers := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in >= 0 {
				consumers[in] = append(consumers[in], n.ID)
			}
		}
	}
	invariant := g.invariantNodes()
	var readNodes []int
	for _, n := range g.Nodes {
		if n.Kind == DFRead {
			readNodes = append(readNodes, n.ID)
		}
	}

	// inputAt resolves an input's value: loop-invariant producers are read
	// at iteration 0, loop-variant ones at the consumer's iteration.
	inputAt := func(in, iter int) *tensor.Tensor {
		if invariant[in] {
			return vals[valKey{in, 0}]
		}
		return vals[valKey{in, iter}]
	}

	fired := map[valKey]bool{}
	enqueue := func(node, iter int) {
		k := valKey{node, iter}
		if fired[k] {
			return
		}
		n := g.Nodes[node]
		switch n.Kind {
		case DFMerge:
			if iter == 0 {
				if vals[valKey{n.Inputs[0], 0}] == nil {
					return
				}
			} else {
				if n.Inputs[1] < 0 || vals[valKey{n.Inputs[1], iter}] == nil {
					return
				}
			}
		case DFRead:
			// No data inputs.
		default:
			for _, in := range n.Inputs {
				if in >= 0 && inputAt(in, iter) == nil {
					return
				}
			}
		}
		fired[k] = true
		queue = append(queue, token{node, iter})
	}

	// Seed the sources.
	for _, n := range g.Nodes {
		switch n.Kind {
		case DFConst, DFRead:
			enqueue(n.ID, 0)
		case DFKernel:
			if len(n.Inputs) == 0 {
				enqueue(n.ID, 0)
			}
		}
	}
	var result *tensor.Tensor
	maxFirings := 1 << 24
	for len(queue) > 0 {
		if maxFirings--; maxFirings < 0 {
			return nil, fmt.Errorf("baselines: dataflow executor did not converge")
		}
		tok := queue[0]
		queue = queue[1:]
		n := g.Nodes[tok.node]
		if stats != nil {
			stats.NodesExecuted++
		}
		if g.NodeOverhead > 0 {
			deadline := time.Now().Add(g.NodeOverhead)
			for time.Now().Before(deadline) {
			}
		}
		var out *tensor.Tensor
		storeIter := tok.iter
		switch n.Kind {
		case DFConst:
			out = n.Value
		case DFKernel:
			args := make([]*tensor.Tensor, len(n.Inputs))
			for i, in := range n.Inputs {
				args[i] = inputAt(in, tok.iter)
			}
			out = n.Kernel(args)
		case DFRead:
			out = g.Read(tok.iter)
		case DFEnter:
			if stats != nil {
				stats.ControlNodes++
			}
			out = vals[valKey{n.Inputs[0], 0}]
		case DFMerge:
			if stats != nil {
				stats.ControlNodes++
			}
			if tok.iter == 0 {
				out = vals[valKey{n.Inputs[0], 0}]
			} else {
				out = vals[valKey{n.Inputs[1], tok.iter}]
			}
		case DFSwitch:
			if stats != nil {
				stats.ControlNodes++
			}
			out = vals[valKey{n.Inputs[0], tok.iter}]
		case DFExit:
			if stats != nil {
				stats.ControlNodes++
			}
			out = vals[valKey{n.Inputs[0], tok.iter}]
		case DFNextIter:
			if stats != nil {
				stats.ControlNodes++
			}
			// A NextIteration token produced at iter i is consumed by the
			// Merge of iter i+1; store it under the consuming iteration.
			out = vals[valKey{n.Inputs[0], tok.iter}]
			storeIter = tok.iter + 1
		}
		vals[valKey{n.ID, storeIter}] = out

		for _, cid := range consumers[n.ID] {
			c := g.Nodes[cid]
			switch {
			case n.Kind == DFSwitch && c.Kind == DFExit:
				if g.Cond == nil || !g.Cond(tok.iter) {
					enqueue(cid, tok.iter)
				}
			case n.Kind == DFSwitch:
				if g.Cond != nil && g.Cond(tok.iter) {
					enqueue(cid, tok.iter)
					if stats != nil && stats.Iterations <= tok.iter {
						stats.Iterations = tok.iter + 1
					}
					// Entering iteration tok.iter activates the
					// TensorArray reads of that iteration.
					for _, r := range readNodes {
						enqueue(r, tok.iter)
					}
				}
			case n.Kind == DFNextIter:
				enqueue(cid, storeIter)
			default:
				enqueue(cid, tok.iter)
			}
		}
		if tok.node == g.Output {
			result = out
		}
	}
	if result == nil {
		return nil, fmt.Errorf("baselines: dataflow graph produced no output")
	}
	return result, nil
}

// invariantNodes marks nodes whose value is the same on every iteration:
// constants and kernels computed solely from invariant inputs (weights and
// derived weights).
func (g *DFGraph) invariantNodes() []bool {
	inv := make([]bool, len(g.Nodes))
	changed := true
	for changed {
		changed = false
		for _, n := range g.Nodes {
			if inv[n.ID] {
				continue
			}
			ok := false
			switch n.Kind {
			case DFConst:
				ok = true
			case DFKernel:
				ok = len(n.Inputs) > 0
				for _, in := range n.Inputs {
					if in < 0 || !inv[in] {
						ok = false
					}
				}
			}
			if ok {
				inv[n.ID] = true
				changed = true
			}
		}
	}
	return inv
}

// BuildDataflowLSTM constructs the TF-style while-loop graph for a stacked
// LSTM over `steps`, mirroring the framework encoding of Table 1's baseline.
func BuildDataflowLSTM(m *models.LSTM, steps []*tensor.Tensor) *DFGraph {
	g := NewDFGraph()
	g.Cond = func(iter int) bool { return iter < len(steps) }
	g.Read = func(iter int) *tensor.Tensor {
		if iter < len(steps) {
			return steps[iter]
		}
		return steps[0]
	}
	type loopVar struct{ body, exit int }
	vars := make([]loopVar, 0, 2*len(m.Cells))
	weights := make([][3]int, len(m.Cells))
	for i, c := range m.Cells {
		bias2d, err := c.Bias.Value.Reshape(1, 4*c.Hidden)
		if err != nil {
			panic(err)
		}
		weights[i] = [3]int{g.Const(c.Wx.Value), g.Const(c.Wh.Value), g.Const(bias2d)}
		zero := g.Const(tensor.New(tensor.Float32, 1, c.Hidden))
		zb, ze := g.LoopVar(zero)
		vars = append(vars, loopVar{zb, ze})
		zero2 := g.Const(tensor.New(tensor.Float32, 1, c.Hidden))
		cb, ce := g.LoopVar(zero2)
		vars = append(vars, loopVar{cb, ce})
	}
	x := g.ReadInput()
	input := x
	dense := func(a, b, units int) int {
		return g.Kernel("matmul", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.DensePackedInto(t[0], t[1], units, nil)
		}, a, b)
	}
	add := func(a, b int) int {
		return g.Kernel("add", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.AddInto(t[0], t[1], nil)
		}, a, b)
	}
	mul := func(a, b int) int {
		return g.Kernel("mul", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.MulInto(t[0], t[1], nil)
		}, a, b)
	}
	act := func(name string, fn func(a, out *tensor.Tensor) *tensor.Tensor, a int) int {
		return g.Kernel(name, func(t []*tensor.Tensor) *tensor.Tensor { return fn(t[0], nil) }, a)
	}
	for i, c := range m.Cells {
		hVar, cVar := vars[2*i], vars[2*i+1]
		hd := c.Hidden
		gates := add(add(dense(input, weights[i][0], 4*hd), dense(hVar.body, weights[i][1], 4*hd)), weights[i][2])
		slice := func(idx int) int {
			lo, hi := idx*hd, (idx+1)*hd
			return g.Kernel("slice", func(t []*tensor.Tensor) *tensor.Tensor {
				return kernels.SliceInto(t[0], nil, 1, lo, hi)
			}, gates)
		}
		iG := act("sigmoid", kernels.SigmoidInto, slice(0))
		fG := act("sigmoid", kernels.SigmoidInto, slice(1))
		gG := act("tanh", kernels.TanhInto, slice(2))
		oG := act("sigmoid", kernels.SigmoidInto, slice(3))
		cNew := add(mul(fG, cVar.body), mul(iG, gG))
		hNew := mul(oG, act("tanh", kernels.TanhInto, cNew))
		g.CloseLoopVar(hVar.body, hNew)
		g.CloseLoopVar(cVar.body, cNew)
		input = hNew
	}
	g.Output = vars[2*(len(m.Cells)-1)].exit
	return g
}
