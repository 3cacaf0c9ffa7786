// Package baselines implements the comparison systems of §6: an eager
// define-by-run executor (PyTorch/DyNet-like), a define-then-run dataflow
// executor with TF-style control-flow primitives, a TF-Fold-like
// dynamic-batching executor that rebuilds its graph per input, and a static
// padded graph runtime standing in for TVM's static compiler.
//
// All baselines compute with the same kernel library as Nimble
// (internal/kernels), so measured differences come from the structural
// causes the paper identifies — per-op bookkeeping and dispatch, absent
// fusion, per-input graph construction, control-flow primitive scheduling,
// and padding waste — not from different arithmetic.
package baselines

import (
	"fmt"
	"time"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// node is the autograd-tape record an eager framework allocates for every
// operator call: op identity, input references, and output metadata. The
// tape is what "requires the creation of a path specialized static data
// flow graph" per execution (§2.1); its maintenance is the eager overhead.
type node struct {
	op       string
	inputs   []*Value
	out      *tensor.Tensor
	gradFn   func() // placeholder: inference never calls it, but frameworks allocate it
	requires bool
}

// Value is an eager framework tensor: payload plus tape node.
type Value struct {
	T    *tensor.Tensor
	node *node
	// units is non-zero for a weight kept as 16-column panels
	// (nn.Init.Weight): T is [k, PackedCols(units)], and dense reads it as
	// it is, the way a framework keeps its weights prepacked for its GEMM.
	units int
}

// Eager is a define-by-run session: each op call appends to the tape and
// dispatches dynamically by name, like the Python-dispatched frameworks it
// models.
type Eager struct {
	tape     []*node
	dispatch map[string]func(args []*Value) *tensor.Tensor
	// Ops counts operator invocations (for reports).
	Ops int64
	// OpOverhead charges a calibrated host-language dispatch cost per
	// operator call. The paper attributes the Tree-LSTM gap to "PyTorch
	// uses Python to handle the tree data structure": the Go executor has
	// no interpreter tax of its own, so the harness sets this to the
	// published ~2µs Python/pybind dispatch latency to model it (measured
	// columns report the setting in their notes; zero disables it).
	OpOverhead time.Duration
}

// NewEager creates a session with the standard operator table.
func NewEager() *Eager {
	e := &Eager{dispatch: map[string]func([]*Value) *tensor.Tensor{}}
	e.dispatch["dense"] = func(a []*Value) *tensor.Tensor { return dense(a[0].T, a[1]) }
	e.dispatch["add"] = func(a []*Value) *tensor.Tensor { return kernels.AddInto(a[0].T, a[1].T, nil) }
	e.dispatch["multiply"] = func(a []*Value) *tensor.Tensor { return kernels.MulInto(a[0].T, a[1].T, nil) }
	e.dispatch["sigmoid"] = func(a []*Value) *tensor.Tensor { return kernels.SigmoidInto(a[0].T, nil) }
	e.dispatch["tanh"] = func(a []*Value) *tensor.Tensor { return kernels.TanhInto(a[0].T, nil) }
	e.dispatch["gelu"] = func(a []*Value) *tensor.Tensor { return kernels.GeluInto(a[0].T, nil) }
	e.dispatch["softmax"] = func(a []*Value) *tensor.Tensor { return kernels.SoftmaxInto(a[0].T, nil) }
	e.dispatch["transpose"] = func(a []*Value) *tensor.Tensor { return kernels.Transpose(a[0].T, nil) }
	e.dispatch["take"] = func(a []*Value) *tensor.Tensor { return kernels.TakeInto(a[0].T, a[1].T, nil) }
	return e
}

// Wrap lifts a raw tensor into the session.
func (e *Eager) Wrap(t *tensor.Tensor) *Value { return &Value{T: t} }

// WrapWeight lifts a weight constant, keeping the panels of a packed one.
func (e *Eager) WrapWeight(c *ir.Constant) *Value { return &Value{T: c.Value, units: c.Units} }

// dense is x@w over w's panels when w is a packed weight, and over a
// row-major w (a B computed at run time) packed per call otherwise.
func dense(x *tensor.Tensor, w *Value) *tensor.Tensor {
	if w.units > 0 {
		return kernels.DensePackedInto(x, w.T, w.units, nil)
	}
	return kernels.MatMulInto(x, w.T, nil)
}

// Reset clears the tape between inferences (frameworks rebuild it per run).
func (e *Eager) Reset() { e.tape = e.tape[:0] }

// TapeLen reports the current tape length.
func (e *Eager) TapeLen() int { return len(e.tape) }

// apply performs one eager op: tape-node allocation, name dispatch, fresh
// output allocation.
func (e *Eager) apply(op string, args ...*Value) *Value {
	fn, ok := e.dispatch[op]
	if !ok {
		panic(fmt.Sprintf("baselines: eager op %q not registered", op))
	}
	n := &node{op: op, inputs: args, requires: true}
	n.gradFn = func() {}
	e.chargeOverhead()
	out := fn(args)
	n.out = out
	e.tape = append(e.tape, n)
	e.Ops++
	return &Value{T: out, node: n}
}

// sliceCols is the eager gate split (frameworks chunk the gate tensor).
func (e *Eager) sliceCols(v *Value, lo, hi int) *Value {
	n := &node{op: "slice", inputs: []*Value{v}, requires: true}
	e.chargeOverhead()
	out := kernels.SliceInto(v.T, nil, 1, lo, hi)
	n.out = out
	e.tape = append(e.tape, n)
	e.Ops++
	return &Value{T: out, node: n}
}

// LSTMStep runs one eager LSTM step (no fusion: every gate op is a separate
// framework call, exactly how an imperative model executes).
func (e *Eager) LSTMStep(cell EagerLSTMCell, x, h, c *Value) (*Value, *Value) {
	hd := cell.Hidden
	gx := e.apply("dense", x, cell.Wx)
	gh := e.apply("dense", h, cell.Wh)
	sum := e.apply("add", gx, gh)
	gates := e.apply("add", sum, cell.Bias)
	i := e.apply("sigmoid", e.sliceCols(gates, 0, hd))
	f := e.apply("sigmoid", e.sliceCols(gates, hd, 2*hd))
	g := e.apply("tanh", e.sliceCols(gates, 2*hd, 3*hd))
	o := e.apply("sigmoid", e.sliceCols(gates, 3*hd, 4*hd))
	cNew := e.apply("add", e.apply("multiply", f, c), e.apply("multiply", i, g))
	hNew := e.apply("multiply", o, e.apply("tanh", cNew))
	return hNew, cNew
}

// EagerLSTMCell holds framework-side weights, shared with the Nimble model
// so outputs are comparable.
type EagerLSTMCell struct {
	Wx, Wh, Bias *Value
	Hidden       int
}

// CellsFromModel imports the Nimble LSTM's weights.
func (e *Eager) CellsFromModel(m *models.LSTM) []EagerLSTMCell {
	out := make([]EagerLSTMCell, len(m.Cells))
	for i, c := range m.Cells {
		bias2d, err := c.Bias.Value.Reshape(1, 4*c.Hidden)
		if err != nil {
			panic(err)
		}
		out[i] = EagerLSTMCell{
			Wx: e.WrapWeight(c.Wx), Wh: e.WrapWeight(c.Wh),
			Bias: e.Wrap(bias2d), Hidden: c.Hidden,
		}
	}
	return out
}

// RunLSTM executes a full sequence define-by-run, rebuilding the tape.
func (e *Eager) RunLSTM(cells []EagerLSTMCell, steps []*tensor.Tensor) *tensor.Tensor {
	e.Reset()
	hs := make([]*Value, len(cells))
	cs := make([]*Value, len(cells))
	for i, cell := range cells {
		zero := tensor.New(tensor.Float32, 1, cell.Hidden)
		hs[i] = e.Wrap(zero)
		cs[i] = e.Wrap(zero.Clone())
	}
	for _, x := range steps {
		in := e.Wrap(x)
		for i, cell := range cells {
			hs[i], cs[i] = e.LSTMStep(cell, in, hs[i], cs[i])
			in = hs[i]
		}
	}
	return hs[len(hs)-1].T
}

// EagerTreeCell holds Tree-LSTM weights for the eager driver.
type EagerTreeCell struct {
	Leaf       EagerLSTMCell
	WIOU, BIOU *Value
	WF, BF     *Value
	Hidden     int
}

// RunTreeLSTM executes a child-sum Tree-LSTM recursively in the host
// language — the "PyTorch uses Python to handle the tree data structure"
// pattern the paper measures 17-20x against.
func (e *Eager) RunTreeLSTM(cell EagerTreeCell, t *models.Tree) (*Value, *Value) {
	if t.Value != nil {
		zero := e.Wrap(tensor.New(tensor.Float32, 1, cell.Hidden))
		return e.LSTMStep(cell.Leaf, e.Wrap(t.Value), zero, zero)
	}
	hl, cl := e.RunTreeLSTM(cell, t.Left)
	hr, cr := e.RunTreeLSTM(cell, t.Right)
	h := cell.Hidden
	hsum := e.apply("add", hl, hr)
	iou := e.apply("add", e.apply("dense", hsum, cell.WIOU), cell.BIOU)
	i := e.apply("sigmoid", e.sliceCols(iou, 0, h))
	o := e.apply("sigmoid", e.sliceCols(iou, h, 2*h))
	u := e.apply("tanh", e.sliceCols(iou, 2*h, 3*h))
	fl := e.apply("sigmoid", e.apply("add", e.apply("dense", hl, cell.WF), cell.BF))
	fr := e.apply("sigmoid", e.apply("add", e.apply("dense", hr, cell.WF), cell.BF))
	cNew := e.apply("add",
		e.apply("multiply", i, u),
		e.apply("add", e.apply("multiply", fl, cl), e.apply("multiply", fr, cr)))
	hNew := e.apply("multiply", o, e.apply("tanh", cNew))
	return hNew, cNew
}

// EagerBERT holds imported BERT weights for the eager driver.
type EagerBERT struct {
	Cfg    models.BERTConfig
	Emb    *Value
	Layers []eagerBERTLayer
}

type eagerBERTLayer struct {
	wq, bq, wk, bk, wv, bv, wo, bo *Value
	g1, b1, g2, b2                 *Value
	f1w, f1b, f2w, f2b             *Value
}

// RunBERT executes the encoder define-by-run (per-op dispatch, no fusion).
func (e *Eager) RunBERT(m *EagerBERT, ids *tensor.Tensor) *tensor.Tensor {
	e.Reset()
	cfg := m.Cfg
	x := e.apply("take", m.Emb, e.Wrap(ids))
	headDim := cfg.Hidden / cfg.Heads
	scale := e.Wrap(tensor.Scalar(1 / float32(sqrtf(float64(headDim)))))
	for _, l := range m.Layers {
		q := e.apply("add", e.apply("dense", x, l.wq), l.bq)
		k := e.apply("add", e.apply("dense", x, l.wk), l.bk)
		v := e.apply("add", e.apply("dense", x, l.wv), l.bv)
		heads := make([]*tensor.Tensor, cfg.Heads)
		for h := 0; h < cfg.Heads; h++ {
			lo, hi := h*headDim, (h+1)*headDim
			qh, kh, vh := e.sliceCols(q, lo, hi), e.sliceCols(k, lo, hi), e.sliceCols(v, lo, hi)
			scores := e.apply("dense", qh, e.apply("transpose", kh))
			probs := e.apply("softmax", e.apply("multiply", scores, scale))
			heads[h] = e.apply("dense", probs, vh).T
		}
		ctxT := kernels.ConcatInto(heads, nil, 1)
		e.Ops++ // concat counts as a framework op
		ctx := e.Wrap(ctxT)
		attn := e.apply("add", e.apply("dense", ctx, l.wo), l.bo)
		x = e.layerNorm(e.apply("add", x, attn), l.g1, l.b1)
		ffn := e.apply("add", e.apply("dense",
			e.apply("gelu", e.apply("add", e.apply("dense", x, l.f1w), l.f1b)), l.f2w), l.f2b)
		x = e.layerNorm(e.apply("add", x, ffn), l.g2, l.b2)
	}
	return x.T
}

func (e *Eager) layerNorm(x, gamma, beta *Value) *Value {
	n := &node{op: "layer_norm", inputs: []*Value{x, gamma, beta}, requires: true}
	e.chargeOverhead()
	out := kernels.LayerNormInto(x.T, gamma.T, beta.T, nil, 1e-5)
	n.out = out
	e.tape = append(e.tape, n)
	e.Ops++
	return &Value{T: out, node: n}
}

// chargeOverhead spins for the configured per-op dispatch cost.
func (e *Eager) chargeOverhead() {
	if e.OpOverhead <= 0 {
		return
	}
	deadline := time.Now().Add(e.OpOverhead)
	for time.Now().Before(deadline) {
	}
}

func sqrtf(x float64) float64 {
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}
