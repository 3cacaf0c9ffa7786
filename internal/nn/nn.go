// Package nn is the model-builder API on top of the IR: layers hold their
// weights as IR constants and emit operator calls into a builder. It plays
// the role of the framework frontend importers in the paper's pipeline —
// models enter Nimble as IR modules built here.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// Init provides seeded weight initialization. Weights are random because
// every evaluated quantity in the reproduction is a latency; the scale
// follows Xavier so activations stay finite through deep stacks.
type Init struct {
	Rng *rand.Rand
}

// NewInit creates an initializer from a seed.
func NewInit(seed int64) *Init { return &Init{Rng: rand.New(rand.NewSource(seed))} }

// Xavier draws a [rows, cols] weight with Xavier-uniform scale.
func (in *Init) Xavier(rows, cols int) *tensor.Tensor {
	scale := math.Sqrt(6.0 / float64(rows+cols))
	return tensor.Random(in.Rng, scale, rows, cols)
}

// Weight draws the values Xavier(rows, cols) draws, in the same order, and
// lays each row out in the 16-column panels the dense row tile reads
// (kernels.PackRow, the layout of kernels.PackB). It returns them as the B
// constant of a dense_packed of cols units. A model built from these holds
// one copy of each weight; a dense over a row-major constant gets a second,
// packed, copy when it is compiled (the pack-dense-weights pass).
func (in *Init) Weight(rows, cols int) *ir.Constant {
	scale, rng := math.Sqrt(6.0/float64(rows+cols)), in.Rng
	p := tensor.New(tensor.Float32, rows, kernels.PackedCols(cols))
	pv, row := p.F32(), make([]float32, cols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = float32((rng.Float64()*2 - 1) * scale)
		}
		kernels.PackRow(pv, row, rows, r)
	}
	return &ir.Constant{Value: p, Units: cols}
}

// Dense emits x@W for a weight from Init.Weight.
func Dense(b *ir.Builder, x ir.Expr, w *ir.Constant) ir.Expr {
	return b.OpAttrs("dense_packed", ir.Attrs{"units": w.Units}, x, w)
}

// Vector draws a length-n vector with small uniform values.
func (in *Init) Vector(n int) *tensor.Tensor {
	return tensor.Random(in.Rng, 0.01, n)
}

// Ones returns a length-n vector of ones (layer-norm gamma).
func (in *Init) Ones(n int) *tensor.Tensor {
	t := tensor.New(tensor.Float32, n)
	t.Fill(1)
	return t
}

// Zeros returns a length-n zero vector (layer-norm beta).
func (in *Init) Zeros(n int) *tensor.Tensor { return tensor.New(tensor.Float32, n) }

// Linear is a dense layer y = x@W + b.
type Linear struct {
	W *ir.Constant // [In, Out] as panels (Init.Weight)
	B *ir.Constant
	// In and Out record the layer dimensions for cost accounting.
	In, Out int
}

// NewLinear creates a dense layer with fresh weights.
func NewLinear(init *Init, in, out int) *Linear {
	return &Linear{
		W:  init.Weight(in, out),
		B:  ir.Const(init.Vector(out)),
		In: in, Out: out,
	}
}

// Apply emits dense+bias_add for input x.
func (l *Linear) Apply(b *ir.Builder, x ir.Expr) ir.Expr {
	return b.Op("bias_add", Dense(b, x, l.W), l.B)
}

// ApplyNoBias emits only the dense matmul.
func (l *Linear) ApplyNoBias(b *ir.Builder, x ir.Expr) ir.Expr {
	return Dense(b, x, l.W)
}

// LayerNorm is a layer-normalization layer over the last axis.
type LayerNorm struct {
	Gamma *ir.Constant
	Beta  *ir.Constant
	Dim   int
}

// NewLayerNorm creates a layer norm with unit gamma and zero beta.
func NewLayerNorm(init *Init, dim int) *LayerNorm {
	return &LayerNorm{Gamma: ir.Const(init.Ones(dim)), Beta: ir.Const(init.Zeros(dim)), Dim: dim}
}

// Apply emits layer_norm(x).
func (l *LayerNorm) Apply(b *ir.Builder, x ir.Expr) ir.Expr {
	return b.OpAttrs("layer_norm", ir.Attrs{"eps": 1e-5}, x, l.Gamma, l.Beta)
}

// Embedding is a token-id lookup table.
type Embedding struct {
	Table      *ir.Constant
	Vocab, Dim int
}

// NewEmbedding creates a [vocab, dim] embedding.
func NewEmbedding(init *Init, vocab, dim int) *Embedding {
	return &Embedding{Table: ir.Const(init.Xavier(vocab, dim)), Vocab: vocab, Dim: dim}
}

// Apply emits take(table, ids).
func (e *Embedding) Apply(b *ir.Builder, ids ir.Expr) ir.Expr {
	return b.Op("take", e.Table, ids)
}

// LSTMCell holds the fused gate weights of one LSTM layer: the input and
// hidden projections produce a [1, 4*hidden] pre-activation split into
// input/forget/cell/output gates.
type LSTMCell struct {
	Wx, Wh        *ir.Constant // as panels (Init.Weight)
	Bias          *ir.Constant
	Input, Hidden int
}

// NewLSTMCell creates a cell with input size in and hidden size h.
func NewLSTMCell(init *Init, in, h int) *LSTMCell {
	return &LSTMCell{
		Wx:    init.Weight(in, 4*h),
		Wh:    init.Weight(h, 4*h),
		Bias:  ir.Const(init.Vector(4 * h)),
		Input: in, Hidden: h,
	}
}

// Step emits one LSTM step; x is [1, in], h and c are [1, hidden]. It
// returns the new (h, c) expressions.
func (cell *LSTMCell) Step(b *ir.Builder, x, h, c ir.Expr) (ir.Expr, ir.Expr) {
	hd := cell.Hidden
	gx := Dense(b, x, cell.Wx)
	gh := Dense(b, h, cell.Wh)
	sum := b.Op("add", gx, gh)
	gates := b.Op("bias_add", sum, cell.Bias)
	slice := func(idx int) ir.Expr {
		return b.OpAttrs("strided_slice", ir.Attrs{"axis": 1, "begin": idx * hd, "end": (idx + 1) * hd}, gates)
	}
	i := b.Op("sigmoid", slice(0))
	f := b.Op("sigmoid", slice(1))
	g := b.Op("tanh", slice(2))
	o := b.Op("sigmoid", slice(3))
	fc := b.Op("multiply", f, c)
	ig := b.Op("multiply", i, g)
	cNew := b.Op("add", fc, ig)
	hNew := b.Op("multiply", o, b.Op("tanh", cNew))
	return hNew, cNew
}

// ZeroState returns a [1, hidden] zero constant for initial h/c.
func (cell *LSTMCell) ZeroState() *ir.Constant {
	return ir.Const(tensor.New(tensor.Float32, 1, cell.Hidden))
}

// ListType declares the cons-list ADT used to feed variable-length
// sequences to dynamic models: List = Nil | Cons(Tensor[(1, dim)], List).
// Frameworks express this with tensor arrays; the IR's ADTs make it a
// first-class dynamic data structure.
func ListType(name string, dim int) (*ir.TypeDef, *ir.Constructor, *ir.Constructor) {
	elemT := ir.TT(tensor.Float32, 1, dim)
	nilC := ir.NewConstructor("Nil")
	consC := ir.NewConstructor("Cons", elemT, nil)
	td := ir.NewTypeDef(name, nilC, consC)
	consC.Fields[1] = td.Type()
	return td, nilC, consC
}

// Validate panics if a layer dimension is non-positive — catching
// misconfigured model configs early.
func Validate(dims ...int) {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer dimension %d", d))
		}
	}
}
