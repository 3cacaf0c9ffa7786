package baselines

import (
	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// BuildDataflowBERT constructs the straight-line dataflow graph a
// define-then-run framework executes for a transformer encoder. There is no
// control flow, but every operator is still a scheduled node (ready-queue
// pop, value-map writes), and no fusion happens — the structural gap to
// Nimble on Table 3.
func BuildDataflowBERT(m *EagerBERT, ids *tensor.Tensor) *DFGraph {
	g := NewDFGraph()
	cfg := m.Cfg
	headDim := cfg.Hidden / cfg.Heads

	k1 := func(name string, fn func(*tensor.Tensor) *tensor.Tensor, a int) int {
		return g.Kernel(name, func(t []*tensor.Tensor) *tensor.Tensor { return fn(t[0]) }, a)
	}
	k2 := func(name string, fn func(a, b *tensor.Tensor) *tensor.Tensor, a, b int) int {
		return g.Kernel(name, func(t []*tensor.Tensor) *tensor.Tensor { return fn(t[0], t[1]) }, a, b)
	}
	idsN := g.Const(ids)
	x := k2("take", kernels.Take, g.Const(m.Emb.T), idsN)
	scale := g.Const(tensor.Scalar(1 / float32(sqrtf(float64(headDim)))))

	for _, l := range m.Layers {
		dense := func(in int, w, b *Value) int {
			mm := g.Kernel("matmul", func(t []*tensor.Tensor) *tensor.Tensor {
				return kernels.DensePackedInto(t[0], t[1], w.units, nil)
			}, in, g.Const(w.T))
			return k2("add", kernels.Add, mm, g.Const(b.T))
		}
		q := dense(x, l.wq, l.bq)
		k := dense(x, l.wk, l.bk)
		v := dense(x, l.wv, l.bv)
		heads := make([]int, cfg.Heads)
		for h := 0; h < cfg.Heads; h++ {
			lo, hi := h*headDim, (h+1)*headDim
			sl := func(in int) int {
				return g.Kernel("slice", func(t []*tensor.Tensor) *tensor.Tensor {
					return kernels.Slice(t[0], 1, lo, hi)
				}, in)
			}
			qh, kh, vh := sl(q), sl(k), sl(v)
			kT := k1("transpose", func(t *tensor.Tensor) *tensor.Tensor {
				return kernels.Transpose(t, nil)
			}, kh)
			scores := k2("matmul", kernels.MatMul, qh, kT)
			probs := k1("softmax", kernels.Softmax, k2("mul", kernels.Mul, scores, scale))
			heads[h] = k2("matmul", kernels.MatMul, probs, vh)
		}
		ctx := g.Kernel("concat", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.Concat(t, 1)
		}, heads...)
		attn := dense(ctx, l.wo, l.bo)
		ln1 := g.Kernel("layer_norm", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.LayerNorm(t[0], t[1], t[2], 1e-5)
		}, k2("add", kernels.Add, x, attn), g.Const(l.g1.T), g.Const(l.b1.T))
		f1 := dense(ln1, l.f1w, l.f1b)
		f2 := dense(k1("gelu", kernels.Gelu, f1), l.f2w, l.f2b)
		x = g.Kernel("layer_norm", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.LayerNorm(t[0], t[1], t[2], 1e-5)
		}, k2("add", kernels.Add, ln1, f2), g.Const(l.g2.T), g.Const(l.b2.T))
	}
	g.Output = x
	return g
}
