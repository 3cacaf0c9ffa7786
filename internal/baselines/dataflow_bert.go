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

	k1 := func(name string, fn func(a, out *tensor.Tensor) *tensor.Tensor, a int) int {
		return g.Kernel(name, func(t []*tensor.Tensor) *tensor.Tensor { return fn(t[0], nil) }, a)
	}
	k2 := func(name string, fn func(a, b, out *tensor.Tensor) *tensor.Tensor, a, b int) int {
		return g.Kernel(name, func(t []*tensor.Tensor) *tensor.Tensor { return fn(t[0], t[1], nil) }, a, b)
	}
	idsN := g.Const(ids)
	x := k2("take", kernels.TakeInto, g.Const(m.Emb.T), idsN)
	scale := g.Const(tensor.Scalar(1 / float32(sqrtf(float64(headDim)))))

	for _, l := range m.Layers {
		dense := func(in int, w, b *Value) int {
			mm := g.Kernel("matmul", func(t []*tensor.Tensor) *tensor.Tensor {
				return kernels.DensePackedInto(t[0], t[1], w.units, nil)
			}, in, g.Const(w.T))
			return k2("add", kernels.AddInto, mm, g.Const(b.T))
		}
		q := dense(x, l.wq, l.bq)
		k := dense(x, l.wk, l.bk)
		v := dense(x, l.wv, l.bv)
		heads := make([]int, cfg.Heads)
		for h := 0; h < cfg.Heads; h++ {
			lo, hi := h*headDim, (h+1)*headDim
			sl := func(in int) int {
				return g.Kernel("slice", func(t []*tensor.Tensor) *tensor.Tensor {
					return kernels.SliceInto(t[0], nil, 1, lo, hi)
				}, in)
			}
			qh, kh, vh := sl(q), sl(k), sl(v)
			kT := g.Kernel("transpose", func(t []*tensor.Tensor) *tensor.Tensor {
				return kernels.Transpose(t[0], nil)
			}, kh)
			scores := k2("matmul", kernels.MatMulInto, qh, kT)
			probs := k1("softmax", kernels.SoftmaxInto, k2("mul", kernels.MulInto, scores, scale))
			heads[h] = k2("matmul", kernels.MatMulInto, probs, vh)
		}
		ctx := g.Kernel("concat", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.ConcatInto(t, nil, 1)
		}, heads...)
		attn := dense(ctx, l.wo, l.bo)
		ln1 := g.Kernel("layer_norm", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.LayerNormInto(t[0], t[1], t[2], nil, 1e-5)
		}, k2("add", kernels.AddInto, x, attn), g.Const(l.g1.T), g.Const(l.b1.T))
		f1 := dense(ln1, l.f1w, l.f1b)
		f2 := dense(k1("gelu", kernels.GeluInto, f1), l.f2w, l.f2b)
		x = g.Kernel("layer_norm", func(t []*tensor.Tensor) *tensor.Tensor {
			return kernels.LayerNormInto(t[0], t[1], t[2], nil, 1e-5)
		}, k2("add", kernels.AddInto, ln1, f2), g.Const(l.g2.T), g.Const(l.b2.T))
	}
	g.Output = x
	return g
}
