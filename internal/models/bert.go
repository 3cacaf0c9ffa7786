package models

import (
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/nn"
	"nimble/internal/tensor"
)

// BERTConfig sizes the transformer encoder of Table 3. The paper uses BERT
// base (12 layers, hidden 768, 12 heads); the pure-Go benches default to a
// reduced configuration with the same architecture so one inference stays in
// milliseconds — EXPERIMENTS.md reports which config produced each number.
type BERTConfig struct {
	Layers int
	Hidden int
	Heads  int
	FFN    int
	Vocab  int
	MaxSeq int
	Seed   int64
}

// BERTBase is the paper's configuration.
func BERTBase() BERTConfig {
	return BERTConfig{Layers: 12, Hidden: 768, Heads: 12, FFN: 3072, Vocab: 30522, MaxSeq: 128, Seed: 44}
}

// BERTReduced is the default bench configuration: same architecture, scaled
// dimensions.
func BERTReduced() BERTConfig {
	return BERTConfig{Layers: 4, Hidden: 256, Heads: 4, FFN: 1024, Vocab: 8192, MaxSeq: 128, Seed: 44}
}

// BERT is a transformer encoder over a dynamic-length token sequence — the
// evaluation's "dynamic data shape" model: the sequence dimension is Any
// throughout, so every dense kernel is symbolic and residue-dispatched.
type BERT struct {
	Config BERTConfig
	Module *ir.Module
}

// NewBERT builds the encoder as a single static graph over Tensor[(Any,
// hidden)] activations: embedding lookup, then per layer multi-head
// self-attention (scores [Any, Any]) and a GELU FFN with residuals and
// layer norm.
func NewBERT(cfg BERTConfig) *BERT { return newBERT(cfg, ir.DimAny) }

// NewBERTStatic builds the same encoder with a fixed sequence length — the
// statically shaped variant Table 4 compares against: every kernel compiles
// with concrete shapes and no shape functions or dynamic allocation remain.
func NewBERTStatic(cfg BERTConfig, seq int) *BERT { return newBERT(cfg, seq) }

func newBERT(cfg BERTConfig, seqDim int) *BERT {
	nn.Validate(cfg.Layers, cfg.Hidden, cfg.Heads, cfg.FFN, cfg.Vocab)
	if cfg.Hidden%cfg.Heads != 0 {
		panic("models: hidden must divide by heads")
	}
	init := nn.NewInit(cfg.Seed)
	mod := ir.NewModule()
	b := ir.NewBuilder()

	ids := ir.NewVar("ids", ir.TT(tensor.Int64, seqDim))
	emb := nn.NewEmbedding(init, cfg.Vocab, cfg.Hidden)
	x := ir.Expr(emb.Apply(b, ids))

	headDim := cfg.Hidden / cfg.Heads
	scale := ir.ConstScalar(1.0 / float32sqrt(float32(headDim)))

	for layer := 0; layer < cfg.Layers; layer++ {
		wq := nn.NewLinear(init, cfg.Hidden, cfg.Hidden)
		wk := nn.NewLinear(init, cfg.Hidden, cfg.Hidden)
		wv := nn.NewLinear(init, cfg.Hidden, cfg.Hidden)
		wo := nn.NewLinear(init, cfg.Hidden, cfg.Hidden)
		ln1 := nn.NewLayerNorm(init, cfg.Hidden)
		ln2 := nn.NewLayerNorm(init, cfg.Hidden)
		ff1 := nn.NewLinear(init, cfg.Hidden, cfg.FFN)
		ff2 := nn.NewLinear(init, cfg.FFN, cfg.Hidden)

		q := wq.Apply(b, x)
		k := wk.Apply(b, x)
		v := wv.Apply(b, x)

		heads := make([]ir.Expr, cfg.Heads)
		for hIdx := 0; hIdx < cfg.Heads; hIdx++ {
			lo, hi := hIdx*headDim, (hIdx+1)*headDim
			sl := func(t ir.Expr) ir.Expr {
				return b.OpAttrs("strided_slice", ir.Attrs{"axis": 1, "begin": lo, "end": hi}, t)
			}
			qh, kh, vh := sl(q), sl(k), sl(v)
			kT := b.Op("transpose", kh)     // [headDim, Any]
			scores := b.Op("dense", qh, kT) // [Any, Any]
			scaled := b.Op("multiply", scores, scale)
			probs := b.Op("softmax", scaled)
			heads[hIdx] = b.Op("dense", probs, vh) // [Any, headDim]
		}
		ctx := b.OpAttrs("concat", ir.Attrs{"axis": 1}, heads...)
		attnOut := wo.Apply(b, ctx)
		x = ln1.Apply(b, b.Op("add", x, attnOut))

		ffn := ff2.Apply(b, b.Op("gelu", ff1.Apply(b, x)))
		x = ln2.Apply(b, b.Op("add", x, ffn))
	}

	mod.AddFunc("main", ir.NewFunc([]*ir.Var{ids}, b.Finish(x),
		ir.TT(tensor.Float32, ir.DimAny, cfg.Hidden)))
	return &BERT{Config: cfg, Module: mod}
}

func float32sqrt(x float32) float32 {
	// Newton iterations suffice for the attention scale constant.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// RandomIDs draws a token-id sequence of length n.
func (m *BERT) RandomIDs(rng *rand.Rand, n int) *tensor.Tensor {
	return tensor.RandomInts(rng, int64(m.Config.Vocab), n)
}
