package models

import (
	"fmt"

	"nimble/internal/ir"
	"nimble/internal/nn"
	"nimble/internal/tensor"
)

// DecoderConfig sizes the autoregressive transformer decoder used by the
// streaming-decode evaluation: a pre-norm GPT-style block stack generating
// MaxNew tokens with a per-layer in-VM KV-cache.
type DecoderConfig struct {
	Vocab  int
	Dim    int
	Layers int
	Heads  int
	FFN    int
	// MaxNew is the number of tokens one invocation generates (and the
	// capacity of every cache buffer).
	MaxNew int
	// Seed initializes the weights and, for the sampled entry, the
	// deterministic sampler.
	Seed int64
	// Temp is the softmax temperature of the "generate_sampled" entry;
	// "generate" is always greedy.
	Temp float64
}

// DefaultDecoderConfig is a small decoder that exercises every piece of the
// streaming path while staying fast enough for tests.
func DefaultDecoderConfig() DecoderConfig {
	return DecoderConfig{Vocab: 128, Dim: 64, Layers: 2, Heads: 4, FFN: 128, MaxNew: 32, Seed: 42, Temp: 0.8}
}

// Decoder bundles the IR module with the metadata the harness needs.
type Decoder struct {
	Config DecoderConfig
	Module *ir.Module
}

type decoderLayer struct {
	ln1, ln2       *nn.LayerNorm
	wq, wk, wv, wo *nn.Linear
	ff1, ff2       *nn.Linear
}

// NewDecoder builds the decoder as a self-recursive IR function:
//
//	loop(tok, pos, out, K1, V1, ..., KL, VL) =
//	  x    = embed[tok] + posembed[pos]
//	  per layer: append k/v at pos (in place), attend over the prefix
//	  next = sample(logits, pos); emit(next); out[pos] = next
//	  if pos+1 < MaxNew then loop(next, pos+1, out, K', V', ...) else out
//
// The compiler turns the tail self-call into a backward jump (one frame for
// the whole generation) and the memory planner routes every cache_append
// onto its own cache buffer, so each step touches one cache row instead of
// copying the cache. Two entries share the weights: "generate" decodes
// greedily, "generate_sampled" samples at cfg.Temp with cfg.Seed.
func NewDecoder(cfg DecoderConfig) *Decoder {
	nn.Validate(cfg.Vocab, cfg.Dim, cfg.Layers, cfg.Heads, cfg.FFN, cfg.MaxNew)
	if cfg.Dim%cfg.Heads != 0 {
		panic(fmt.Sprintf("models: decoder dim %d not divisible by %d heads", cfg.Dim, cfg.Heads))
	}
	init := nn.NewInit(cfg.Seed)
	mod := ir.NewModule()

	embed := nn.NewEmbedding(init, cfg.Vocab, cfg.Dim)
	posEmbed := nn.NewEmbedding(init, cfg.MaxNew, cfg.Dim)
	layers := make([]*decoderLayer, cfg.Layers)
	for i := range layers {
		layers[i] = &decoderLayer{
			ln1: nn.NewLayerNorm(init, cfg.Dim), ln2: nn.NewLayerNorm(init, cfg.Dim),
			wq: nn.NewLinear(init, cfg.Dim, cfg.Dim), wk: nn.NewLinear(init, cfg.Dim, cfg.Dim),
			wv: nn.NewLinear(init, cfg.Dim, cfg.Dim), wo: nn.NewLinear(init, cfg.Dim, cfg.Dim),
			ff1: nn.NewLinear(init, cfg.Dim, cfg.FFN), ff2: nn.NewLinear(init, cfg.FFN, cfg.Dim),
		}
	}
	lnF := nn.NewLayerNorm(init, cfg.Dim)
	lmHead := nn.NewLinear(init, cfg.Dim, cfg.Vocab)

	d := &Decoder{Config: cfg, Module: mod}
	d.addEntry("loop", "generate", 0, embed, posEmbed, layers, lnF, lmHead)
	if cfg.Temp > 0 {
		d.addEntry("loop_sampled", "generate_sampled", cfg.Temp, embed, posEmbed, layers, lnF, lmHead)
	}
	return d
}

// addEntry emits one (loop, entry) pair at the given sampling temperature.
// The weights are shared *ir.Constant values, so the compiler's constant
// interning stores each tensor once however many entries reference it.
func (d *Decoder) addEntry(loopName, entryName string, temp float64,
	embed, posEmbed *nn.Embedding, layers []*decoderLayer, lnF *nn.LayerNorm, lmHead *nn.Linear) {
	cfg := d.Config
	idxT := ir.TT(tensor.Int64, 1)
	outT := ir.TT(tensor.Int64, cfg.MaxNew)
	cacheT := ir.TT(tensor.Float32, cfg.MaxNew, cfg.Dim)

	params := []*ir.Var{
		ir.NewVar("tok", idxT), ir.NewVar("pos", idxT), ir.NewVar("out", outT),
	}
	for i := range layers {
		params = append(params,
			ir.NewVar(fmt.Sprintf("k%d", i), cacheT),
			ir.NewVar(fmt.Sprintf("v%d", i), cacheT))
	}

	b := ir.NewBuilder()
	tok, pos, outBuf := params[0], params[1], params[2]
	x := ir.Expr(b.Op("add", embed.Apply(b, tok), posEmbed.Apply(b, pos)))
	npos := b.Op("index_inc", pos)
	recArgs := make([]ir.Expr, len(params))
	for i := range layers {
		l := layers[i]
		h := l.ln1.Apply(b, x)
		q := l.wq.Apply(b, h)
		k := l.wk.Apply(b, h)
		v := l.wv.Apply(b, h)
		kc := b.Op("cache_append", params[3+2*i], k, pos)
		vc := b.Op("cache_append", params[4+2*i], v, pos)
		recArgs[3+2*i], recArgs[4+2*i] = kc, vc
		attn := b.OpAttrs("attn_cached", ir.Attrs{"heads": cfg.Heads}, q, kc, vc, npos)
		x = b.Op("add", x, l.wo.Apply(b, attn))
		h2 := l.ln2.Apply(b, x)
		ff := l.ff2.Apply(b, b.Op("tanh", l.ff1.Apply(b, h2)))
		x = b.Op("add", x, ff)
	}
	logits := lmHead.ApplyNoBias(b, lnF.Apply(b, x))
	next := b.OpAttrs("sample_token", ir.Attrs{"temp": temp, "seed": int(cfg.Seed)}, logits, pos)
	// The emitted token rides the data path into the output buffer, so the
	// streaming tap can neither be dead-code-eliminated nor reordered past
	// the write it announces.
	em := b.Op(ir.OpStreamEmit, next)
	outNew := b.Op("cache_append", outBuf, em, pos)
	limit := ir.Const(tensor.FromI64([]int64{int64(cfg.MaxNew)}, 1))
	more := b.Op("index_lt", npos, limit)
	recArgs[0], recArgs[1], recArgs[2] = em, npos, outNew
	body := b.Finish(&ir.If{
		Cond: more,
		Then: ir.NewCall(&ir.GlobalVar{Name: loopName}, recArgs, nil),
		Else: outNew,
	})
	d.Module.AddFunc(loopName, ir.NewFunc(params, body, outT))

	// entry(start) seeds position 0 with zeroed planner-owned state buffers.
	// state_zeros (not `zeros`) keeps them out of constant folding: a folded
	// cache would be a shared constant mutated in place across sessions.
	start := ir.NewVar("start", idxT)
	eb := ir.NewBuilder()
	args := []ir.Expr{
		start,
		ir.Const(tensor.FromI64([]int64{0}, 1)),
		eb.OpAttrs("state_zeros", ir.Attrs{"shape": []int{cfg.MaxNew}, "dtype": "int64"}),
	}
	for range layers {
		args = append(args,
			eb.OpAttrs("state_zeros", ir.Attrs{"shape": []int{cfg.MaxNew, cfg.Dim}, "dtype": "float32"}),
			eb.OpAttrs("state_zeros", ir.Attrs{"shape": []int{cfg.MaxNew, cfg.Dim}, "dtype": "float32"}))
	}
	body = eb.Finish(ir.NewCall(&ir.GlobalVar{Name: loopName}, args, nil))
	d.Module.AddFunc(entryName, ir.NewFunc([]*ir.Var{start}, body, outT))
}

// StartToken wraps a token id as the [1] int64 tensor the entries expect.
func StartToken(id int64) *tensor.Tensor { return tensor.FromI64([]int64{id}, 1) }
