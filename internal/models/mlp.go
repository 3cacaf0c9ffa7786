package models

import (
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/nn"
	"nimble/internal/tensor"
)

// MLPConfig sizes a feed-forward classifier head.
type MLPConfig struct {
	In     int
	Hidden int
	Out    int
	Layers int
	Seed   int64
}

// DefaultMLPConfig is a small head sized for serving benchmarks.
func DefaultMLPConfig() MLPConfig {
	return MLPConfig{In: 64, Hidden: 256, Out: 16, Layers: 2, Seed: 45}
}

// MLP is a dense feed-forward network over a dynamic batch: the input is
// Tensor[(Any, in)] and every operator in the body — dense, bias_add, relu
// — is row-independent, so concatenating requests along the leading
// dimension and slicing the output back apart is semantics-preserving.
// This is the property the serving scheduler's coalescing (internal/serve)
// relies on, and which the recurrent/attention models do NOT have: an LSTM
// consumes an ADT list and BERT's attention mixes sequence positions, so
// those entry points dispatch per request.
type MLP struct {
	Config MLPConfig
	Module *ir.Module
}

// NewMLP builds `main(x: Tensor[(Any, in)]) -> Tensor[(Any, out)]` as
// Layers hidden blocks (dense+bias+relu) and a linear head.
func NewMLP(cfg MLPConfig) *MLP {
	nn.Validate(cfg.In, cfg.Hidden, cfg.Out, cfg.Layers)
	init := nn.NewInit(cfg.Seed)
	mod := ir.NewModule()
	b := ir.NewBuilder()

	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, cfg.In))
	h := ir.Expr(x)
	in := cfg.In
	for i := 0; i < cfg.Layers; i++ {
		layer := nn.NewLinear(init, in, cfg.Hidden)
		h = b.Op("relu", layer.Apply(b, h))
		in = cfg.Hidden
	}
	head := nn.NewLinear(init, in, cfg.Out)
	out := head.Apply(b, h)

	mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, b.Finish(out),
		ir.TT(tensor.Float32, ir.DimAny, cfg.Out)))
	return &MLP{Config: cfg, Module: mod}
}

// RandomBatch draws a [rows, in] input batch.
func (m *MLP) RandomBatch(rng *rand.Rand, rows int) *tensor.Tensor {
	return tensor.Random(rng, 1, rows, m.Config.In)
}

// BatchFlops estimates the floating-point work of one inference over
// `rows` rows, for throughput accounting.
func (m *MLP) BatchFlops(rows int) int64 {
	cfg := m.Config
	per := 2 * int64(cfg.In) * int64(cfg.Hidden)
	for i := 1; i < cfg.Layers; i++ {
		per += 2 * int64(cfg.Hidden) * int64(cfg.Hidden)
	}
	per += 2 * int64(cfg.Hidden) * int64(cfg.Out)
	return per * int64(rows)
}
