package baselines

import (
	"nimble/internal/models"
	"nimble/internal/nn"
	"nimble/internal/tensor"
)

// Weight constructors for the baseline executors. Latency experiments are
// weight-agnostic, so baselines that cannot share Nimble's exact constants
// (BERT and Tree-LSTM keep theirs inside the built IR) draw independent
// seeded weights with identical shapes; the LSTM baselines share weights
// with the Nimble model so outputs are bit-comparable in tests.

// NewEagerTreeCell creates Tree-LSTM weights matching cfg.
func NewEagerTreeCell(e *Eager, cfg models.TreeLSTMConfig) EagerTreeCell {
	init := nn.NewInit(cfg.Seed + 1000)
	h := cfg.Hidden
	leaf := EagerLSTMCell{
		Wx:     e.WrapWeight(init.Weight(cfg.Input, 4*h)),
		Wh:     e.WrapWeight(init.Weight(h, 4*h)),
		Bias:   e.Wrap(mustRow(init.Vector(4*h).Reshape(1, 4*h))),
		Hidden: h,
	}
	return EagerTreeCell{
		Leaf:   leaf,
		WIOU:   e.WrapWeight(init.Weight(h, 3*h)),
		BIOU:   e.Wrap(mustRow(init.Vector(3*h).Reshape(1, 3*h))),
		WF:     e.WrapWeight(init.Weight(h, h)),
		BF:     e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
		Hidden: h,
	}
}

// NewEagerBERT creates encoder weights matching cfg.
func NewEagerBERT(e *Eager, cfg models.BERTConfig) *EagerBERT {
	init := nn.NewInit(cfg.Seed + 2000)
	m := &EagerBERT{Cfg: cfg, Emb: e.Wrap(init.Xavier(cfg.Vocab, cfg.Hidden))}
	h, f := cfg.Hidden, cfg.FFN
	for i := 0; i < cfg.Layers; i++ {
		m.Layers = append(m.Layers, eagerBERTLayer{
			wq: e.WrapWeight(init.Weight(h, h)), bq: e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
			wk: e.WrapWeight(init.Weight(h, h)), bk: e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
			wv: e.WrapWeight(init.Weight(h, h)), bv: e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
			wo: e.WrapWeight(init.Weight(h, h)), bo: e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
			g1: e.Wrap(init.Ones(h)), b1: e.Wrap(init.Zeros(h)),
			g2: e.Wrap(init.Ones(h)), b2: e.Wrap(init.Zeros(h)),
			f1w: e.WrapWeight(init.Weight(h, f)), f1b: e.Wrap(mustRow(init.Vector(f).Reshape(1, f))),
			f2w: e.WrapWeight(init.Weight(f, h)), f2b: e.Wrap(mustRow(init.Vector(h).Reshape(1, h))),
		})
	}
	return m
}

// mustRow unwraps the (tensor, error) pair of Reshape for weight rows whose
// element counts are correct by construction.
func mustRow(t *tensor.Tensor, err error) *tensor.Tensor {
	if err != nil {
		panic(err)
	}
	return t
}
