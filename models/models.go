// Package models re-exports Nimble's built-in evaluation models — LSTM
// (dynamic control flow), Tree-LSTM (dynamic data structures), BERT
// (dynamic data shapes), and an MLP head (row-independent serving) — plus
// helpers that build their dynamic inputs as nimble.Values. Each model
// carries an ir.Module ready for nimble.Compile.
package models

import (
	"math/rand"

	"nimble"
	imodels "nimble/internal/models"
	"nimble/internal/tensor"
)

type (
	// LSTM is a stacked LSTM over a cons-list of step tensors.
	LSTM = imodels.LSTM
	// LSTMConfig sizes it (paper default: 300/512).
	LSTMConfig = imodels.LSTMConfig
	// TreeLSTM recurses over a binary Tree ADT.
	TreeLSTM = imodels.TreeLSTM
	// TreeLSTMConfig sizes it.
	TreeLSTMConfig = imodels.TreeLSTMConfig
	// Tree is the host-side tree used to build Tree-LSTM inputs.
	Tree = imodels.Tree
	// BERT is a transformer encoder with a dynamic sequence length.
	BERT = imodels.BERT
	// BERTConfig sizes it.
	BERTConfig = imodels.BERTConfig
	// MLP is a dense feed-forward head over a dynamic batch — the
	// row-independent entry whose queued requests the Service coalesces.
	MLP = imodels.MLP
	// MLPConfig sizes it.
	MLPConfig = imodels.MLPConfig
	// Decoder is an autoregressive decoder-style transformer whose
	// "generate" entries loop token-by-token inside the VM over mutable
	// KV-cache buffers, emitting each sampled token through stream.emit —
	// the model behind Session.InvokeStream / Service.InvokeStream.
	Decoder = imodels.Decoder
	// DecoderConfig sizes it (vocab, width, layers, heads, tokens to
	// generate, sampling temperature and seed).
	DecoderConfig = imodels.DecoderConfig
)

// NewLSTM builds a stacked LSTM; DefaultLSTMConfig matches the paper.
func NewLSTM(cfg LSTMConfig) *LSTM            { return imodels.NewLSTM(cfg) }
func DefaultLSTMConfig(layers int) LSTMConfig { return imodels.DefaultLSTMConfig(layers) }

// NewTreeLSTM builds a binary Tree-LSTM.
func NewTreeLSTM(cfg TreeLSTMConfig) *TreeLSTM { return imodels.NewTreeLSTM(cfg) }
func DefaultTreeLSTMConfig() TreeLSTMConfig    { return imodels.DefaultTreeLSTMConfig() }

// NewBERT builds a dynamic-sequence-length BERT; BERTReduced is the
// evaluation's reduced size, BERTBase the full base configuration.
func NewBERT(cfg BERTConfig) *BERT { return imodels.NewBERT(cfg) }
func BERTReduced() BERTConfig      { return imodels.BERTReduced() }
func BERTBase() BERTConfig         { return imodels.BERTBase() }

// NewMLP builds the serving MLP head.
func NewMLP(cfg MLPConfig) *MLP   { return imodels.NewMLP(cfg) }
func DefaultMLPConfig() MLPConfig { return imodels.DefaultMLPConfig() }

// NewDecoder builds the autoregressive decoder; DefaultDecoderConfig is the
// evaluation size (128 vocab, 64 wide, 2 layers, 32 generated tokens).
func NewDecoder(cfg DecoderConfig) *Decoder { return imodels.NewDecoder(cfg) }
func DefaultDecoderConfig() DecoderConfig   { return imodels.DefaultDecoderConfig() }

// StartTokenValue wraps a start-token id as the [1]int64 Value the
// decoder's generate entries consume.
func StartTokenValue(id int64) nimble.Value {
	return nimble.TensorValue(imodels.StartToken(id))
}

// RandomTree builds a random binary tree over n leaves.
func RandomTree(rng *rand.Rand, n, inputDim int) *Tree {
	return imodels.RandomTree(rng, n, inputDim)
}

// SequenceValue packs step tensors (each reshaped to [1, input]) into the
// cons-list value an LSTM's main entry consumes, first step at the head.
func SequenceValue(m *LSTM, steps []*tensor.Tensor) nimble.Value {
	v := nimble.ADTValue(m.NilC.Tag)
	for i := len(steps) - 1; i >= 0; i-- {
		v = nimble.ADTValue(m.ConsC.Tag, nimble.TensorValue(steps[i]), v)
	}
	return v
}

// RandomSequenceValue draws a length-n random input sequence for m.
func RandomSequenceValue(m *LSTM, rng *rand.Rand, n int) nimble.Value {
	return SequenceValue(m, m.RandomSteps(rng, n))
}

// TreeValue converts a host tree into the ADT value a Tree-LSTM's main
// entry consumes.
func TreeValue(m *TreeLSTM, t *Tree) nimble.Value {
	if t.Value != nil {
		return nimble.ADTValue(m.LeafC.Tag, nimble.TensorValue(t.Value))
	}
	return nimble.ADTValue(m.NodeC.Tag, TreeValue(m, t.Left), TreeValue(m, t.Right))
}
