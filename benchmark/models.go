package main

import (
	"fmt"
	"math/rand"

	"nimble"
	"nimble/ir"
	"nimble/models"
	"nimble/tensor"
)

// bertLengths is the fixed multiset of sequence lengths lib.bert_dynlen
// replays: 49 values from 8 to 128, skewed short like MRPC sentences (mean
// 29). The lengths are fixed so that work per pass is the same for every
// seed; the seed picks the token ids and the replay order. There are 49
// rather than a round number so that the 50th and 95th percentile ranks
// fall in the middle of one length's repeated samples (24.5 and 46.55 of
// 49) and not on the step between two lengths.
var bertLengths = []int{
	8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 13, 13, 14, 15,
	15, 16, 17, 19, 20, 21, 23, 25, 27, 29, 32, 35, 38, 42, 46, 51, 57, 63, 71, 79, 89, 100, 113, 128,
}

// treeLeaves is the fixed multiset of leaf counts lib.treelstm_adt replays:
// 49 values from 3 to 52, shaped like SST sentence lengths (mean 21). The
// seed picks each tree's shape, its leaf vectors and the replay order.
var treeLeaves = []int{
	3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 9, 10, 11, 11, 12, 13, 14, 15, 16, 17, 18,
	19, 20, 21, 23, 24, 25, 26, 28, 29, 30, 32, 33, 34, 36, 37, 39, 40, 42, 44, 45, 47, 49, 50, 52,
}

const (
	mlpCases     = 256 // distinct one-row inputs the MLP workloads cycle through
	decoderCases = 64  // distinct start tokens the decoder workloads cycle through
)

// testCase is one generated input with everything needed to send it at any
// layer and to judge the answer.
type testCase struct {
	args   []nimble.Value
	body   []byte // the /invoke and /stream request body, encoded once
	tokens int    // work units: sequence tokens, tree nodes, rows, or generated tokens

	// Host-side forms the references consume.
	ids   *tensor.Tensor // bert
	tree  *models.Tree   // treelstm
	row   *tensor.Tensor // mlp
	start int64          // decoder

	// Expected answer: a tensor for unary models, token ids for the decoder.
	wantTensor *tensor.Tensor
	wantTokens []int64
}

// model is one of the four programs the workloads exercise. A fresh module
// is built for every compile because compilation consumes it.
type model struct {
	name   string // also the nimble-serve -model name
	entry  string
	stream bool // requests are InvokeStream / POST /stream
	module func() *ir.Module
}

func newModel(name string) (*model, error) {
	switch name {
	case "bert":
		return &model{name: name, entry: "main",
			module: func() *ir.Module { return models.NewBERT(models.BERTReduced()).Module }}, nil
	case "treelstm":
		return &model{name: name, entry: "main",
			module: func() *ir.Module { return models.NewTreeLSTM(models.DefaultTreeLSTMConfig()).Module }}, nil
	case "mlp":
		return &model{name: name, entry: "main",
			module: func() *ir.Module { return models.NewMLP(models.DefaultMLPConfig()).Module }}, nil
	case "decoder":
		return &model{name: name, entry: "generate", stream: true,
			module: func() *ir.Module { return models.NewDecoder(models.DefaultDecoderConfig()).Module }}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown model %q", name)
}

// compile builds a fresh module and compiles it through the public API.
func (m *model) compile() (*nimble.Program, error) {
	return nimble.Compile(m.module())
}

// makeCases draws the model's inputs from the seed. The same seed gives the
// same cases in the same order; the program under test only ever sees these.
func makeCases(m *model, seed int64) ([]*testCase, error) {
	rng := rand.New(rand.NewSource(seed))
	var cases []*testCase
	switch m.name {
	case "bert":
		vocab := int64(models.BERTReduced().Vocab)
		for _, n := range bertLengths {
			ids := tensor.RandomInts(rng, vocab, n)
			cases = append(cases, &testCase{args: []nimble.Value{nimble.TensorValue(ids)}, ids: ids, tokens: n})
		}
	case "treelstm":
		tm := models.NewTreeLSTM(models.DefaultTreeLSTMConfig())
		for _, n := range treeLeaves {
			t := models.RandomTree(rng, n, tm.Config.Input)
			cases = append(cases, &testCase{args: []nimble.Value{models.TreeValue(tm, t)}, tree: t, tokens: t.Nodes()})
		}
	case "mlp":
		in := models.DefaultMLPConfig().In
		for i := 0; i < mlpCases; i++ {
			row := tensor.Random(rng, 1, 1, in)
			cases = append(cases, &testCase{args: []nimble.Value{nimble.TensorValue(row)}, row: row, tokens: 1})
		}
	case "decoder":
		cfg := models.DefaultDecoderConfig()
		for i := 0; i < decoderCases; i++ {
			start := rng.Int63n(int64(cfg.Vocab))
			cases = append(cases, &testCase{args: []nimble.Value{models.StartTokenValue(start)}, start: start, tokens: cfg.MaxNew})
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	for _, c := range cases {
		body, err := encodeRequest(m, c.args)
		if err != nil {
			return nil, err
		}
		c.body = body
	}
	return cases, nil
}

func totalTokens(cases []*testCase) int {
	n := 0
	for _, c := range cases {
		n += c.tokens
	}
	return n
}
