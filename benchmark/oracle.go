package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nimble/internal/baselines"
	"nimble/internal/nn"
	"nimble/models"
	"nimble/tensor"
)

// Output tolerance for float models: |got-want| <= atol + rtol*|want|.
const (
	oracleRTol = 1e-4
	oracleATol = 1e-5
)

// goldenFile holds the decoder's greedy tokens for every start token, one
// line per start: "start: t0 t1 ... t31". It was written once from
// Session.Invoke and is committed, so a later change that moves a token
// shows up as a wrong output instead of moving the reference with it.
const goldenFile = "testdata/decoder_greedy.golden"

// fillReferences computes the expected answer of every case from a source
// that shares no code path with the compiler or the VM:
//
//   - bert, treelstm: internal/baselines.Eager, the define-by-run executor,
//     one kernel call per operator with no fusion and no planned memory;
//   - mlp: the dense/bias/relu loops below;
//   - decoder: the committed golden file.
func fillReferences(m *model, cases []*testCase, benchDir string) error {
	switch m.name {
	case "bert":
		// baselines draws its weights from Seed+2000 in the same order the
		// model draws from Seed, so handing it Seed-2000 makes it draw the
		// model's own weights. If either side changes its draw order the
		// oracle fails loudly, which is the safe direction.
		cfg := models.BERTReduced()
		cfg.Seed -= 2000
		e := baselines.NewEager()
		ref := baselines.NewEagerBERT(e, cfg)
		for _, c := range cases {
			c.wantTensor = e.RunBERT(ref, c.ids)
		}
	case "treelstm":
		// Same trick: baselines draws from Seed+1000.
		cfg := models.DefaultTreeLSTMConfig()
		cfg.Seed -= 1000
		e := baselines.NewEager()
		cell := baselines.NewEagerTreeCell(e, cfg)
		for _, c := range cases {
			e.Reset()
			h, _ := e.RunTreeLSTM(cell, c.tree)
			c.wantTensor = h.T
		}
	case "mlp":
		ref := newMLPReference()
		for _, c := range cases {
			c.wantTensor = ref.forward(c.row)
		}
	case "decoder":
		golden, err := readGolden(filepath.Join(benchDir, goldenFile))
		if err != nil {
			return err
		}
		for _, c := range cases {
			want, ok := golden[c.start]
			if !ok {
				return fmt.Errorf("benchmark: %s has no line for start token %d", goldenFile, c.start)
			}
			c.wantTokens = want
		}
	}
	return nil
}

// mlpReference is the hand-written MLP: the weights are redrawn from the
// model's seed in the model's draw order, the arithmetic is three nested
// loops in float64.
type mlpReference struct {
	w, b []*tensor.Tensor // per layer: [in,out] weight, [out] bias
}

func newMLPReference() *mlpReference {
	cfg := models.DefaultMLPConfig()
	init := nn.NewInit(cfg.Seed)
	r := &mlpReference{}
	in := cfg.In
	for i := 0; i <= cfg.Layers; i++ {
		out := cfg.Hidden
		if i == cfg.Layers {
			out = cfg.Out
		}
		r.w = append(r.w, init.Xavier(in, out))
		r.b = append(r.b, init.Vector(out))
		in = out
	}
	return r
}

func (r *mlpReference) forward(x *tensor.Tensor) *tensor.Tensor {
	rows := x.Shape()[0]
	cur := x.AsF64()
	width := x.Shape()[1]
	for l := range r.w {
		w, b := r.w[l].F32(), r.b[l].F32()
		out := r.w[l].Shape()[1]
		next := make([]float64, rows*out)
		for i := 0; i < rows; i++ {
			for j := 0; j < out; j++ {
				acc := float64(b[j])
				for k := 0; k < width; k++ {
					acc += cur[i*width+k] * float64(w[k*out+j])
				}
				if l < len(r.w)-1 && acc < 0 {
					acc = 0 // relu on every layer but the head
				}
				next[i*out+j] = acc
			}
		}
		cur, width = next, out
	}
	return tensor.FromF64(cur, rows, width)
}

func readGolden(path string) (map[int64][]int64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: decoder reference: %w", err)
	}
	out := map[int64][]int64{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("benchmark: %s: malformed line %q", path, line)
		}
		start, err := strconv.ParseInt(strings.TrimSpace(head), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", path, err)
		}
		for _, f := range strings.Fields(rest) {
			tok, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark: %s: %w", path, err)
			}
			out[start] = append(out[start], tok)
		}
	}
	return out, sc.Err()
}

// reply is what one request produced, at whichever layer it was sent.
type reply struct {
	out    *tensor.Tensor // the entry's result
	tokens []int64        // values emitted through the stream, in order
}

// check judges a reply against the case's reference. A nil error means the
// output is correct.
func check(c *testCase, r reply) error {
	if c.wantTokens != nil {
		if !equalTokens(r.tokens, c.wantTokens) {
			return fmt.Errorf("streamed tokens %v, want %v", r.tokens, c.wantTokens)
		}
		if r.out == nil || r.out.DType() != tensor.Int64 || !equalTokens(r.out.I64(), c.wantTokens) {
			return fmt.Errorf("final output disagrees with the streamed tokens")
		}
		return nil
	}
	if r.out == nil {
		return fmt.Errorf("no output")
	}
	if !r.out.AllClose(c.wantTensor, oracleRTol, oracleATol) {
		return fmt.Errorf("output differs from the reference beyond rtol %g", oracleRTol)
	}
	return nil
}

func equalTokens(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
