package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nimble/internal/codegen"
	"nimble/internal/data"
	"nimble/internal/kernels"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// Figure3Result holds the symbolic-vs-static codegen study: relative latency
// of k-way dispatch against the static kernel for the three BERT dense
// operators, measured on real executions over MRPC-profile sequence lengths.
type Figure3Result struct {
	// Ops names the three dense operators (Dense1..Dense3).
	Ops []string
	// Series maps configuration name ("static", "dispatch/8", ...) to one
	// relative latency per op (static == 1.0).
	Series map[string][]float64
	// Order fixes the printing order of configurations.
	Order []string
	Notes []string
}

// Format renders the figure as a series table.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3: relative latency of symbolic vs static codegen (dense ops)\n")
	fmt.Fprintf(&b, "%-12s", "")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%10s", op)
	}
	b.WriteString("\n")
	for _, name := range r.Order {
		fmt.Fprintf(&b, "%-12s", name)
		for _, v := range r.Series[name] {
			fmt.Fprintf(&b, "%9.0f%%", v*100)
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Figure3 measures the §4.5 dispatch experiment: the BERT dense shapes with
// a symbolic row count are run under the static kernel and under dispatch
// tables of width 8, 4, 2 and 1.
func Figure3(cfg Config) (*Figure3Result, error) {
	bcfg := models.BERTReduced()
	if cfg.Quick {
		bcfg.Hidden, bcfg.FFN = 64, 256
	}
	h, f := bcfg.Hidden, bcfg.FFN
	// The three dense operators of a BERT layer: projection, FFN up, FFN
	// down.
	shapes := []struct {
		name string
		k, n int
	}{
		{"Dense1", h, h},
		{"Dense2", h, f},
		{"Dense3", f, h},
	}
	sampler := data.NewMRPC(cfg.Seed)
	count := cfg.samples(24, 6)
	lens := make([]int, count)
	for i := range lens {
		lens[i] = sampler.Length()
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	// Best-of-N sweeps: the minimum is robust to scheduler noise, which
	// matters for the small quick-mode matrices.
	trials := cfg.samples(4, 5)

	res := &Figure3Result{
		Series: map[string][]float64{},
		Order:  []string{"static", "dispatch/8", "dispatch/4", "dispatch/2", "no dispatch"},
	}
	widths := map[string]int{"dispatch/8": 8, "dispatch/4": 4, "dispatch/2": 2, "no dispatch": 1}

	for _, sh := range shapes {
		res.Ops = append(res.Ops, sh.name)
		// Inputs per length, shared across configurations.
		as := make([]*tensor.Tensor, count)
		outs := make([]*tensor.Tensor, count)
		for i, m := range lens {
			as[i] = tensor.Random(rng, 1, m, sh.k)
			outs[i] = tensor.New(tensor.Float32, m, sh.n)
		}
		b := tensor.Random(rng, 1, sh.k, sh.n)

		sweeps := []func(){func() {
			for i := range as {
				kernels.MatMulStatic(as[i], b, outs[i])
			}
		}}
		for _, name := range res.Order[1:] {
			table := codegen.BuildDispatchTable(widths[name])
			sweeps = append(sweeps, func() {
				for i := range as {
					table.Invoke(as[i], b, outs[i])
				}
			})
		}
		best := bestOfEach(trials, sweeps)
		for c, name := range res.Order {
			res.Series[name] = append(res.Series[name], rel(best[c], best[0]))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Dense1=%dx%d Dense2=%dx%d Dense3=%dx%d; %d MRPC-profile row counts, tile factor %d",
			h, h, h, f, f, h, count, kernels.TileFactor),
		"paper: full dispatch ~= static; latency rises as kernels shrink, up to 42%/104%/45% at no dispatch")
	return res, nil
}

// bestOfEach returns the minimum wall time of each f over n rounds (after
// one warmup round). Every round runs each f once, so a stall of the host
// lands in one round of every configuration rather than in all rounds of
// one of them.
func bestOfEach(n int, fs []func()) []time.Duration {
	best := make([]time.Duration, len(fs))
	for c, f := range fs {
		f()
		best[c] = time.Duration(1<<62 - 1)
	}
	for i := 0; i < n; i++ {
		for c, f := range fs {
			start := time.Now()
			f()
			best[c] = min(best[c], time.Since(start))
		}
	}
	return best
}

func rel(t, base time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(t) / float64(base)
}
