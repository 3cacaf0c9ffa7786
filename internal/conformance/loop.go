package conformance

import (
	"fmt"
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/kernels"
	"nimble/internal/tensor"
)

// LoopProgram is a randomly generated self-recursive loop threading mutable
// state buffers through in-place cache_append — the compiled shape of
// autoregressive decode. It exercises the paths single-pass programs cannot:
// tail-call optimization, loop-edge storage recycling, in-place invoke_mut
// routing, and reads (attn_cached) over a buffer mutated earlier in the same
// iteration. The eager reference replays the loop in Go over the pure kernel
// forms, so any divergence is a planner/VM aliasing bug by definition.
type LoopProgram struct {
	iters, width int
	// twoCaches adds a second state buffer; useAttn (implies twoCaches)
	// reads both back through attn_cached each iteration.
	twoCaches bool
	useAttn   bool
	// constInit seeds cache 0 from an ir.Constant instead of state_zeros,
	// covering the VM's refusal to mutate non-planner-owned buffers in
	// place (the append must then fall back to pure copy semantics).
	constInit bool
	initCache *tensor.Tensor
	// chains[i] maps the loop-carried row to the row appended to cache i;
	// nextChain maps this iteration's value to the next carried row.
	chains    [][]loopNode
	nextChain []loopNode
	row0      *tensor.Tensor
}

// loopNode is one elementwise step: unary when c is nil, otherwise a binary
// op against a broadcast scalar constant.
type loopNode struct {
	op string
	c  *tensor.Tensor
}

// GenerateLoop draws a random loop program.
func GenerateLoop(rng *rand.Rand) *LoopProgram {
	p := &LoopProgram{iters: 2 + rng.Intn(7), width: 1 + rng.Intn(6)}
	p.twoCaches = rng.Intn(2) == 0
	p.useAttn = p.twoCaches && rng.Intn(2) == 0
	p.constInit = rng.Intn(3) == 0
	if p.constInit {
		p.initCache = tensor.Random(rng, 1, p.iters, p.width)
	}
	chain := func() []loopNode {
		k := 1 + rng.Intn(3)
		out := make([]loopNode, k)
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = loopNode{op: unaryOps[rng.Intn(len(unaryOps))]}
			} else {
				out[i] = loopNode{op: binaryOps[rng.Intn(len(binaryOps))], c: tensor.Random(rng, 1, 1)}
			}
		}
		return out
	}
	n := 1
	if p.twoCaches {
		n = 2
	}
	for i := 0; i < n; i++ {
		p.chains = append(p.chains, chain())
	}
	p.nextChain = chain()
	p.row0 = tensor.Random(rng, 1, 1, p.width)
	return p
}

// Describe renders the program for failure messages.
func (p *LoopProgram) Describe() string {
	s := fmt.Sprintf("loop program (iters=%d width=%d twoCaches=%v attn=%v constInit=%v):\n",
		p.iters, p.width, p.twoCaches, p.useAttn, p.constInit)
	desc := func(chain []loopNode) string {
		out := "row"
		for _, ln := range chain {
			if ln.c == nil {
				out = fmt.Sprintf("%s(%s)", ln.op, out)
			} else {
				out = fmt.Sprintf("%s(%s, %g)", ln.op, out, ln.c.F32()[0])
			}
		}
		return out
	}
	for i, c := range p.chains {
		s += fmt.Sprintf("  append[%d]: %s\n", i, desc(c))
	}
	return s + fmt.Sprintf("  next: %s\n", desc(p.nextChain))
}

// BuildModule lowers the loop to an IR module with entry "main".
func (p *LoopProgram) BuildModule() *ir.Module {
	mod := ir.NewModule()
	M, W := p.iters, p.width
	rowT := ir.TT(tensor.Float32, 1, W)
	idxT := ir.TT(tensor.Int64, 1)
	cacheT := ir.TT(tensor.Float32, M, W)

	params := []*ir.Var{ir.NewVar("row", rowT), ir.NewVar("pos", idxT), ir.NewVar("c0", cacheT)}
	if p.twoCaches {
		params = append(params, ir.NewVar("c1", cacheT))
	}
	b := ir.NewBuilder()
	apply := func(chain []loopNode, x ir.Expr) ir.Expr {
		for _, ln := range chain {
			if ln.c == nil {
				x = b.Op(ln.op, x)
			} else {
				x = b.Op(ln.op, x, ir.Const(ln.c))
			}
		}
		return x
	}
	row, pos := ir.Expr(params[0]), params[1]
	npos := b.Op("index_inc", pos)
	newCaches := make([]ir.Expr, len(p.chains))
	for i, chain := range p.chains {
		newCaches[i] = b.Op("cache_append", params[2+i], apply(chain, row), pos)
	}
	next := row
	if p.useAttn {
		next = b.OpAttrs("attn_cached", ir.Attrs{"heads": 1}, row, newCaches[0], newCaches[1], npos)
	}
	next = apply(p.nextChain, next)
	more := b.Op("index_lt", npos, ir.Const(tensor.FromI64([]int64{int64(M)}, 1)))
	recArgs := append([]ir.Expr{next, npos}, newCaches...)
	body := b.Finish(&ir.If{
		Cond: more,
		Then: ir.NewCall(&ir.GlobalVar{Name: "loop"}, recArgs, nil),
		Else: newCaches[0],
	})
	mod.AddFunc("loop", ir.NewFunc(params, body, cacheT))

	start := ir.NewVar("row", rowT)
	eb := ir.NewBuilder()
	stateZeros := func() ir.Expr {
		return eb.OpAttrs("state_zeros", ir.Attrs{"shape": []int{M, W}, "dtype": "float32"})
	}
	var init0 ir.Expr
	if p.constInit {
		init0 = ir.Const(p.initCache)
	} else {
		init0 = stateZeros()
	}
	args := []ir.Expr{start, ir.Const(tensor.FromI64([]int64{0}, 1)), init0}
	if p.twoCaches {
		args = append(args, stateZeros())
	}
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{start},
		eb.Finish(ir.NewCall(&ir.GlobalVar{Name: "loop"}, args, nil)), cacheT))
	return mod
}

// Inputs returns the entry arguments.
func (p *LoopProgram) Inputs() []*tensor.Tensor { return []*tensor.Tensor{p.row0} }

// EagerEval replays the loop in Go over pure kernels: CacheAppend clones,
// operator Evals allocate, nothing is mutated in place.
func (p *LoopProgram) EagerEval() (*tensor.Tensor, error) {
	M, W := p.iters, p.width
	apply := func(chain []loopNode, x *tensor.Tensor) (*tensor.Tensor, error) {
		var err error
		for _, ln := range chain {
			op := ir.MustGetOp(ln.op)
			if ln.c == nil {
				x, err = op.Eval([]*tensor.Tensor{x}, nil, nil)
			} else {
				x, err = op.Eval([]*tensor.Tensor{x, ln.c}, nil, nil)
			}
			if err != nil {
				return nil, err
			}
		}
		return x, nil
	}
	caches := make([]*tensor.Tensor, len(p.chains))
	for i := range caches {
		caches[i] = tensor.New(tensor.Float32, M, W)
	}
	if p.constInit {
		caches[0] = p.initCache.Clone()
	}
	row := p.row0
	for it := 0; it < M; it++ {
		pos := tensor.FromI64([]int64{int64(it)}, 1)
		for i, chain := range p.chains {
			r, err := apply(chain, row)
			if err != nil {
				return nil, fmt.Errorf("conformance: eager loop append[%d] iter %d: %w", i, it, err)
			}
			caches[i], err = kernels.CacheAppendInto(caches[i], r, pos, nil)
			if err != nil {
				return nil, fmt.Errorf("conformance: eager loop append[%d] iter %d: %w", i, it, err)
			}
		}
		next := row
		if p.useAttn {
			var err error
			length := tensor.FromI64([]int64{int64(it + 1)}, 1)
			next, err = kernels.AttnCachedInto(row, caches[0], caches[1], length, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("conformance: eager loop attn iter %d: %w", it, err)
			}
		}
		var err error
		row, err = apply(p.nextChain, next)
		if err != nil {
			return nil, fmt.Errorf("conformance: eager loop next iter %d: %w", it, err)
		}
	}
	return caches[0], nil
}
