// Package conformance is a differential testing harness for the Nimble
// pipeline: it generates random small IR programs — elementwise chains,
// reductions, matmuls, shape ops, and control flow, optionally typed with
// Any leading dimensions so symbolic kernels and shape functions engage —
// and asserts that the fully compiled VM execution (fusion, memory
// planning, storage coalescing, destination-passing kernels) matches an
// eager per-op reference evaluation built on the operator registry's Eval
// functions, which the IR layer documents as the semantic ground truth.
// Divergence beyond float tolerance is a compiler or VM bug by definition.
package conformance

import (
	"fmt"
	"math/rand"

	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// nodeKind discriminates generated program nodes.
type nodeKind int

const (
	kindInput nodeKind = iota
	kindConst
	kindUnary
	kindBinary
	kindReduce
	kindDense
	kindDenseRuntime
	kindTranspose
	kindConcat
	kindSlice
	kindSoftmax
	kindIf
)

// node is one step of a generated program in SSA form: operands are indices
// of earlier nodes. The description is immutable, so it can build a fresh
// IR module for the compiler (passes mutate modules in place) and still
// drive the eager reference independently.
type node struct {
	kind nodeKind
	op   string // unary/binary/reduce operator name
	a, b int    // operand node indices (b unused for unary forms)
	// reduce / slice / concat parameters.
	axis     int
	keep     bool
	lo, hi   int
	weight   *tensor.Tensor // dense weight / const payload
	thresh   float32        // if: branch condition threshold
	shape    []int          // result shape, tracked during generation
	anyIndex int            // input ordinal for kindInput
}

// Program is a generated computation plus concrete inputs.
type Program struct {
	nodes  []node
	inputs []*tensor.Tensor
	out    int
	// anyLead types input params with an Any leading dimension, forcing
	// symbolic kernel dispatch and runtime shape functions.
	anyLead bool
}

// Describe renders a short human-readable trace for failure messages.
func (p *Program) Describe() string {
	s := fmt.Sprintf("program (anyLead=%v, %d inputs):\n", p.anyLead, len(p.inputs))
	for i, n := range p.nodes {
		s += fmt.Sprintf("  n%d: %s\n", i, n.describe())
	}
	return s + fmt.Sprintf("  out: n%d\n", p.out)
}

func (n node) describe() string {
	switch n.kind {
	case kindInput:
		return fmt.Sprintf("input#%d %v", n.anyIndex, n.shape)
	case kindConst:
		return fmt.Sprintf("const %v", n.shape)
	case kindUnary:
		return fmt.Sprintf("%s(n%d) %v", n.op, n.a, n.shape)
	case kindBinary:
		return fmt.Sprintf("%s(n%d, n%d) %v", n.op, n.a, n.b, n.shape)
	case kindReduce:
		return fmt.Sprintf("%s(n%d, axis=%d, keep=%v) %v", n.op, n.a, n.axis, n.keep, n.shape)
	case kindDense:
		return fmt.Sprintf("dense(n%d, w%v) %v", n.a, n.weight.Shape(), n.shape)
	case kindDenseRuntime:
		return fmt.Sprintf("dense(n%d, n%d) %v", n.a, n.b, n.shape)
	case kindTranspose:
		return fmt.Sprintf("transpose(n%d) %v", n.a, n.shape)
	case kindConcat:
		return fmt.Sprintf("concat(n%d, n%d, axis=%d) %v", n.a, n.b, n.axis, n.shape)
	case kindSlice:
		return fmt.Sprintf("slice(n%d, axis=%d, %d:%d) %v", n.a, n.axis, n.lo, n.hi, n.shape)
	case kindSoftmax:
		return fmt.Sprintf("softmax(n%d) %v", n.a, n.shape)
	case kindIf:
		return fmt.Sprintf("if sum(n%d) > %v then n%d else n%d %v", n.a, n.thresh, n.a, n.b, n.shape)
	}
	return "?"
}

var unaryOps = []string{"sigmoid", "tanh", "relu", "negative"}
var binaryOps = []string{"add", "subtract", "multiply", "maximum", "minimum"}
var reduceOps = []string{"sum", "mean", "max"}

// Generate draws a random program: 1-2 rank-2 inputs followed by 3-10
// operations chosen among elementwise, reduce, matmul, transpose, concat,
// slice, softmax, and If nodes, each picking shape-compatible operands.
func Generate(rng *rand.Rand) *Program { return generate(rng, nil) }

// GenerateVaried is Generate with vary re-drawing each dense node: a third
// keep their constant weight, a third take a computed B where a node with
// the right row count exists (the B the dense kernel packs per call), and a
// third get a constant weight of 1-20 columns, so panels past the first
// are fuzzed too. Every draw Generate makes from rng it makes here too,
// and vary decides only at dense nodes, so a seed saved against Generate
// still builds its program there.
func GenerateVaried(rng, vary *rand.Rand) *Program { return generate(rng, vary) }

func generate(rng, vary *rand.Rand) *Program {
	p := &Program{anyLead: rng.Intn(2) == 0}
	nInputs := 1 + rng.Intn(2)
	rows := 1 + rng.Intn(5)
	for i := 0; i < nInputs; i++ {
		cols := 1 + rng.Intn(7)
		p.nodes = append(p.nodes, node{kind: kindInput, anyIndex: i, shape: []int{rows, cols}})
		p.inputs = append(p.inputs, tensor.Random(rng, 1, rows, cols))
	}
	steps := 3 + rng.Intn(8)
	for i := 0; i < steps; i++ {
		p.addRandomNode(rng, vary)
	}
	// Return the deepest tensor-valued node to keep the whole chain live
	// through DCE.
	p.out = len(p.nodes) - 1
	return p
}

// pick returns a random existing node index, optionally restricted by a
// shape predicate; ok=false when nothing qualifies.
func (p *Program) pick(rng *rand.Rand, pred func(n node) bool) (int, bool) {
	var cands []int
	for i, n := range p.nodes {
		if pred == nil || pred(n) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// varyDense re-draws dense node n, whose A has k columns, from vary (see
// GenerateVaried).
func (p *Program) varyDense(vary *rand.Rand, n node, k int) node {
	switch vary.Intn(3) {
	case 1:
		if b, ok := p.pick(vary, func(m node) bool { return len(m.shape) == 2 && m.shape[0] == k }); ok {
			return node{kind: kindDenseRuntime, a: n.a, b: b, shape: []int{n.shape[0], p.nodes[b].shape[1]}}
		}
	case 2:
		cols := 1 + vary.Intn(20)
		n.weight, n.shape = tensor.Random(vary, 0.5, k, cols), []int{n.shape[0], cols}
	}
	return n
}

func sameShape(a, b []int) bool {
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

func (p *Program) addRandomNode(rng, vary *rand.Rand) {
	for attempts := 0; attempts < 8; attempts++ {
		var n node
		ok := false
		switch rng.Intn(9) {
		case 0: // unary elementwise
			a, _ := p.pick(rng, nil)
			n = node{kind: kindUnary, op: unaryOps[rng.Intn(len(unaryOps))], a: a,
				shape: p.nodes[a].shape}
			ok = true
		case 1: // binary elementwise on same-shape operands
			a, _ := p.pick(rng, nil)
			bIdx, found := p.pick(rng, func(m node) bool { return sameShape(m.shape, p.nodes[a].shape) })
			if found {
				n = node{kind: kindBinary, op: binaryOps[rng.Intn(len(binaryOps))], a: a, b: bIdx,
					shape: p.nodes[a].shape}
				ok = true
			}
		case 2: // binary with a broadcast scalar constant
			a, _ := p.pick(rng, nil)
			c := tensor.Random(rng, 1, 1)
			p.nodes = append(p.nodes, node{kind: kindConst, weight: c, shape: []int{1}})
			n = node{kind: kindBinary, op: binaryOps[rng.Intn(len(binaryOps))],
				a: a, b: len(p.nodes) - 1, shape: p.nodes[a].shape}
			ok = true
		case 3: // reduce
			a, found := p.pick(rng, func(m node) bool { return len(m.shape) >= 1 })
			if found {
				src := p.nodes[a].shape
				axis := rng.Intn(len(src))
				keep := rng.Intn(2) == 0
				var out []int
				for i, d := range src {
					if i == axis {
						if keep {
							out = append(out, 1)
						}
						continue
					}
					out = append(out, d)
				}
				n = node{kind: kindReduce, op: reduceOps[rng.Intn(len(reduceOps))],
					a: a, axis: axis, keep: keep, shape: out}
				ok = true
			}
		case 4: // dense against a fresh constant weight
			a, found := p.pick(rng, func(m node) bool { return len(m.shape) == 2 })
			if found {
				k := p.nodes[a].shape[1]
				m := 1 + rng.Intn(6)
				w := tensor.Random(rng, 0.5, k, m)
				n = node{kind: kindDense, a: a, weight: w,
					shape: []int{p.nodes[a].shape[0], m}}
				if vary != nil {
					n = p.varyDense(vary, n, k)
				}
				ok = true
			}
		case 5: // transpose rank-2
			a, found := p.pick(rng, func(m node) bool { return len(m.shape) == 2 })
			if found {
				src := p.nodes[a].shape
				n = node{kind: kindTranspose, a: a, shape: []int{src[1], src[0]}}
				ok = true
			}
		case 6: // concat two compatible rank-2 nodes
			a, found := p.pick(rng, func(m node) bool { return len(m.shape) == 2 })
			if found {
				axis := rng.Intn(2)
				other := 1 - axis
				bIdx, found2 := p.pick(rng, func(m node) bool {
					return len(m.shape) == 2 && m.shape[other] == p.nodes[a].shape[other]
				})
				if found2 {
					out := append([]int{}, p.nodes[a].shape...)
					out[axis] += p.nodes[bIdx].shape[axis]
					n = node{kind: kindConcat, a: a, b: bIdx, axis: axis, shape: out}
					ok = true
				}
			}
		case 7: // slice along the trailing axis
			a, found := p.pick(rng, func(m node) bool {
				return len(m.shape) == 2 && m.shape[1] >= 2
			})
			if found {
				w := p.nodes[a].shape[1]
				lo := rng.Intn(w - 1)
				hi := lo + 1 + rng.Intn(w-lo-1)
				n = node{kind: kindSlice, a: a, axis: 1, lo: lo, hi: hi,
					shape: []int{p.nodes[a].shape[0], hi - lo}}
				ok = true
			}
		case 8: // softmax or If
			if rng.Intn(2) == 0 {
				a, found := p.pick(rng, func(m node) bool { return len(m.shape) == 2 })
				if found {
					n = node{kind: kindSoftmax, a: a, shape: p.nodes[a].shape}
					ok = true
				}
			} else {
				a, _ := p.pick(rng, nil)
				bIdx, found := p.pick(rng, func(m node) bool { return sameShape(m.shape, p.nodes[a].shape) })
				if found {
					n = node{kind: kindIf, a: a, b: bIdx,
						thresh: float32(rng.Float64()*2 - 1), shape: p.nodes[a].shape}
					ok = true
				}
			}
		}
		if ok {
			p.nodes = append(p.nodes, n)
			return
		}
	}
	// All attempts failed (tiny program, restrictive shapes): append a safe
	// unary over the last node.
	last := len(p.nodes) - 1
	p.nodes = append(p.nodes, node{kind: kindUnary, op: "tanh", a: last, shape: p.nodes[last].shape})
}

// BuildModule lowers the description to a fresh IR module with entry
// "main". Each call returns a new module: the compiler's passes mutate
// modules in place, so a module must never be reused across compilations.
func (p *Program) BuildModule() *ir.Module {
	mod := ir.NewModule()
	b := ir.NewBuilder()
	var params []*ir.Var
	exprs := make([]ir.Expr, len(p.nodes))
	for i, n := range p.nodes {
		switch n.kind {
		case kindInput:
			dims := append([]int{}, n.shape...)
			if p.anyLead {
				dims[0] = ir.DimAny
			}
			v := ir.NewVar(fmt.Sprintf("in%d", n.anyIndex), ir.TT(tensor.Float32, dims...))
			params = append(params, v)
			exprs[i] = v
		case kindConst:
			exprs[i] = ir.Const(n.weight)
		case kindUnary:
			exprs[i] = b.Op(n.op, exprs[n.a])
		case kindBinary:
			exprs[i] = b.Op(n.op, exprs[n.a], exprs[n.b])
		case kindReduce:
			exprs[i] = b.OpAttrs(n.op, ir.Attrs{"axis": n.axis, "keepdims": n.keep}, exprs[n.a])
		case kindDense:
			exprs[i] = b.Op("dense", exprs[n.a], ir.Const(n.weight))
		case kindDenseRuntime:
			exprs[i] = b.Op("dense", exprs[n.a], exprs[n.b])
		case kindTranspose:
			exprs[i] = b.Op("transpose", exprs[n.a])
		case kindConcat:
			exprs[i] = b.OpAttrs("concat", ir.Attrs{"axis": n.axis}, exprs[n.a], exprs[n.b])
		case kindSlice:
			exprs[i] = b.OpAttrs("strided_slice", ir.Attrs{"axis": n.axis, "begin": n.lo, "end": n.hi}, exprs[n.a])
		case kindSoftmax:
			exprs[i] = b.Op("softmax", exprs[n.a])
		case kindIf:
			cond := scalarize(b, exprs[n.a], len(p.nodes[n.a].shape))
			test := b.Op("greater", cond, ir.ConstScalar(n.thresh))
			exprs[i] = b.Bind("sel", &ir.If{Cond: test, Then: exprs[n.a], Else: exprs[n.b]})
		}
	}
	mod.AddFunc("main", ir.NewFunc(params, b.Finish(exprs[p.out]), nil))
	return mod
}

// scalarize reduces an expression of known rank to a rank-0 scalar by
// summing every axis (always axis 0 of the shrinking result).
func scalarize(b *ir.Builder, e ir.Expr, rank int) ir.Expr {
	for i := 0; i < rank; i++ {
		e = b.OpAttrs("sum", ir.Attrs{"axis": 0, "keepdims": false}, e)
	}
	return e
}

// Inputs returns the program's concrete input tensors.
func (p *Program) Inputs() []*tensor.Tensor { return p.inputs }

// EagerEval runs the reference evaluation: per-op dispatch through the
// operator registry's Eval functions in SSA order, no fusion, no memory
// planning, no destination passing — the define-by-run ground truth.
func (p *Program) EagerEval() (*tensor.Tensor, error) {
	vals := make([]*tensor.Tensor, len(p.nodes))
	evalOp := func(name string, attrs ir.Attrs, args ...*tensor.Tensor) (*tensor.Tensor, error) {
		op := ir.MustGetOp(name)
		return op.Eval(args, attrs)
	}
	for i, n := range p.nodes {
		var err error
		switch n.kind {
		case kindInput:
			vals[i] = p.inputs[n.anyIndex]
		case kindConst:
			vals[i] = n.weight
		case kindUnary:
			vals[i], err = evalOp(n.op, nil, vals[n.a])
		case kindBinary:
			vals[i], err = evalOp(n.op, nil, vals[n.a], vals[n.b])
		case kindReduce:
			vals[i], err = evalOp(n.op, ir.Attrs{"axis": n.axis, "keepdims": n.keep}, vals[n.a])
		case kindDense:
			vals[i], err = evalOp("dense", nil, vals[n.a], n.weight)
		case kindDenseRuntime:
			vals[i], err = evalOp("dense", nil, vals[n.a], vals[n.b])
		case kindTranspose:
			vals[i], err = evalOp("transpose", nil, vals[n.a])
		case kindConcat:
			vals[i], err = evalOp("concat", ir.Attrs{"axis": n.axis}, vals[n.a], vals[n.b])
		case kindSlice:
			vals[i], err = evalOp("strided_slice", ir.Attrs{"axis": n.axis, "begin": n.lo, "end": n.hi}, vals[n.a])
		case kindSoftmax:
			vals[i], err = evalOp("softmax", nil, vals[n.a])
		case kindIf:
			// Replicate the compiled condition with the same f32 kernels
			// (per-axis sum chain, then greater): a near-threshold value
			// must branch identically on both sides.
			cond := vals[n.a]
			for r := len(p.nodes[n.a].shape); r > 0 && err == nil; r-- {
				cond, err = evalOp("sum", ir.Attrs{"axis": 0, "keepdims": false}, cond)
			}
			if err == nil {
				var gt *tensor.Tensor
				gt, err = evalOp("greater", nil, cond, tensor.Scalar(n.thresh))
				if err == nil {
					if gt.Bools()[0] {
						vals[i] = vals[n.a]
					} else {
						vals[i] = vals[n.b]
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("conformance: eager n%d (%s): %w", i, n.describe(), err)
		}
	}
	return vals[p.out], nil
}
