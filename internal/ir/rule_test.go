package ir_test

import (
	"math/rand"
	"testing"

	"nimble/internal/codegen"
	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// ruleCase is one static call of an operator: its input shapes and dtypes
// and its attrs.
type ruleCase struct {
	shapes []tensor.Shape
	dtypes []tensor.DType // nil: every input float32
	attrs  ir.Attrs
}

// ruleGen draws calls of an operator, some whose shapes fit and some that
// do not.
type ruleGen func(rng *rand.Rand) ruleCase

// extents draws a shape of the given rank with extents in [1, 3].
func extents(rng *rand.Rand, rank int) tensor.Shape {
	s := make(tensor.Shape, rank)
	for i := range s {
		s[i] = 1 + rng.Intn(3)
	}
	return s
}

func unaryGen(rng *rand.Rand) ruleCase {
	return ruleCase{shapes: []tensor.Shape{extents(rng, rng.Intn(4))}}
}

func broadcastGen(rng *rand.Rand) ruleCase {
	return ruleCase{shapes: []tensor.Shape{extents(rng, rng.Intn(4)), extents(rng, rng.Intn(4))}}
}

func reduceGen(rng *rand.Rand) ruleCase {
	rank := 1 + rng.Intn(3)
	return ruleCase{
		shapes: []tensor.Shape{extents(rng, rank)},
		attrs:  ir.Attrs{"axis": rng.Intn(2*rank+2) - rank - 1, "keepdims": rng.Intn(2) == 0},
	}
}

func poolGen(rng *rand.Rand) ruleCase {
	x := extents(rng, 3+rng.Intn(2))
	if len(x) == 4 {
		x[2], x[3] = 1+rng.Intn(5), 1+rng.Intn(5)
	}
	return ruleCase{shapes: []tensor.Shape{x}, attrs: ir.Attrs{"k": 1 + rng.Intn(3), "stride": 1 + rng.Intn(2)}}
}

func zerosGen(rng *rand.Rand) ruleCase {
	return ruleCase{attrs: ir.Attrs{"shape": []int(extents(rng, rng.Intn(3))), "dtype": "float32"}}
}

// ruleGens holds a generator for every operator with a dims rule.
var ruleGens = map[string]ruleGen{
	"negative": unaryGen, "exp": unaryGen, "sqrt": unaryGen, "sigmoid": unaryGen,
	"tanh": unaryGen, "relu": unaryGen, "gelu": unaryGen, "softmax": unaryGen,
	ir.OpDeviceCopy: unaryGen, ir.OpStreamEmit: unaryGen, ir.OpShapeOf: unaryGen,
	"add": broadcastGen, "subtract": broadcastGen, "multiply": broadcastGen, "divide": broadcastGen,
	"maximum": broadcastGen, "minimum": broadcastGen, "power": broadcastGen,
	"greater": broadcastGen, "less": broadcastGen, "equal": broadcastGen,
	"sum": reduceGen, "mean": reduceGen, "max": reduceGen, "argmax": reduceGen,
	"max_pool2d": poolGen, "avg_pool2d": poolGen, "global_avg_pool2d": poolGen,
	"zeros": zerosGen, "state_zeros": zerosGen,
	"cast": func(rng *rand.Rand) ruleCase {
		c := unaryGen(rng)
		c.attrs = ir.Attrs{"dtype": "int64"}
		return c
	},
	"index_inc": func(rng *rand.Rand) ruleCase {
		return ruleCase{shapes: []tensor.Shape{extents(rng, rng.Intn(2))}, dtypes: []tensor.DType{tensor.Int64}}
	},
	"index_lt": func(rng *rand.Rand) ruleCase {
		return ruleCase{shapes: []tensor.Shape{{}, {}}, dtypes: []tensor.DType{tensor.Int64, tensor.Int64}}
	},
	"layer_norm": func(rng *rand.Rand) ruleCase {
		x := extents(rng, 1+rng.Intn(2))
		return ruleCase{shapes: []tensor.Shape{x, {x[len(x)-1]}, {x[len(x)-1]}}}
	},
	"attn_cached": func(rng *rand.Rand) ruleCase {
		// The query is 2, 4 or 6 wide; each cache is usually rank 2, 2-6
		// wide in steps of 2, with 2 or 3 rows, so widths, row counts, ranks
		// and the heads' divisibility each mismatch in some draws.
		width := func() int { return 2 * (1 + rng.Intn(3)) }
		cache := func(rows int) tensor.Shape {
			if rng.Intn(8) == 0 {
				return extents(rng, 1+2*rng.Intn(2))
			}
			return tensor.Shape{rows, width()}
		}
		rows := 2 + rng.Intn(2)
		return ruleCase{
			shapes: []tensor.Shape{{1, width()}, cache(rows), cache(2 + rng.Intn(2)), {}},
			dtypes: []tensor.DType{tensor.Float32, tensor.Float32, tensor.Float32, tensor.Int64},
			attrs:  ir.Attrs{"heads": 1 + rng.Intn(2)*3},
		}
	},
	"cache_append": func(rng *rand.Rand) ruleCase {
		cache := extents(rng, rng.Intn(3))
		return ruleCase{
			shapes: []tensor.Shape{cache, extents(rng, 1+rng.Intn(2)), {}},
			dtypes: []tensor.DType{tensor.Float32, tensor.Float32, tensor.Int64},
		}
	},
	"sample_token": func(rng *rand.Rand) ruleCase {
		return ruleCase{shapes: []tensor.Shape{extents(rng, 2), {}}, dtypes: []tensor.DType{tensor.Float32, tensor.Int64}}
	},
	"dense": func(rng *rand.Rand) ruleCase {
		return ruleCase{shapes: []tensor.Shape{extents(rng, 1+rng.Intn(3)), extents(rng, 2)}}
	},
	"dense_packed": func(rng *rand.Rand) ruleCase {
		return ruleCase{
			shapes: []tensor.Shape{extents(rng, 2), {1 + rng.Intn(3), 16 * (1 + rng.Intn(2))}},
			attrs:  ir.Attrs{"units": 1 + rng.Intn(33)},
		}
	},
	"bias_add": func(rng *rand.Rand) ruleCase {
		return ruleCase{shapes: []tensor.Shape{extents(rng, 1+rng.Intn(3)), extents(rng, 1+rng.Intn(2))}}
	},
	"concat": func(rng *rand.Rand) ruleCase {
		rank := 1 + rng.Intn(3)
		var shapes []tensor.Shape
		for n := 1 + rng.Intn(3); n > 0; n-- {
			shapes = append(shapes, extents(rng, rank))
		}
		return ruleCase{shapes: shapes, attrs: ir.Attrs{"axis": rng.Intn(2*rank) - rank}}
	},
	"strided_slice": func(rng *rand.Rand) ruleCase {
		rank, lo := 1+rng.Intn(3), rng.Intn(3)
		return ruleCase{
			shapes: []tensor.Shape{extents(rng, rank)},
			attrs:  ir.Attrs{"axis": rng.Intn(rank), "begin": lo, "end": lo + rng.Intn(3)},
		}
	},
	"take": func(rng *rand.Rand) ruleCase {
		return ruleCase{
			shapes: []tensor.Shape{extents(rng, 1+rng.Intn(2)), extents(rng, rng.Intn(3))},
			dtypes: []tensor.DType{tensor.Float32, tensor.Int64},
		}
	},
	"transpose": func(rng *rand.Rand) ruleCase {
		x := extents(rng, rng.Intn(4))
		c := ruleCase{shapes: []tensor.Shape{x}}
		switch rng.Intn(3) {
		case 0:
			c.attrs = ir.Attrs{"perm": rng.Perm(len(x) + rng.Intn(2))}
		case 1:
			c.attrs = ir.Attrs{"perm": append(rng.Perm(len(x)), 0)[1:]}
		}
		return c
	},
	"reshape": func(rng *rand.Rand) ruleCase {
		shapes := [][]int{{-1}, {2, -1}, {-1, 3}, {1, -1, 1}, {6}, {3, 2}, {2, 2}, {-1, -1}}
		return ruleCase{shapes: []tensor.Shape{extents(rng, 1+rng.Intn(3))}, attrs: ir.Attrs{"shape": shapes[rng.Intn(len(shapes))]}}
	},
	"conv2d": func(rng *rand.Rand) ruleCase {
		x := tensor.Shape{1, 1 + rng.Intn(2), 1 + rng.Intn(5), 1 + rng.Intn(5)}
		w := tensor.Shape{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		return ruleCase{shapes: []tensor.Shape{x, w}, attrs: ir.Attrs{"stride": 1 + rng.Intn(2), "pad": rng.Intn(2)}}
	},
}

// residualChecked are the operators whose rule can reject static shapes of
// the right ranks: the generator must draw both outcomes for them.
var residualChecked = []string{
	"add", "greater", "dense", "dense_packed", "bias_add", "concat", "strided_slice",
	"conv2d", "max_pool2d", "reshape", "sum", "argmax", "transpose", "take", "cache_append",
	"attn_cached",
}

// readsPosition are the operators whose kernel reads a length from an
// input's data, which the zero-filled inputs of the kernel check below do
// not make valid (cache_append's zero position is valid).
var readsPosition = map[string]bool{"attn_cached": true}

// TestDimsRuleRelationMatchesShapeKernel draws static calls of every
// operator with a dims rule and checks that the type relation over static
// TensorTypes and the runtime shape kernel over ShapeOf tensors agree: the
// same dims, or an error from both. A rejected call is gradual typing's
// residual check, which must fire at run time exactly where the relation
// rejects a static program. Where both accept, the operator's compute
// kernel must accept the call too and give the same shape.
func TestDimsRuleRelationMatchesShapeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	outcomes := map[string][2]int{} // accepted, rejected
	for _, name := range ir.OpNames() {
		op := ir.MustGetOp(name)
		if op.Shape.Dims == nil {
			continue
		}
		gen, ok := ruleGens[name]
		if !ok {
			t.Errorf("%s has a dims rule but no generator", name)
			continue
		}
		for i := 0; i < 300; i++ {
			c := gen(rng)
			kern, err := codegen.ForShapeFunc(op, c.attrs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			types := make([]ir.Type, len(c.shapes))
			shapeArgs := make([]*tensor.Tensor, len(c.shapes))
			for j, s := range c.shapes {
				dt := tensor.Float32
				if c.dtypes != nil {
					dt = c.dtypes[j]
				}
				types[j] = ir.TT(dt, s...)
				shapeArgs[j] = tensor.ShapeTensor(s)
			}
			rel, relErr := op.Rel(types, c.attrs)
			got, kernErr := kern.Fn(shapeArgs, nil)
			o := outcomes[name]
			switch {
			case relErr != nil && kernErr != nil:
				o[1]++
			case relErr != nil:
				t.Errorf("%s %v %v: relation rejects (%v), shape kernel gives %v", name, c.shapes, c.attrs, relErr, got.I64())
			case kernErr != nil:
				t.Errorf("%s %v %v: relation gives %s, shape kernel rejects (%v)", name, c.shapes, c.attrs, rel, kernErr)
			default:
				want, static := rel.(*ir.TensorType).StaticShape()
				if gotShape, err := got.ToShape(); !static || err != nil || !gotShape.Equal(want) {
					t.Errorf("%s %v %v: relation gives %s, shape kernel %v", name, c.shapes, c.attrs, rel, got.I64())
				}
				if op.Eval != nil && !readsPosition[name] {
					// The compute kernel must accept what the rule accepts.
					args := make([]*tensor.Tensor, len(c.shapes))
					for j, s := range c.shapes {
						args[j] = tensor.New(types[j].(*ir.TensorType).DType, s...)
					}
					if res, err := op.Eval(args, c.attrs, nil); err != nil || !res.Shape().Equal(want) {
						t.Errorf("%s %v %v: relation gives %s, kernel gives %v, %v", name, c.shapes, c.attrs, rel, res, err)
					}
				}
				o[0]++
			}
			outcomes[name] = o
		}
		if outcomes[name][0] == 0 {
			t.Errorf("%s: no generated call was accepted", name)
		}
	}
	for _, name := range residualChecked {
		if outcomes[name][1] == 0 {
			t.Errorf("%s: no generated call was rejected", name)
		}
	}
}

// TestReshapeRelRejects: a static reshape whose element count differs from
// its input's, or that infers more than one extent, is a type error, not a
// run-time kernel failure.
func TestReshapeRelRejects(t *testing.T) {
	op := ir.MustGetOp("reshape")
	for _, c := range []struct {
		in    []int
		shape []int
	}{
		{[]int{2, 2}, []int{6}},
		{[]int{2, 3}, []int{-1, -1}},
		{[]int{2, 3}, []int{4, -1}},
	} {
		if got, err := op.Rel([]ir.Type{ir.TT(tensor.Float32, c.in...)}, ir.Attrs{"shape": c.shape}); err == nil {
			t.Errorf("reshape(Tensor%v){shape=%v} typed as %s, want an error", c.in, c.shape, got)
		}
	}
}
