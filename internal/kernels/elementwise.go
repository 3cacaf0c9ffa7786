package kernels

import (
	"fmt"
	"math"

	nrt "nimble/internal/runtime"
	"nimble/internal/tensor"
)

// parallelThreshold is the element count above which element-wise loops are
// sharded across the persistent worker pool. Below it the dispatch cost of
// even a resident pool exceeds the loop itself, so hot small-tensor kernels
// (an LSTM step's gates) stay serial and allocation-free.
const parallelThreshold = 1 << 15

// parallelGrain is the per-chunk iteration count for pooled loops.
const parallelGrain = 1 << 12

// intoOrAlloc returns out when it is a usable destination of the given
// dtype and shape, and a fresh tensor otherwise. This is the
// destination-passing contract every *Into kernel follows: a planned buffer
// whose shape and dtype match the precise result is written in place;
// anything else (no buffer, or an upper-bound plan larger than the precise
// shape) falls back to allocation. shape never escapes, so a caller that
// builds it in a literal or a stack array checks a destination without a
// heap allocation.
func intoOrAlloc(out *tensor.Tensor, dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	if out != nil && out.DType() == dt && out.Shape().Equal(shape) {
		return out
	}
	return tensor.New(dt, shape...)
}

// binop is a binary element-wise operator. Add and multiply carry a code
// that selects a direct loop on the fast paths; every other operator calls
// f per element. A direct loop computes the same float32 operation on the
// same operands as f would, so the two give bit-identical results.
type binop struct {
	name string
	code byte // '+', '*', or 0 to call f
	f    func(x, y float32) float32
}

// binaryLoop is one broadcast-free element-wise pass: o[i] = a[i] op b[i],
// or a[i] op s when b is nil (s op a[i] when sFirst).
type binaryLoop struct {
	op      binop
	a, b, o []float32
	s       float32
	sFirst  bool
}

func (l binaryLoop) run(lo, hi int) {
	a, o, f := l.a[lo:hi], l.o[lo:hi], l.op.f
	if l.b != nil {
		b := l.b[lo:hi]
		switch l.op.code {
		case '+':
			for i := range o {
				o[i] = a[i] + b[i]
			}
		case '*':
			for i := range o {
				o[i] = a[i] * b[i]
			}
		default:
			for i := range o {
				o[i] = f(a[i], b[i])
			}
		}
		return
	}
	s := l.s
	switch {
	case l.op.code == '+':
		for i := range o {
			o[i] = a[i] + s
		}
	case l.op.code == '*':
		for i := range o {
			o[i] = a[i] * s
		}
	case l.sFirst:
		for i := range o {
			o[i] = f(s, a[i])
		}
	default:
		for i := range o {
			o[i] = f(a[i], s)
		}
	}
}

// do runs the pass over all of o, sharded across the worker pool from
// parallelThreshold elements on.
func (l binaryLoop) do() {
	if len(l.o) >= parallelThreshold {
		nrt.Default().ParallelFor(len(l.o), parallelGrain, l.run)
		return
	}
	l.run(0, len(l.o))
}

// binaryOpInto applies op element-wise with NumPy broadcasting over float32
// tensors, writing into out when it matches the result shape. The fast
// paths derive the result shape without materializing it, so a
// destination-passing hit performs no heap allocation at all.
func binaryOpInto(op binop, a, b, out *tensor.Tensor) *tensor.Tensor {
	if a.DType() != tensor.Float32 || b.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: %s requires float32 inputs, got %v and %v", op.name, a.DType(), b.DType()))
	}
	av, bv := a.F32(), b.F32()

	// Fast path: identical shapes, a dominant case in model graphs.
	if a.Shape().Equal(b.Shape()) {
		out = intoOrAlloc(out, tensor.Float32, a.Shape())
		binaryLoop{op: op, a: av, b: bv, o: out.F32()}.do()
		return out
	}
	// Fast path: b is a scalar of rank <= a's — every b dim is 1, so the
	// broadcast result is exactly a's shape.
	if b.NumElements() == 1 && b.Rank() <= a.Rank() {
		out = intoOrAlloc(out, tensor.Float32, a.Shape())
		binaryLoop{op: op, a: av, o: out.F32(), s: bv[0]}.do()
		return out
	}
	// Fast path: a is a scalar of rank <= b's.
	if a.NumElements() == 1 && a.Rank() <= b.Rank() {
		out = intoOrAlloc(out, tensor.Float32, b.Shape())
		binaryLoop{op: op, a: bv, o: out.F32(), s: av[0], sFirst: true}.do()
		return out
	}
	// Fast path: bias pattern — b is rank-1 matching a's last dimension
	// (dense outputs + bias vectors), so the result shape is a's. Runs
	// row-wise with no index arithmetic. n > 0 excludes zero-width shapes
	// (legal empty dynamic results), which take the general path.
	if n := b.NumElements(); n > 0 && b.Rank() == 1 && a.Rank() >= 1 && a.Shape()[a.Rank()-1] == n {
		out = intoOrAlloc(out, tensor.Float32, a.Shape())
		ov := out.F32()
		rows := len(av) / n
		if len(ov) >= parallelThreshold && rows > 1 {
			nrt.Default().ParallelFor(rows, max(1, parallelGrain/n), func(lo, hi int) {
				biasRows(op, av, bv, ov, lo, hi)
			})
		} else {
			// The serial path calls a named function so no escaping closure
			// is materialized — keeps the hot bias kernel allocation-free.
			biasRows(op, av, bv, ov, 0, rows)
		}
		return out
	}
	// General broadcasting via stride-0 virtual strides.
	outShape, err := tensor.BroadcastShapes(a.Shape(), b.Shape())
	if err != nil {
		// This is the runtime type check deferred by the gradual typing of
		// Any dimensions (§4.1): incompatible concrete shapes surface here.
		panic(fmt.Sprintf("kernels: %s: %v", op.name, err))
	}
	out = intoOrAlloc(out, tensor.Float32, outShape)
	ov := out.F32()
	sa := broadcastStrides(a.Shape(), outShape)
	sb := broadcastStrides(b.Shape(), outShape)
	idx := make([]int, outShape.Rank())
	n := outShape.NumElements()
	for lin := 0; lin < n; lin++ {
		oa, ob := 0, 0
		for d := range idx {
			oa += idx[d] * sa[d]
			ob += idx[d] * sb[d]
		}
		ov[lin] = op.f(av[oa], bv[ob])
		for d := outShape.Rank() - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < outShape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// biasRows computes row op bias over rows [lo, hi) of a, bias length n.
func biasRows(op binop, av, bv, ov []float32, lo, hi int) {
	n := len(bv)
	for r := lo; r < hi; r++ {
		binaryLoop{op: op, a: av[r*n : r*n+n], b: bv, o: ov[r*n : r*n+n]}.run(0, n)
	}
}

// broadcastStrides returns strides for shape `s` viewed as the broadcast
// shape `out`: broadcast (size-1 or missing) axes get stride 0.
func broadcastStrides(s, out tensor.Shape) []int {
	st := s.Strides()
	res := make([]int, out.Rank())
	offset := out.Rank() - s.Rank()
	for d := offset; d < out.Rank(); d++ {
		if s[d-offset] != 1 || out[d] == 1 {
			res[d] = st[d-offset]
		}
	}
	return res
}

func maxScalar(x, y float32) float32 {
	if x > y {
		return x
	}
	return y
}
func minScalar(x, y float32) float32 {
	if x < y {
		return x
	}
	return y
}

var (
	opAdd = binop{"add", '+', func(x, y float32) float32 { return x + y }}
	opSub = binop{"sub", 0, func(x, y float32) float32 { return x - y }}
	opMul = binop{"mul", '*', func(x, y float32) float32 { return x * y }}
	opDiv = binop{"div", 0, func(x, y float32) float32 { return x / y }}
	opMax = binop{"maximum", 0, maxScalar}
	opMin = binop{"minimum", 0, minScalar}
	opPow = binop{"power", 0, func(x, y float32) float32 { return float32(math.Pow(float64(x), float64(y))) }}
)

// AddInto computes a+b with broadcasting into out.
func AddInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opAdd, a, b, out) }

// SubInto computes a-b with broadcasting into out.
func SubInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opSub, a, b, out) }

// MulInto computes a*b (element-wise) with broadcasting into out.
func MulInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opMul, a, b, out) }

// DivInto computes a/b with broadcasting into out.
func DivInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opDiv, a, b, out) }

// MaximumInto computes element-wise max(a, b) with broadcasting into out.
func MaximumInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opMax, a, b, out) }

// MinimumInto computes element-wise min(a, b) with broadcasting into out.
func MinimumInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opMin, a, b, out) }

// PowerInto computes a^b element-wise with broadcasting into out.
func PowerInto(a, b, out *tensor.Tensor) *tensor.Tensor { return binaryOpInto(opPow, a, b, out) }

// unaryOpInto runs loop (o[i] = f(x[i]) over a whole slice) on a float32
// tensor, writing into out when it matches.
func unaryOpInto(name string, a, out *tensor.Tensor, loop func(x, o []float32)) *tensor.Tensor {
	if a.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: %s requires float32 input, got %v", name, a.DType()))
	}
	out = intoOrAlloc(out, tensor.Float32, a.Shape())
	av, ov := a.F32(), out.F32()
	if len(av) >= parallelThreshold {
		nrt.Default().ParallelFor(len(av), parallelGrain, func(lo, hi int) {
			loop(av[lo:hi], ov[lo:hi])
		})
		return out
	}
	loop(av, ov)
	return out
}

// each lifts a scalar function to the slice loop unaryOpInto runs.
func each(f func(x float32) float32) func(x, o []float32) {
	return func(x, o []float32) {
		x = x[:len(o)]
		for i := range o {
			o[i] = f(x[i])
		}
	}
}

var (
	negLoop  = each(func(x float32) float32 { return -x })
	expLoop  = each(func(x float32) float32 { return float32(math.Exp(float64(x))) })
	sqrtLoop = each(func(x float32) float32 { return float32(math.Sqrt(float64(x))) })
)

func reluLoop(x, o []float32) {
	x = x[:len(o)]
	for i, v := range x {
		if v > 0 {
			o[i] = v
		} else {
			o[i] = 0
		}
	}
}

// NegInto computes -a into out.
func NegInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("neg", a, out, negLoop) }

// ExpInto computes e^a element-wise into out.
func ExpInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("exp", a, out, expLoop) }

// SqrtInto computes the element-wise square root into out.
func SqrtInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("sqrt", a, out, sqrtLoop) }

// SigmoidInto computes 1/(1+e^-x) element-wise into out.
func SigmoidInto(a, out *tensor.Tensor) *tensor.Tensor {
	return unaryOpInto("sigmoid", a, out, sigmoidLoop)
}

// TanhInto computes tanh(x) element-wise into out.
func TanhInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("tanh", a, out, tanhLoop) }

// ReluInto computes max(0, x) element-wise into out.
func ReluInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("relu", a, out, reluLoop) }

// GeluInto computes the Gaussian error linear unit (tanh approximation)
// into out.
func GeluInto(a, out *tensor.Tensor) *tensor.Tensor { return unaryOpInto("gelu", a, out, geluLoop) }

// Greater returns a bool tensor of a > b with broadcasting.
func Greater(a, b *tensor.Tensor) *tensor.Tensor {
	return compareOp("greater", a, b, func(x, y float32) bool { return x > y })
}

// Less returns a bool tensor of a < b with broadcasting.
func Less(a, b *tensor.Tensor) *tensor.Tensor {
	return compareOp("less", a, b, func(x, y float32) bool { return x < y })
}

// EqualOp returns a bool tensor of a == b with broadcasting.
func EqualOp(a, b *tensor.Tensor) *tensor.Tensor {
	return compareOp("equal", a, b, func(x, y float32) bool { return x == y })
}

func compareOp(name string, a, b *tensor.Tensor, f func(x, y float32) bool) *tensor.Tensor {
	floats := binaryOpInto(binop{name: name, f: func(x, y float32) float32 {
		if f(x, y) {
			return 1
		}
		return 0
	}}, a, b, nil)
	out := tensor.New(tensor.Bool, floats.Shape()...)
	fv, bv := floats.F32(), out.Bools()
	for i := range fv {
		bv[i] = fv[i] != 0
	}
	return out
}

// Cast converts a tensor to the target dtype element-wise.
func Cast(a *tensor.Tensor, dt tensor.DType) *tensor.Tensor {
	out := tensor.New(dt, a.Shape()...)
	vals := a.AsF64()
	for i, v := range vals {
		out.SetAt(v, unravel(i, a.Shape())...)
	}
	return out
}

func unravel(lin int, s tensor.Shape) []int {
	idx := make([]int, s.Rank())
	for d := s.Rank() - 1; d >= 0; d-- {
		if s[d] > 0 {
			idx[d] = lin % s[d]
			lin /= s[d]
		}
	}
	return idx
}
