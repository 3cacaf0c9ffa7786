package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nimble/internal/tensor"
)

// forEachAct runs f once per activation path: the vector kernel when this
// CPU selected it, then the scalar float32 loops.
func forEachAct(t *testing.T, f func(t *testing.T)) {
	saved := simdAct
	defer func() { simdAct = saved }()
	if saved != nil {
		t.Run("simd", f)
	}
	simdAct = nil
	t.Run("go", f)
}

// activations pairs each slice loop with the float64 formula it
// approximates.
var activations = []struct {
	name string
	loop func(x, o []float32)
	ref  func(x float64) float64
}{
	{"gelu", geluLoop, func(x float64) float64 {
		if math.IsInf(x, -1) {
			return 0
		}
		return 0.5 * x * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
	}},
	{"sigmoid", sigmoidLoop, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", tanhLoop, math.Tanh},
}

// TestActivationAccuracy pins both activation paths against float64
// references: relative error at most 4e-6 where |reference| > 1e-6,
// absolute error at most 1e-7 below that, infinities exact and NaN in, NaN
// out. Inputs are a dense grid over [-30, 30], the special values, and
// every length 0-17 so each vector tail runs; writes past the end of the
// output are caught by a sentinel.
func TestActivationAccuracy(t *testing.T) {
	var grid []float32
	for x := -30.0; x <= 30; x += 1.0 / 1024 {
		grid = append(grid, float32(x))
	}
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), 1e30, -1e30, 1e-40, -1e-40, math.SmallestNonzeroFloat32, 1e-7, -1e-7}
	forEachAct(t, func(t *testing.T) {
		for _, act := range activations {
			worst := 0.0
			check := func(x []float32, n int) {
				o := make([]float32, n+1)
				o[n] = 42
				act.loop(x[:n], o[:n])
				if o[n] != 42 {
					t.Fatalf("%s: length %d wrote past the output", act.name, n)
				}
				for i, v := range o[:n] {
					want, got := act.ref(float64(x[i])), float64(v)
					switch {
					case math.IsNaN(want) || math.IsInf(want, 0):
						if !(math.IsNaN(want) && math.IsNaN(got)) && got != want {
							t.Fatalf("%s(%g) = %g, want %g", act.name, x[i], got, want)
						}
					case math.Abs(want) > 1e-6:
						rel := math.Abs(got-want) / math.Abs(want)
						worst = max(worst, rel)
						if rel > 4e-6 {
							t.Fatalf("%s(%g) = %g, want %g (relative error %.2g)", act.name, x[i], got, want, rel)
						}
					case math.Abs(got-want) > 1e-7:
						t.Fatalf("%s(%g) = %g, want %g", act.name, x[i], got, want)
					}
				}
			}
			check(grid, len(grid))
			check(special, len(special))
			for n := 0; n <= 17; n++ {
				check(grid[len(grid)/3:], n)
			}
			t.Logf("%s: max relative error %.2g", act.name, worst)
		}
	})
}

// The in-place form (out aliasing the input) is how the fused groups call
// the activations.
func TestActivationInPlace(t *testing.T) {
	forEachAct(t, func(t *testing.T) {
		x := tensor.Random(rand.New(rand.NewSource(3)), 4, 3, 37)
		want := GeluInto(x, nil)
		if got := GeluInto(x, x); got != x || !x.Equal(want) {
			t.Fatalf("in-place GeluInto differs from GeluInto(x, nil)")
		}
	})
}

// TestDirectLoopsBitIdentical checks that the typed loops of add, multiply
// and relu produce exactly what the generic per-element operator does on
// every fast path (equal shapes, bias row, scalar on either side), below
// and above the parallel threshold.
func TestDirectLoopsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	relu := func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	}
	same := func(name string, got *tensor.Tensor, want func(i int) float32) {
		t.Helper()
		for i, v := range got.F32() {
			if w := want(i); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: element %d is %g, want %g", name, i, v, w)
			}
		}
	}
	for _, rows := range []int{1, 3, 17, 2*parallelThreshold/100 + 1} {
		for _, cols := range []int{1, 7, 64, 100} {
			a, b := tensor.Random(rng, 10, rows, cols), tensor.Random(rng, 10, rows, cols)
			bias, s := tensor.Random(rng, 10, cols), tensor.Random(rng, 10, 1)
			av, bv, biasv, sv := a.F32(), b.F32(), bias.F32(), s.F32()[0]
			for _, op := range []binop{opAdd, opMul} {
				into := map[byte]func(a, b, out *tensor.Tensor) *tensor.Tensor{'+': AddInto, '*': MulInto}[op.code]
				out := tensor.New(tensor.Float32, rows, cols)
				tag := fmt.Sprintf("%s %dx%d", op.name, rows, cols)
				same(tag+" same-shape", into(a, b, out), func(i int) float32 { return op.f(av[i], bv[i]) })
				same(tag+" bias", into(a, bias, out), func(i int) float32 { return op.f(av[i], biasv[i%cols]) })
				same(tag+" scalar", into(a, s, out), func(i int) float32 { return op.f(av[i], sv) })
				same(tag+" scalar-first", into(s, a, out), func(i int) float32 { return op.f(sv, av[i]) })
			}
			same(fmt.Sprintf("relu %dx%d", rows, cols), ReluInto(a, tensor.New(tensor.Float32, rows, cols)),
				func(i int) float32 { return relu(av[i]) })
		}
	}
}

// BenchmarkActivations reports ns/element for each activation and for the
// bias-row add on a BERT FFN tile (29 rows of 1024), for each path.
func BenchmarkActivations(b *testing.B) {
	saved := simdAct
	defer func() { simdAct = saved }()
	rng := rand.New(rand.NewSource(7))
	x, bias := tensor.Random(rng, 2, 29, 1024), tensor.Random(rng, 1, 1024)
	out := tensor.New(tensor.Float32, 29, 1024)
	kernels := []struct {
		name string
		f    func(a, out *tensor.Tensor) *tensor.Tensor
	}{
		{"gelu", GeluInto}, {"sigmoid", SigmoidInto}, {"tanh", TanhInto},
		{"bias_add", func(a, out *tensor.Tensor) *tensor.Tensor { return AddInto(a, bias, out) }},
	}
	for _, path := range []string{"simd", "go"} {
		if path == "simd" && saved == nil {
			continue
		}
		simdAct = nil
		if path == "simd" {
			simdAct = saved
		}
		for _, k := range kernels {
			b.Run(path+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.f(x, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.NumElements()), "ns/elem")
			})
		}
	}
}
