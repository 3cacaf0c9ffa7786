package kernels

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nimble/internal/tensor"
)

func randMat(rng *rand.Rand, m, n int) *tensor.Tensor {
	return tensor.Random(rng, 1, m, n)
}

func TestMatMulStaticMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Cover every residue class of the tile factor plus tiny and empty cases.
	for _, m := range []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 64, 65} {
		a := randMat(rng, m, 13)
		b := randMat(rng, 13, 11)
		want := MatMulRef(a, b)
		got := MatMul(a, b)
		if !got.AllClose(want, 1e-4, 1e-5) {
			t.Errorf("m=%d: tiled matmul disagrees with reference", m)
		}
	}
}

func TestMatMulSymbolicVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k, n := 19, 17
	for m := 0; m <= 2*TileFactor+3; m++ {
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want := MatMulRef(a, b)

		r := m % TileFactor
		outFull := tensor.New(tensor.Float32, m, n)
		MatMulSymbolicFull(r)(a, b, outFull)
		if !outFull.AllClose(want, 1e-4, 1e-5) {
			t.Errorf("m=%d: full-dispatch kernel wrong", m)
		}

		// Partial dispatch: class of width 2 and width 4 containing r.
		for _, width := range []int{2, 4} {
			lo := (r / width) * width
			hi := lo + width - 1
			if hi >= TileFactor {
				hi = TileFactor - 1
			}
			outPart := tensor.New(tensor.Float32, m, n)
			MatMulSymbolicPartial(lo, hi)(a, b, outPart)
			if !outPart.AllClose(want, 1e-4, 1e-5) {
				t.Errorf("m=%d width=%d: partial-dispatch kernel wrong", m, width)
			}
		}

		outNaive := tensor.New(tensor.Float32, m, n)
		MatMulSymbolicNaive(a, b, outNaive)
		if !outNaive.AllClose(want, 1e-4, 1e-5) {
			t.Errorf("m=%d: naive symbolic kernel wrong", m)
		}
	}
}

func TestMatMulSymbolicFullRejectsWrongResidue(t *testing.T) {
	a := tensor.New(tensor.Float32, 9, 4)
	b := tensor.New(tensor.Float32, 4, 4)
	out := tensor.New(tensor.Float32, 9, 4)
	defer func() {
		if recover() == nil {
			t.Error("residue mismatch not detected")
		}
	}()
	MatMulSymbolicFull(3)(a, b, out) // 9 % 8 == 1, not 3
}

func TestMatMulSymbolicPartialRejectsOutOfClass(t *testing.T) {
	a := tensor.New(tensor.Float32, 9, 4) // residue 1
	b := tensor.New(tensor.Float32, 4, 4)
	out := tensor.New(tensor.Float32, 9, 4)
	defer func() {
		if recover() == nil {
			t.Error("class mismatch not detected")
		}
	}()
	MatMulSymbolicPartial(4, 7)(a, b, out)
}

func TestMatMulShapeChecks(t *testing.T) {
	a := tensor.New(tensor.Float32, 2, 3)
	bad := tensor.New(tensor.Float32, 4, 2)
	assertPanics(t, "inner mismatch", func() { MatMul(a, bad) })
	assertPanics(t, "rank", func() { MatMul(tensor.New(tensor.Float32, 2), a) })
	assertPanics(t, "bad residue", func() { MatMulSymbolicFull(8) })
	assertPanics(t, "bad class", func() { MatMulSymbolicPartial(5, 3) })
}

// forEachTile runs f once per dense row-tile implementation: the assembly
// tile when this CPU selected it, then the pure-Go micro-kernels.
func forEachTile(t *testing.T, f func(t *testing.T)) {
	saved := simdTile
	defer func() { simdTile = saved }()
	if saved != nil {
		t.Run("simd", f)
	}
	simdTile = nil
	t.Run("go", f)
}

// TestMatMulTilesMatchRef covers every row residue, every column tail (with
// and without a full 16-column block before it) and a spread of reduction
// lengths on both row-tile paths. The static kernel is checked against
// MatMulRef; every dispatch variant that takes the shape — full (width 8),
// partial (widths 4 and 2) and naive (width 1) — must equal it bit for bit.
func TestMatMulTilesMatchRef(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, k := range []int{0, 1, 7, 64, 300, 1024} {
			for _, m := range []int{0, 1, 8, 129, 10, 11, 12, 13, 14, 15} {
				r := m % TileFactor
				variants := map[string]func(a, b, out *tensor.Tensor){
					"full":     MatMulSymbolicFull(r),
					"partial4": MatMulSymbolicPartial(r/2*2, r/2*2+1),
					"partial2": MatMulSymbolicPartial(r/4*4, r/4*4+3),
					"naive":    MatMulSymbolicNaive,
				}
				for n := 0; n < 32; n++ {
					a, b := randMat(rng, m, k), randMat(rng, k, n)
					static := tensor.New(tensor.Float32, m, n)
					MatMulStatic(a, b, static)
					if !static.AllClose(MatMulRef(a, b), 1e-4, 1e-5*float64(k+1)) {
						t.Fatalf("m=%d k=%d n=%d: static kernel disagrees with MatMulRef", m, k, n)
					}
					for name, fn := range variants {
						out := tensor.New(tensor.Float32, m, n)
						fn(a, b, out)
						if !out.Equal(static) {
							t.Fatalf("m=%d k=%d n=%d: %s kernel is not bit-identical to static", m, k, n, name)
						}
					}
				}
			}
		}
	})
}

func TestMatMulZeroKWritesZeros(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		a, b := tensor.New(tensor.Float32, 13, 0), tensor.New(tensor.Float32, 0, 21)
		for name, fn := range map[string]func(a, b, out *tensor.Tensor){
			"static": MatMulStatic, "naive": MatMulSymbolicNaive,
		} {
			out := fill(tensor.New(tensor.Float32, 13, 21), 7)
			fn(a, b, out)
			if !out.Equal(tensor.New(tensor.Float32, 13, 21)) {
				t.Errorf("%s: k=0 left %v, want zeros", name, out.F32()[:4])
			}
		}
	})
}

// TestMatMulShortOutputPanics hands the kernel an output one row short
// whose backing array has room for the missing row: the kernel must panic
// before writing past the tensor.
func TestMatMulShortOutputPanics(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		a, b := fill(tensor.New(tensor.Float32, 9, 4), 1), fill(tensor.New(tensor.Float32, 4, 20), 1)
		buf := make([]float32, 9*20)
		out := tensor.FromF32(buf[:8*20], 8, 20)
		assertPanics(t, "short output", func() { MatMulStatic(a, b, out) })
		for _, v := range buf[8*20:] {
			if v != 0 {
				t.Fatal("kernel wrote past the output tensor")
			}
		}
	})
}

func TestDense(t *testing.T) {
	x := tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)
	w := tensor.FromF32([]float32{1, 0, 0, 1}, 2, 2)
	b := tensor.FromF32([]float32{10, 20}, 2)
	got := Dense(x, w, b)
	want := tensor.FromF32([]float32{11, 22, 13, 24}, 2, 2)
	if !got.Equal(want) {
		t.Errorf("Dense = %v, want %v", got.F32(), want.F32())
	}
	// nil bias
	got = Dense(x, w, nil)
	if !got.Equal(tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)) {
		t.Errorf("Dense nil bias = %v", got.F32())
	}
	assertPanics(t, "bias shape", func() { Dense(x, w, tensor.New(tensor.Float32, 3)) })
}

// Property: the static and naive symbolic kernels agree on random shapes.
func TestMatMulVariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(mSeed, kSeed, nSeed uint8) bool {
		m := int(mSeed%40) + 1
		k := int(kSeed%12) + 1
		n := int(nSeed%12) + 1
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want := MatMulRef(a, b)
		if !MatMul(a, b).AllClose(want, 1e-4, 1e-5) {
			return false
		}
		outNaive := tensor.New(tensor.Float32, m, n)
		MatMulSymbolicNaive(a, b, outNaive)
		return outNaive.AllClose(want, 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func BenchmarkMicroKernelStatic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 61, 256)
	w := randMat(rng, 256, 256)
	out := tensor.New(tensor.Float32, 61, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulStatic(a, w, out)
	}
}

func BenchmarkMicroKernelNaiveSymbolic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 61, 256)
	w := randMat(rng, 256, 256)
	out := tensor.New(tensor.Float32, 61, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulSymbolicNaive(a, w, out)
	}
}

// BenchmarkDenseShapes reports the static kernel's GFLOP/s on BERT's dense
// shapes (m rows of k x n weights) for each row-tile path.
func BenchmarkDenseShapes(b *testing.B) {
	saved := simdTile
	defer func() { simdTile = saved }()
	rng := rand.New(rand.NewSource(7))
	for _, path := range []string{"simd", "go"} {
		if path == "simd" && saved == nil {
			continue
		}
		simdTile = nil
		if path == "simd" {
			simdTile = saved
		}
		for _, m := range []int{8, 15, 29, 128} {
			for _, kn := range [][2]int{{256, 256}, {256, 1024}, {1024, 256}} {
				k, n := kn[0], kn[1]
				a, w, out := randMat(rng, m, k), randMat(rng, k, n), tensor.New(tensor.Float32, m, n)
				b.Run(fmt.Sprintf("%s/m=%d/k=%d/n=%d", path, m, k, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						MatMulStatic(a, w, out)
					}
					b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
