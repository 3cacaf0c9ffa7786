package kernels

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	nrt "nimble/internal/runtime"
	"nimble/internal/tensor"
)

// The process-wide pool starts before any test or -cpu value lowers
// GOMAXPROCS, so it has a helper per processor; ParallelFor then caps its
// shards at the GOMAXPROCS in force at each call.
var _ = nrt.Default()

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

// dispatchVariants returns every dispatch variant that takes m rows: full
// (width 8), partial (widths 4 and 2) and naive (width 1).
func dispatchVariants(m int) map[string]func(a, b, out *tensor.Tensor) {
	r := m % TileFactor
	return map[string]func(a, b, out *tensor.Tensor){
		"full":     MatMulSymbolicFull(r),
		"partial4": MatMulSymbolicPartial(r/2*2, r/2*2+1),
		"partial2": MatMulSymbolicPartial(r/4*4, r/4*4+3),
		"naive":    MatMulSymbolicNaive,
	}
}

// oneShard runs fn with GOMAXPROCS 1, so ParallelFor keeps every column
// panel on the caller: the serial run of the same code.
func oneShard(fn func(a, b, out *tensor.Tensor), a, b *tensor.Tensor) *tensor.Tensor {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := tensor.New(tensor.Float32, a.Shape()[0], b.Shape()[1])
	fn(a, b, out)
	return out
}

// TestMatMulTilesMatchRef covers every row residue, every column tail (with
// and without a full 16-column block before it) and a spread of reduction
// lengths on both row-tile paths. The static kernel is checked against
// MatMulRef; every dispatch variant that takes the shape must equal it bit
// for bit. Shapes of at least shardFLOPs run sharded into column panels
// (n = 40 and 1000 end in a masked tail), and there every variant must
// also equal its own one-shard run.
func TestMatMulTilesMatchRef(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range []int{40, 1000, 1024} {
			for _, m := range []int{13, 129} {
				k := shardFLOPs/(2*m*n) + 1
				a, b := randMat(rng, m, k), randMat(rng, k, n)
				static := tensor.New(tensor.Float32, m, n)
				MatMulStatic(a, b, static)
				if !static.AllClose(MatMulRef(a, b), 1e-4, 1e-5*float64(k+1)) {
					t.Fatalf("m=%d k=%d n=%d: sharded static kernel disagrees with MatMulRef", m, k, n)
				}
				variants := dispatchVariants(m)
				variants["static"] = MatMulStatic
				for name, fn := range variants {
					out := tensor.New(tensor.Float32, m, n)
					fn(a, b, out)
					if !out.Equal(oneShard(fn, a, b)) || !out.Equal(static) {
						t.Fatalf("m=%d k=%d n=%d: sharded %s kernel is not bit-identical to its one-shard run and to static", m, k, n, name)
					}
				}
			}
		}
		for _, k := range []int{0, 1, 7, 64, 300, 1024} {
			for _, m := range []int{0, 1, 8, 129, 10, 11, 12, 13, 14, 15} {
				variants := dispatchVariants(m)
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

// Concurrent callers share the pooled dense jobs and the worker pool; every
// sharded result must still equal the one-shard run.
func TestShardedDenseConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randMat(rng, 29, 256), randMat(rng, 256, 1000)
	want := oneShard(MatMulStatic, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.New(tensor.Float32, 29, 1000)
			for i := 0; i < 10; i++ {
				if MatMulStatic(a, b, out); !out.Equal(want) {
					t.Error("concurrent sharded call differs from the one-shard run")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDenseRowStructure pins each variant's row-block loop with a recording
// tile: every output element is computed exactly once; static and full
// dispatch run 8-row blocks and one r-row epilogue; partial dispatch guards
// the r epilogue rows one at a time; no dispatch guards every row.
func TestDenseRowStructure(t *testing.T) {
	saved := simdTile
	defer func() { simdTile = saved }()
	for _, m := range []int{0, 5, 8, 13, 29} {
		q, r := m/TileFactor, m%TileFactor
		blocks := func(tail []int) []int { return append(slices.Repeat([]int{TileFactor}, q), tail...) }
		epilogue, guarded := []int{}, slices.Repeat([]int{1}, r)
		if r > 0 {
			epilogue = []int{r}
		}
		variants := dispatchVariants(m)
		variants["static"] = MatMulStatic
		want := map[string][]int{
			"static": blocks(epilogue), "full": blocks(epilogue),
			"partial4": blocks(guarded), "partial2": blocks(guarded), "naive": slices.Repeat([]int{1}, m),
		}
		for name, fn := range variants {
			n := 40
			hits := make([]int, m*n)
			var rows []int
			simdTile = func(_, _, _ []float32, i0, rs, _, n, j0, j1 int) {
				rows = append(rows, rs)
				for i := i0; i < i0+rs; i++ {
					for j := j0; j < j1; j++ {
						hits[i*n+j]++
					}
				}
			}
			fn(tensor.New(tensor.Float32, m, 3), tensor.New(tensor.Float32, 3, n), tensor.New(tensor.Float32, m, n))
			for e, h := range hits {
				if h != 1 {
					t.Fatalf("m=%d %s: output element %d computed %d times", m, name, e, h)
				}
			}
			if fmt.Sprint(rows) != fmt.Sprint(want[name]) {
				t.Errorf("m=%d %s: row tiles %v, want %v", m, name, rows, want[name])
			}
		}
	}
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
// before writing past the tensor. At a sharded size the panic must come
// from the caller's extent check, not from a shard (a *nrt.ChunkPanic).
func TestMatMulShortOutputPanics(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		for _, kn := range [][2]int{{4, 20}, {512, 400}} {
			k, n := kn[0], kn[1]
			a, b := fill(tensor.New(tensor.Float32, 9, k), 1), fill(tensor.New(tensor.Float32, k, n), 1)
			buf := make([]float32, 9*n)
			out := tensor.FromF32(buf[:8*n], 8, n)
			func() {
				defer func() {
					switch r := recover().(type) {
					case nil:
						t.Errorf("k=%d n=%d: short output did not panic", k, n)
					case *nrt.ChunkPanic:
						t.Errorf("k=%d n=%d: short output panicked in a shard: %v", k, n, r)
					}
				}()
				MatMulStatic(a, b, out)
			}()
			for _, v := range buf {
				if v != 0 {
					t.Fatalf("k=%d n=%d: kernel wrote output before the extent check", k, n)
				}
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

// BenchmarkDenseBreakEven runs the sharded path directly, bypassing
// shardFLOPs, on shapes below and around it. At -cpu 1 ParallelFor keeps
// every panel on the caller and at -cpu 2 it uses two shards, so the two
// rows of a shape show whether sharding pays at that size: the break-even
// shardFLOPs is set at.
func BenchmarkDenseBreakEven(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{256, 1024} {
		for _, m := range []int{1, 2, 4, 8, 12, 16} {
			k := 256
			a, w, out := randMat(rng, m, k), randMat(rng, k, n), tensor.New(tensor.Float32, m, n)
			d := denseJob{av: a.F32(), bv: w.F32(), ov: out.F32(), m: m, k: k, n: n, g: m}
			b.Run(fmt.Sprintf("flop=%d/m=%d/k=%d/n=%d", 2*m*k*n, m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.shard()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
