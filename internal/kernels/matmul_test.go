package kernels

import (
	"fmt"
	"math"
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
		SymbolicFull(r).MatMul(a, b, outFull)
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
			SymbolicPartial(lo, hi).MatMul(a, b, outPart)
			if !outPart.AllClose(want, 1e-4, 1e-5) {
				t.Errorf("m=%d width=%d: partial-dispatch kernel wrong", m, width)
			}
		}

		outNaive := tensor.New(tensor.Float32, m, n)
		SymbolicNaive.MatMul(a, b, outNaive)
		if !outNaive.AllClose(want, 1e-4, 1e-5) {
			t.Errorf("m=%d: naive symbolic kernel wrong", m)
		}
	}
}

func TestMatMulSymbolicFullRejectsWrongResidue(t *testing.T) {
	a := tensor.New(tensor.Float32, 9, 4)
	b := tensor.New(tensor.Float32, 4, 4)
	out := tensor.New(tensor.Float32, 9, 4)
	assertPanics(t, "row-major", func() { SymbolicFull(3).MatMul(a, b, out) }) // 9 % 8 == 1, not 3
	assertPanics(t, "packed", func() { SymbolicFull(3).Packed(a, PackB(b), out) })
}

func TestMatMulSymbolicPartialRejectsOutOfClass(t *testing.T) {
	a := tensor.New(tensor.Float32, 9, 4) // residue 1
	b := tensor.New(tensor.Float32, 4, 4)
	out := tensor.New(tensor.Float32, 9, 4)
	assertPanics(t, "row-major", func() { SymbolicPartial(4, 7).MatMul(a, b, out) })
	assertPanics(t, "packed", func() { SymbolicPartial(4, 7).Packed(a, PackB(b), out) })
}

func TestMatMulShapeChecks(t *testing.T) {
	a := tensor.New(tensor.Float32, 2, 3)
	bad := tensor.New(tensor.Float32, 4, 2)
	assertPanics(t, "inner mismatch", func() { MatMul(a, bad) })
	assertPanics(t, "rank", func() { MatMul(tensor.New(tensor.Float32, 2), a) })
	assertPanics(t, "bad residue", func() { SymbolicFull(8) })
	assertPanics(t, "bad class", func() { SymbolicPartial(5, 3) })
	// A packed B must hold whole panels of the output's column count.
	out := tensor.New(tensor.Float32, 2, 17)
	assertPanics(t, "packed short", func() { Static.Packed(a, tensor.New(tensor.Float32, 3, 16), out) })
	assertPanics(t, "packed wide", func() { Static.Packed(a, tensor.New(tensor.Float32, 3, 48), out) })
	assertPanics(t, "packed inner", func() { Static.Packed(a, tensor.New(tensor.Float32, 4, 32), out) })
}

func TestPackBLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kn := range [][2]int{{0, 5}, {3, 0}, {1, 1}, {5, 16}, {7, 17}, {13, 40}} {
		k, n := kn[0], kn[1]
		b := randMat(rng, k, n)
		before := b.Clone()
		p := PackB(b)
		if !p.Shape().Equal(tensor.Shape{k, PackedCols(n)}) {
			t.Fatalf("k=%d n=%d: packed shape %v", k, n, p.Shape())
		}
		if !b.Equal(before) {
			t.Fatalf("k=%d n=%d: PackB modified its input", k, n)
		}
		pv, bv := p.F32(), b.F32()
		for j := 0; j < PackedCols(n); j++ {
			for q := 0; q < k; q++ {
				var want float32
				if j < n {
					want = bv[q*n+j]
				}
				if got := pv[(j/panelW*k+q)*panelW+j%panelW]; got != want {
					t.Fatalf("k=%d n=%d: panel element (p=%d, j=%d) = %v, want %v", k, n, q, j, got, want)
				}
			}
		}
	}
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
func dispatchVariants(m int) map[string]Variant {
	r := m % TileFactor
	return map[string]Variant{
		"full":     SymbolicFull(r),
		"partial4": SymbolicPartial(r/2*2, r/2*2+1),
		"partial2": SymbolicPartial(r/4*4, r/4*4+3),
		"naive":    SymbolicNaive,
	}
}

// oneShard runs v over the packed B with GOMAXPROCS 1, so ParallelFor keeps
// every column range on the caller: the serial run of the same code.
func oneShard(v Variant, a, p *tensor.Tensor, n int) *tensor.Tensor {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := tensor.New(tensor.Float32, a.Shape()[0], n)
	v.Packed(a, p, out)
	return out
}

// fma32 is a*b + c rounded once to float32, the VFMADD231PS the assembly
// tile runs: a*b is exact in float64, the sum is rounded to odd there, and
// rounding that to float32 is then correct.
func fma32(a, b, c float32) float32 {
	prod, addend := float64(a)*float64(b), float64(c)
	s := prod + addend
	bb := s - prod
	if e := (prod - (s - bb)) + (addend - bb); e != 0 && math.Float64bits(s)&1 == 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return float32(s)
}

// tileRef is the product each row tile has always computed, written
// element by element: a float32 accumulation over p in increasing order,
// rounding every step as the selected tile does (FMA for the assembly
// tile, a product then a sum for the pure-Go one, as MatMulRef).
func tileRef(a, b *tensor.Tensor) *tensor.Tensor {
	if simdTile == nil {
		return MatMulRef(a, b)
	}
	m, k, n := checkMatMul(a, b)
	out := tensor.New(tensor.Float32, m, n)
	av, bv, ov := a.F32(), b.F32(), out.F32()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc = fma32(av[i*k+p], bv[p*n+j], acc)
			}
			ov[i*n+j] = acc
		}
	}
	return out
}

// TestDenseExactAgainstTileRef pins every dense variant to the exact bits
// of the tile's element-by-element product, which the row-major tiles
// before panels computed too: static, full r=0..7, partial and naive, over
// a packed and a row-major B, on both row-tile paths. The shapes cover
// column counts inside one panel, on a panel edge and one past it, every
// row residue the tiles split, an empty reduction, and sharded calls
// (29x256x1000 and up), which must also equal their one-shard run.
func TestDenseExactAgainstTileRef(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range []int{1, 15, 16, 17, 40, 1000, 1024} {
			for _, k := range []int{0, 1, 13, 256} {
				for _, m := range []int{0, 1, 7, 8, 9, 29} {
					a, b := randMat(rng, m, k), randMat(rng, k, n)
					p, want := PackB(b), tileRef(a, b)
					variants := dispatchVariants(m)
					variants["static"] = Static
					for name, v := range variants {
						packed, rowMajor := tensor.New(tensor.Float32, m, n), tensor.New(tensor.Float32, m, n)
						v.Packed(a, p, packed)
						v.MatMul(a, b, rowMajor)
						if !packed.Equal(want) || !rowMajor.Equal(want) {
							t.Fatalf("m=%d k=%d n=%d: %s kernel is not bit-identical to the tile reference", m, k, n, name)
						}
						if 2*m*k*n >= shardFLOPs && !packed.Equal(oneShard(v, a, p, n)) {
							t.Fatalf("m=%d k=%d n=%d: sharded %s kernel differs from its one-shard run", m, k, n, name)
						}
					}
				}
			}
		}
	})
}

// TestMatMulTilesMatchRef covers every row residue, every column tail of
// the first two panels and a spread of reduction lengths on both row-tile
// paths: the static kernel is within rounding of MatMulRef and every
// dispatch variant that takes the shape equals it bit for bit.
func TestMatMulTilesMatchRef(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, k := range []int{0, 1, 7, 64, 300, 1024} {
			for _, m := range []int{0, 1, 8, 129, 10, 11, 12, 13, 14, 15} {
				variants := dispatchVariants(m)
				for n := 0; n < 33; n++ {
					a, b := randMat(rng, m, k), randMat(rng, k, n)
					static := tensor.New(tensor.Float32, m, n)
					Static.MatMul(a, b, static)
					if !static.AllClose(MatMulRef(a, b), 1e-4, 1e-5*float64(k+1)) {
						t.Fatalf("m=%d k=%d n=%d: static kernel disagrees with MatMulRef", m, k, n)
					}
					for name, v := range variants {
						out := tensor.New(tensor.Float32, m, n)
						v.MatMul(a, b, out)
						if !out.Equal(static) {
							t.Fatalf("m=%d k=%d n=%d: %s kernel is not bit-identical to static", m, k, n, name)
						}
					}
				}
			}
		}
	})
}

// Concurrent callers share the pooled dense jobs, the pooled pack scratch
// and the worker pool; every sharded result must still equal the one-shard
// run.
func TestShardedDenseConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randMat(rng, 29, 256), randMat(rng, 256, 1000)
	want := oneShard(Static, a, PackB(b), 1000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.New(tensor.Float32, 29, 1000)
			for i := 0; i < 10; i++ {
				if Static.MatMul(a, b, out); !out.Equal(want) {
					t.Error("concurrent sharded call differs from the one-shard run")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDenseRowStructure pins each variant's row-block loop with a recording
// tile: every output element is computed exactly once; 128-column blocks
// run outer, and within each block static and full dispatch run 8-row
// blocks and one r-row epilogue; partial dispatch guards the r epilogue
// rows one at a time; no dispatch guards every row.
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
		variants["static"] = Static
		want := map[string][]int{
			"static": blocks(epilogue), "full": blocks(epilogue),
			"partial4": blocks(guarded), "partial2": blocks(guarded), "naive": slices.Repeat([]int{1}, m),
		}
		for name, v := range variants {
			n := 300
			hits := make([]int, m*n)
			rows := map[int][]int{} // block start -> row tiles, in call order
			var order []int
			simdTile = func(_, _, _ []float32, i0, rs, _, n, j0, j1 int) {
				if len(order) == 0 || order[len(order)-1] != j0 {
					order = append(order, j0)
				}
				rows[j0] = append(rows[j0], rs)
				for i := i0; i < i0+rs; i++ {
					for j := j0; j < j1; j++ {
						hits[i*n+j]++
					}
				}
			}
			v.MatMul(tensor.New(tensor.Float32, m, 3), tensor.New(tensor.Float32, 3, n), tensor.New(tensor.Float32, m, n))
			for e, h := range hits {
				if h != 1 {
					t.Fatalf("m=%d %s: output element %d computed %d times", m, name, e, h)
				}
			}
			if m > 0 && fmt.Sprint(order) != "[0 128 256]" {
				t.Errorf("m=%d %s: column blocks visited %v, want [0 128 256] each once", m, name, order)
			}
			for _, j0 := range order {
				if fmt.Sprint(rows[j0]) != fmt.Sprint(want[name]) {
					t.Errorf("m=%d %s: block %d row tiles %v, want %v", m, name, j0, rows[j0], want[name])
				}
			}
		}
	}
}

func TestMatMulZeroKWritesZeros(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		a, b := tensor.New(tensor.Float32, 13, 0), tensor.New(tensor.Float32, 0, 21)
		for name, v := range map[string]Variant{"static": Static, "naive": SymbolicNaive} {
			out := fill(tensor.New(tensor.Float32, 13, 21), 7)
			v.MatMul(a, b, out)
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
				Static.MatMul(a, b, out)
			}()
			for _, v := range buf {
				if v != 0 {
					t.Fatalf("k=%d n=%d: kernel wrote output before the extent check", k, n)
				}
			}
		}
	})
}

// TestDense covers the planned-buffer contract of the packed dense the
// compiler emits: a matching output is written in place, anything else is
// replaced by a fresh [m, n] result, and either way it equals the row-major
// kernel.
func TestDense(t *testing.T) {
	x := tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)
	w := tensor.FromF32([]float32{1, 0, 5, 0, 1, 6}, 2, 3)
	want := tensor.FromF32([]float32{1, 2, 17, 3, 4, 39}, 2, 3)
	if got := MatMul(x, w); !got.Equal(want) {
		t.Errorf("MatMul = %v, want %v", got.F32(), want.F32())
	}
	out := tensor.New(tensor.Float32, 2, 3)
	if got := DensePackedInto(x, PackB(w), 3, out); got != out || !got.Equal(want) {
		t.Errorf("DensePackedInto into a planned buffer = %v (same buffer %v), want %v", got.F32(), got == out, want.F32())
	}
	wrong := tensor.New(tensor.Float32, 3, 2)
	if got := DensePackedInto(x, PackB(w), 3, wrong); got == wrong || !got.Equal(want) {
		t.Errorf("DensePackedInto fallback = %v %v, want a fresh %v", got.Shape(), got.F32(), want.F32())
	}
	assertPanics(t, "panels for another width", func() { DensePackedInto(x, PackB(w), 17, nil) })
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
		SymbolicNaive.MatMul(a, b, outNaive)
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
	w := PackB(randMat(rng, 256, 256))
	out := tensor.New(tensor.Float32, 61, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Static.Packed(a, w, out)
	}
}

func BenchmarkMicroKernelNaiveSymbolic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 61, 256)
	w := PackB(randMat(rng, 256, 256))
	out := tensor.New(tensor.Float32, 61, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SymbolicNaive.Packed(a, w, out)
	}
}

// bertReducedWeights returns the [k, n] shapes of BERT-reduced's 24 dense
// weights in layer order: per layer Q, K, V and the output projection
// (256x256), FFN up (256x1024) and FFN down (1024x256). Together they hold
// 12.6 MB, more than the last-level cache of the hosts this is measured on.
func bertReducedWeights() [][2]int {
	var shapes [][2]int
	for l := 0; l < 4; l++ {
		shapes = append(shapes, [2]int{256, 256}, [2]int{256, 256}, [2]int{256, 256}, [2]int{256, 256},
			[2]int{256, 1024}, [2]int{1024, 256})
	}
	return shapes
}

// BenchmarkDenseShapes reports the static kernel's GFLOP/s on BERT's dense
// shapes (m rows of k x n weights, packed as the compiler packs constants)
// for each row-tile path. The hot cases reuse one weight; the cold cases
// cycle through BERT-reduced's 24 weights, as one inference does, so B
// comes from memory rather than from cache.
func BenchmarkDenseShapes(b *testing.B) {
	saved := simdTile
	defer func() { simdTile = saved }()
	rng := rand.New(rand.NewSource(7))
	var cold []*tensor.Tensor
	for _, kn := range bertReducedWeights() {
		cold = append(cold, PackB(randMat(rng, kn[0], kn[1])))
	}
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
				a, w, out := randMat(rng, m, k), PackB(randMat(rng, k, n)), tensor.New(tensor.Float32, m, n)
				b.Run(fmt.Sprintf("%s/m=%d/k=%d/n=%d", path, m, k, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						Static.Packed(a, w, out)
					}
					b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
		for _, m := range []int{8, 16, 28, 128} {
			as := map[int]*tensor.Tensor{256: randMat(rng, m, 256), 1024: randMat(rng, m, 1024)}
			outs := map[int]*tensor.Tensor{256: tensor.New(tensor.Float32, m, 256), 1024: tensor.New(tensor.Float32, m, 1024)}
			var flops float64
			for _, kn := range bertReducedWeights() {
				flops += 2 * float64(m*kn[0]*kn[1])
			}
			b.Run(fmt.Sprintf("%s/cold/m=%d", path, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for w, kn := range bertReducedWeights() {
						Static.Packed(as[kn[0]], cold[w], outs[kn[1]])
					}
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkDenseBreakEven runs the sharded path directly, bypassing
// shardFLOPs, on shapes below and around it. At -cpu 1 ParallelFor keeps
// every column range on the caller and at -cpu 2 it uses two shards, so the
// two rows of a shape show whether sharding pays at that size: the
// break-even shardFLOPs is set at.
func BenchmarkDenseBreakEven(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{256, 1024} {
		for _, m := range []int{1, 2, 4, 8, 12, 16} {
			k := 256
			a, w, out := randMat(rng, m, k), PackB(randMat(rng, k, n)), tensor.New(tensor.Float32, m, n)
			d := denseJob{av: a.F32(), pv: w.F32(), ov: out.F32(), m: m, k: k, n: n, g: m}
			b.Run(fmt.Sprintf("flop=%d/m=%d/k=%d/n=%d", 2*m*k*n, m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.shard()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
