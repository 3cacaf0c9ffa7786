// Package kernels implements the operator kernel library for the Nimble
// reproduction: compute routines over internal/tensor values.
//
// The package plays the role of both TVM's generated kernels and the
// third-party vendor libraries the paper's baselines rely on. The codegen
// layer (internal/codegen) "generates" kernels by selecting and specializing
// the routines here per shape class and residue — mirroring the paper's
// §4.5 symbolic code generation where the loop structure, not the
// arithmetic, is what differs between variants.
//
// The dense operator's innermost row tile has two implementations. On amd64
// CPUs whose CPUID reports AVX2 and FMA (and whose OS saves the YMM state,
// checked with XGETBV) it is Go assembly: 4-row x 16-column FMA tiles for
// full blocks, 1 x 16 for guarded and remainder rows, and a masked column
// tail (matmul_amd64.s). Elsewhere the pure-Go micro8/microN* family runs.
// The choice is made once at start-up. Every dense variant is one row-block
// loop over a column range, and a call of at least shardFLOPs splits its
// columns into 128-wide panels over the internal/runtime worker pool. Each
// output is still accumulated in the same order, so static, residue and
// guarded kernels, sharded or not, give bit-identical results.
//
// GELU, sigmoid and tanh are built on one float32 e^z - 1 (activation.go),
// run 8 lanes at a time by AVX2/FMA assembly on the same CPUs
// (activation_amd64.s) and in scalar Go elsewhere. Both paths stay within
// 4e-6 relative error of the float64 formulas (1e-7 absolute where the
// result is below 1e-6), and NaN propagates.
package kernels

import (
	"fmt"
	"sync"

	nrt "nimble/internal/runtime"
	"nimble/internal/tensor"
)

// MatMulRef is the reference row-by-row matrix multiplication used by tests
// as ground truth: out[m,n] = sum_k a[m,k] * b[k,n].
func MatMulRef(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := checkMatMul(a, b)
	out := tensor.New(tensor.Float32, m, n)
	av, bv, ov := a.F32(), b.F32(), out.F32()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += av[i*k+p] * bv[p*n+j]
			}
			ov[i*n+j] = acc
		}
	}
	return out
}

func checkMatMul(a, b *tensor.Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("kernels: matmul requires rank-2 inputs, got %v x %v", a.Shape(), b.Shape()))
	}
	if a.Shape()[1] != b.Shape()[0] {
		panic(fmt.Sprintf("kernels: matmul inner dims mismatch: %v x %v", a.Shape(), b.Shape()))
	}
	return a.Shape()[0], a.Shape()[1], b.Shape()[1]
}

// TileFactor is the row-tiling factor the symbolic auto-tuner selects for
// dense operators. The paper reports the tuner chose 8 for the BERT dense
// layers (§6.3), so the codegen experiments fix the same value.
const TileFactor = 8

const (
	// shardFLOPs is the 2·m·k·n from which a dense call is split into
	// column panels over the worker pool: the break-even of
	// BenchmarkDenseShapes at -cpu 1 against -cpu 2 (EXPERIMENTS.md).
	shardFLOPs = 1 << 20
	// panelCols is the column width of one shard, a multiple of the
	// 16-column tile so only the last panel has a masked tail.
	panelCols = 128
)

// simdTile computes `rows` output rows from row i0, columns [j0, j1), with
// the CPU's vector unit. The amd64 build sets it at start-up when the CPU
// qualifies (matmul_amd64.go); when nil, the pure-Go micro-kernels below run.
var simdTile func(av, bv, ov []float32, i0, rows, k, n, j0, j1 int)

// microBlock computes `rows` output rows (0..8) starting at row i0, columns
// [j0, j1), using a register-blocked inner loop specialized by an unrolled
// switch. It is the code a shape-specialized kernel contains when the
// residue is known at generation time: no bounds check survives into the
// accumulation loops.
func microBlock(av, bv, ov []float32, i0, rows, k, n, j0, j1 int) {
	if rows < 0 || rows > TileFactor {
		panic(fmt.Sprintf("kernels: microBlock rows=%d out of range", rows))
	}
	if simdTile != nil {
		simdTile(av, bv, ov, i0, rows, k, n, j0, j1)
		return
	}
	switch rows {
	case 8:
		micro8(av, bv, ov, i0, k, n, j0, j1)
	case 4, 5, 6, 7:
		microN4(av, bv, ov, i0, k, n, j0, j1)
		microBlock(av, bv, ov, i0+4, rows-4, k, n, j0, j1)
	case 3:
		microN3(av, bv, ov, i0, k, n, j0, j1)
	case 2:
		microN2(av, bv, ov, i0, k, n, j0, j1)
	case 1:
		microN1(av, bv, ov, i0, k, n, j0, j1)
	}
}

// micro8 is the fully unrolled 8-row micro-kernel: eight accumulators per
// output column give the scheduler instruction-level parallelism and each
// element of b is loaded once per 8 rows. This is the payoff the symbolic
// dispatch mechanism (§4.5) fights to keep.
func micro8(av, bv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[(i0+0)*k : (i0+0)*k+k]
	r1 := av[(i0+1)*k : (i0+1)*k+k]
	r2 := av[(i0+2)*k : (i0+2)*k+k]
	r3 := av[(i0+3)*k : (i0+3)*k+k]
	r4 := av[(i0+4)*k : (i0+4)*k+k]
	r5 := av[(i0+5)*k : (i0+5)*k+k]
	r6 := av[(i0+6)*k : (i0+6)*k+k]
	r7 := av[(i0+7)*k : (i0+7)*k+k]
	for j := j0; j < j1; j++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for p := 0; p < k; p++ {
			bpj := bv[p*n+j]
			a0 += r0[p] * bpj
			a1 += r1[p] * bpj
			a2 += r2[p] * bpj
			a3 += r3[p] * bpj
			a4 += r4[p] * bpj
			a5 += r5[p] * bpj
			a6 += r6[p] * bpj
			a7 += r7[p] * bpj
		}
		ov[(i0+0)*n+j] = a0
		ov[(i0+1)*n+j] = a1
		ov[(i0+2)*n+j] = a2
		ov[(i0+3)*n+j] = a3
		ov[(i0+4)*n+j] = a4
		ov[(i0+5)*n+j] = a5
		ov[(i0+6)*n+j] = a6
		ov[(i0+7)*n+j] = a7
	}
}

// The microN* family are the residue-specialized epilogues a full-dispatch
// symbolic kernel embeds, each with the row count baked in so the
// accumulation loop carries no bound check; microBlock composes remainders
// 5-7 as four rows plus 1-3.

func microN1(av, bv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[i0*k : i0*k+k]
	for j := j0; j < j1; j++ {
		var a0 float32
		for p := 0; p < k; p++ {
			a0 += r0[p] * bv[p*n+j]
		}
		ov[i0*n+j] = a0
	}
}

func microN2(av, bv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[(i0+0)*k : (i0+0)*k+k]
	r1 := av[(i0+1)*k : (i0+1)*k+k]
	for j := j0; j < j1; j++ {
		var a0, a1 float32
		for p := 0; p < k; p++ {
			bpj := bv[p*n+j]
			a0 += r0[p] * bpj
			a1 += r1[p] * bpj
		}
		ov[(i0+0)*n+j] = a0
		ov[(i0+1)*n+j] = a1
	}
}

func microN3(av, bv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[(i0+0)*k : (i0+0)*k+k]
	r1 := av[(i0+1)*k : (i0+1)*k+k]
	r2 := av[(i0+2)*k : (i0+2)*k+k]
	for j := j0; j < j1; j++ {
		var a0, a1, a2 float32
		for p := 0; p < k; p++ {
			bpj := bv[p*n+j]
			a0 += r0[p] * bpj
			a1 += r1[p] * bpj
			a2 += r2[p] * bpj
		}
		ov[(i0+0)*n+j] = a0
		ov[(i0+1)*n+j] = a1
		ov[(i0+2)*n+j] = a2
	}
}

func microN4(av, bv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[(i0+0)*k : (i0+0)*k+k]
	r1 := av[(i0+1)*k : (i0+1)*k+k]
	r2 := av[(i0+2)*k : (i0+2)*k+k]
	r3 := av[(i0+3)*k : (i0+3)*k+k]
	for j := j0; j < j1; j++ {
		var a0, a1, a2, a3 float32
		for p := 0; p < k; p++ {
			bpj := bv[p*n+j]
			a0 += r0[p] * bpj
			a1 += r1[p] * bpj
			a2 += r2[p] * bpj
			a3 += r3[p] * bpj
		}
		ov[(i0+0)*n+j] = a0
		ov[(i0+1)*n+j] = a1
		ov[(i0+2)*n+j] = a2
		ov[(i0+3)*n+j] = a3
	}
}

// microGuarded is the loop structure naive symbolic codegen produces when
// residue information is unavailable: every row is processed individually
// and the row-validity guard sits inside the block, exactly the "boundary
// condition checks stay" failure mode of §4.5. The arithmetic is identical;
// only the loop structure (and therefore the achieved ILP) differs.
func microGuarded(av, bv, ov []float32, i0, m, k, n, j0, j1 int) {
	for i := i0; i < i0+TileFactor; i++ {
		if i >= m { // unsimplified boundary check
			continue
		}
		microBlock(av, bv, ov, i, 1, k, n, j0, j1)
	}
}

// Row-guard structures of the dense variants: which blocks run microGuarded.
const (
	guardNone = iota // static and full dispatch: a residue-specialised epilogue
	guardTail        // partial dispatch: the epilogue block only
	guardAll         // no dispatch: every block
)

// denseJob is one dense call out = a@b. Rows [0, g) run as unguarded 8-row
// blocks plus a residue-specialised epilogue, rows [g, m) as guarded blocks.
type denseJob struct {
	av, bv, ov []float32
	m, k, n, g int
	run        func(j0, j1 int) // cols, bound once per pooled job
}

var denseJobs = sync.Pool{New: func() any { d := new(denseJob); d.run = d.cols; return d }}

// cols runs the row-block loop over columns [j0, j1). Every dense variant,
// serial or sharded, is this loop: a serial call is the one shard [0, n).
func (d *denseJob) cols(j0, j1 int) {
	av, bv, ov, k, n := d.av, d.bv, d.ov, d.k, d.n
	for i := 0; i < d.g; i += TileFactor {
		microBlock(av, bv, ov, i, min(TileFactor, d.g-i), k, n, j0, j1)
	}
	for i := d.g; i < d.m; i += TileFactor {
		microGuarded(av, bv, ov, i, d.m, k, n, j0, j1)
	}
}

// matmul runs one dense call whose row residue must lie in [rLo, rHi]. It
// checks every extent the row tiles touch before any shard starts, so a bad
// shape panics on the caller. From shardFLOPs on, the columns go to the
// worker pool as panelCols-wide panels; every output element is still
// accumulated over p in the same order, so results do not depend on the split.
func matmul(a, b, out *tensor.Tensor, rLo, rHi, guard int) {
	m, k, n := checkMatMul(a, b)
	if r := m % TileFactor; r < rLo || r > rHi {
		panic(fmt.Sprintf("kernels: dense kernel for residues [%d,%d] invoked with m=%d", rLo, rHi, m))
	}
	d := denseJob{av: a.F32(), bv: b.F32(), ov: out.F32(), m: m, k: k, n: n,
		g: [...]int{m, m - m%TileFactor, 0}[guard]}
	if len(d.av) < m*k || len(d.bv) < k*n || len(d.ov) < m*n {
		panic(fmt.Sprintf("kernels: matmul [%d,%d]x[%d,%d] outside a=%d b=%d out=%d",
			m, k, k, n, len(d.av), len(d.bv), len(d.ov)))
	}
	if 2*m*k*n < shardFLOPs {
		d.cols(0, n)
		return
	}
	d.shard()
}

// shard runs cols over panelCols-wide column panels on the worker pool,
// from a pooled job whose run is already bound, so it allocates nothing.
func (d *denseJob) shard() {
	j := denseJobs.Get().(*denseJob)
	d.run = j.run
	*j = *d
	nrt.Default().ParallelFor(d.n, panelCols, j.run)
	*j = denseJob{run: j.run}
	denseJobs.Put(j)
}

// MatMulStatic is the kernel "generated for a static shape": the row count is
// known at generation time, so the main loop runs an exact number of
// unguarded 8-row blocks and the epilogue is residue-specialized.
func MatMulStatic(a, b, out *tensor.Tensor) { matmul(a, b, out, 0, TileFactor-1, guardNone) }

// MatMulSymbolicFull is the residue-r symbolic kernel from a full dispatch
// set (k = TileFactor kernels): the caller guarantees m % TileFactor == r,
// so the epilogue is specialized and no guard survives. Performance is
// within noise of MatMulStatic — the property Figure 3's "dispatch/8" bar
// demonstrates.
func MatMulSymbolicFull(r int) func(a, b, out *tensor.Tensor) {
	if r < 0 || r >= TileFactor {
		panic(fmt.Sprintf("kernels: residue %d out of range", r))
	}
	return func(a, b, out *tensor.Tensor) { matmul(a, b, out, r, r, guardNone) }
}

// MatMulSymbolicPartial is a symbolic kernel from a partial dispatch set: it
// covers the residue class [rLo, rHi]. Full blocks are provably in range and
// keep the unguarded micro-kernel, but the epilogue's row count is only known
// up to the class width, so it retains per-row guards (microGuarded). The
// wider the class, the more guarded work — the mechanism behind the rising
// bars of Figure 3.
func MatMulSymbolicPartial(rLo, rHi int) func(a, b, out *tensor.Tensor) {
	if rLo < 0 || rHi < rLo || rHi >= TileFactor {
		panic(fmt.Sprintf("kernels: invalid residue class [%d, %d]", rLo, rHi))
	}
	return func(a, b, out *tensor.Tensor) { matmul(a, b, out, rLo, rHi, guardTail) }
}

// MatMulSymbolicNaive is the single symbolic kernel of the "no dispatch"
// configuration: with no residue information the simplifier cannot discharge
// the row guard anywhere, so every block — not just the tail — runs the
// guarded loop structure. This reproduces the paper's observation that
// unhandled boundary conditions make symbolic kernels perform badly (§2.2,
// §4.5).
func MatMulSymbolicNaive(a, b, out *tensor.Tensor) { matmul(a, b, out, 0, TileFactor-1, guardAll) }

// MatMul computes a@b with the static-shape kernel, allocating the output.
// It is the default kernel used outside the codegen experiments.
func MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	return MatMulInto(a, b, nil)
}

// MatMulInto computes a@b with the static-shape kernel, writing into out
// when it matches the [m, n] float32 result (destination-passing; the §4.3
// planned-buffer contract) and allocating otherwise.
func MatMulInto(a, b, out *tensor.Tensor) *tensor.Tensor {
	m, _, n := checkMatMul(a, b)
	if !fits(out, tensor.Float32, m, n) {
		out = tensor.New(tensor.Float32, m, n)
	}
	MatMulStatic(a, b, out)
	return out
}

// Dense computes x@w + bias where x is [m,k], w is [k,n] and bias is [n]
// (bias may be nil). This is the fused dense+bias kernel every model in the
// evaluation leans on.
func Dense(x, w, bias *tensor.Tensor) *tensor.Tensor {
	return DenseInto(x, w, bias, nil)
}

// DenseInto computes x@w + bias into out when it matches.
func DenseInto(x, w, bias, out *tensor.Tensor) *tensor.Tensor {
	out = MatMulInto(x, w, out)
	if bias != nil {
		addBiasInPlace(out, bias)
	}
	return out
}

func addBiasInPlace(out, bias *tensor.Tensor) {
	if bias.Rank() != 1 || bias.Shape()[0] != out.Shape()[1] {
		panic(fmt.Sprintf("kernels: bias shape %v does not match output %v", bias.Shape(), out.Shape()))
	}
	biasRows(opAdd, out.F32(), bias.F32(), out.F32(), 0, out.Shape()[0])
}
