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
// Every kernel has one exported entry. A kernel whose name ends in Into
// takes a destination: it writes out when out has the result's dtype and
// shape (the planned buffer of §4.3) and allocates the result otherwise, a
// nil out included. Every other kernel allocates its result.
//
// The dense operator reads its B operand in one layout only: ⌈n/16⌉ column
// panels of k×16 floats, panel after panel, each row of a panel 64
// contiguous bytes and only the last panel zero-padded (PackB). A weight is
// drawn in that layout (nn.Init.Weight) or packed once at compile time (the
// pack-dense-weights pass); a run-time B is packed per call into scratch. Every
// dense variant is one loop over a column range that runs 128-column blocks
// (eight panels) outer and row blocks inner, so a block stays in cache
// across the row tiles. The row tile has two implementations. On amd64 CPUs
// whose CPUID reports AVX2 and FMA (and whose OS saves the YMM state,
// checked with XGETBV) it is Go assembly that walks the panels front to
// back (matmul_amd64.s): a 4-row x 16-column FMA tile, and a one-row tile
// that runs four panels (64 columns, eight FMA chains) at a time before it
// finishes panel by panel. Elsewhere, or built with the purego tag, the
// pure-Go micro4/micro1 pair runs the same structure, micro1 four columns
// of a panel at a time. The choice is made once at start-up. A call of at
// least shardFLOPs splits its blocks over the internal/runtime worker pool.
// Each output is still accumulated over p in increasing order, so static,
// residue and guarded kernels, sharded or not, over a packed or a row-major
// B, give bit-identical results.
//
// GELU, sigmoid and tanh are built on one float32 e^z - 1 (activation.go),
// run 8 lanes at a time by AVX2/FMA assembly on the same CPUs
// (activation_amd64.s) and in scalar Go elsewhere. Both paths stay within
// 4e-6 relative error of the float64 formulas (1e-7 absolute where the
// result is below 1e-6), and NaN propagates.
package kernels

import (
	"fmt"
	"slices"
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
	// column ranges over the worker pool: the break-even of
	// BenchmarkDenseShapes at -cpu 1 against -cpu 2 (EXPERIMENTS.md).
	shardFLOPs = 1 << 20
	// panelCols is the column width of one shard and of one column block
	// of the row-block loop: eight panels, so every block starts at a panel.
	panelCols = 128
	// panelW is the column width of one packed panel: the 16 lanes of a
	// row tile.
	panelW = 16
)

// PackedCols is the column count of a packed B: n rounded up to whole panels.
func PackedCols(n int) int { return (n + panelW - 1) / panelW * panelW }

// PackB returns b [k, n] laid out as panels: a [k, PackedCols(n)] tensor
// whose data is ⌈n/16⌉ blocks of k rows of 16 floats, panel j holding
// columns [16j, 16j+16) of b. b is not modified.
func PackB(b *tensor.Tensor) *tensor.Tensor {
	if b.Rank() != 2 || b.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: cannot pack %s %v", b.DType(), b.Shape()))
	}
	p := tensor.New(tensor.Float32, b.Shape()[0], PackedCols(b.Shape()[1]))
	pack(p.F32(), b.F32(), b.Shape()[0], b.Shape()[1])
	return p
}

// pack writes row-major bv [k, n] into dst as panels.
func pack(dst, bv []float32, k, n int) {
	for p := 0; p < k; p++ {
		PackRow(dst, bv[p*n:p*n+n], k, p)
	}
}

// PackRow writes row p of a [k, len(row)] B into dst, the data of its
// [k, PackedCols(len(row))] panels, 16 floats per copy. It zeroes the
// row's padding in the last panel, so dst may be reused scratch.
func PackRow(dst, row []float32, k, p int) {
	for j := 0; j < len(row); j += panelW {
		seg := dst[j*k+p*panelW : j*k+p*panelW+panelW]
		clear(seg[copy(seg, row[j:]):])
	}
}

// simdTile computes `rows` output rows from row i0, columns [j0, j1) of the
// panels that start at pv, with the CPU's vector unit; guarded marks the
// single rows of a guarded block (microGuarded). The amd64 build sets it at
// start-up when the CPU qualifies (matmul_amd64.go); when nil, the pure-Go
// micro-kernels below run.
var simdTile func(av, pv, ov []float32, i0, rows, k, n, j0, j1 int, guarded bool)

// microBlock computes `rows` output rows (0..8) starting at row i0, columns
// [j0, j1) of the panels that start at pv. It is the code a shape-specialized
// kernel contains when the residue is known at generation time: no bounds
// check survives into the accumulation loops.
func microBlock(av, pv, ov []float32, i0, rows, k, n, j0, j1 int) {
	if rows < 0 || rows > TileFactor {
		panic(fmt.Sprintf("kernels: microBlock rows=%d out of range", rows))
	}
	if simdTile != nil {
		simdTile(av, pv, ov, i0, rows, k, n, j0, j1, false)
		return
	}
	for ; rows >= 4; rows, i0 = rows-4, i0+4 {
		micro4(av, pv, ov, i0, k, n, j0, j1)
	}
	for ; rows > 0; rows, i0 = rows-1, i0+1 {
		micro1(av, pv, ov, i0, k, n, j0, j1)
	}
}

// micro4 is the pure-Go 4-row tile: four accumulators per output column
// give the scheduler instruction-level parallelism and each element of the
// panel is loaded once per 4 rows. This is the payoff the symbolic dispatch
// mechanism (§4.5) fights to keep.
func micro4(av, pv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[(i0+0)*k : (i0+0)*k+k]
	r1 := av[(i0+1)*k : (i0+1)*k+k]
	r2 := av[(i0+2)*k : (i0+2)*k+k]
	r3 := av[(i0+3)*k : (i0+3)*k+k]
	for c := 0; c < j1-j0; c++ {
		col := c/panelW*panelW*k + c%panelW
		var a0, a1, a2, a3 float32
		for p := range r0 {
			b := pv[col+p*panelW]
			a0 += r0[p] * b
			a1 += r1[p] * b
			a2 += r2[p] * b
			a3 += r3[p] * b
		}
		ov[(i0+0)*n+j0+c] = a0
		ov[(i0+1)*n+j0+c] = a1
		ov[(i0+2)*n+j0+c] = a2
		ov[(i0+3)*n+j0+c] = a3
	}
}

// micro1 is the pure-Go single-row tile. It carries four columns of one
// panel at once, each in its own accumulator, so no add waits on the one
// before it in another column; a group past the last column reads the
// panel's zero padding and stores only the columns that exist.
func micro1(av, pv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[i0*k : i0*k+k]
	o := ov[i0*n+j0 : i0*n+j1]
	for c := 0; c < len(o); c += 4 {
		col := c/panelW*panelW*k + c%panelW
		var a0, a1, a2, a3 float32
		for p, x := range r0 {
			b := pv[col+p*panelW : col+p*panelW+4]
			a0 += x * b[0]
			a1 += x * b[1]
			a2 += x * b[2]
			a3 += x * b[3]
		}
		acc := [4]float32{a0, a1, a2, a3}
		copy(o[c:], acc[:])
	}
}

// microRow is the pure-Go row of a guarded block: one column at a time, on
// one accumulator.
func microRow(av, pv, ov []float32, i0, k, n, j0, j1 int) {
	r0 := av[i0*k : i0*k+k]
	for c := 0; c < j1-j0; c++ {
		col := c/panelW*panelW*k + c%panelW
		var a0 float32
		for p := range r0 {
			a0 += r0[p] * pv[col+p*panelW]
		}
		ov[i0*n+j0+c] = a0
	}
}

// microGuarded is the loop structure naive symbolic codegen produces when
// residue information is unavailable: every row is processed individually
// and the row-validity guard sits inside the block, exactly the "boundary
// condition checks stay" failure mode of §4.5. The arithmetic is identical;
// only the loop structure (and therefore the achieved ILP) differs. With
// the guard inside the block, the row's loop is not unrolled either: where
// a specialized one-row tile carries four panels (assembly) or four columns
// (micro1) at a time, a guarded row runs one panel, or one column, on one
// accumulator chain.
func microGuarded(av, pv, ov []float32, i0, m, k, n, j0, j1 int) {
	for i := i0; i < i0+TileFactor; i++ {
		if i >= m { // unsimplified boundary check
			continue
		}
		if simdTile != nil {
			simdTile(av, pv, ov, i, 1, k, n, j0, j1, true)
		} else {
			microRow(av, pv, ov, i, k, n, j0, j1)
		}
	}
}

// Row-guard structures of the dense variants: which blocks run microGuarded.
const (
	guardNone = iota // static and full dispatch: a residue-specialised epilogue
	guardTail        // partial dispatch: the epilogue block only
	guardAll         // no dispatch: every block
)

// denseJob is one dense call out = a@B over B's panels pv. Rows [0, g) run
// as unguarded 8-row blocks plus a residue-specialised epilogue, rows
// [g, m) as guarded blocks.
type denseJob struct {
	av, pv, ov []float32
	m, k, n, g int
	run        func(j0, j1 int) // cols, bound once per pooled job
}

var denseJobs = sync.Pool{New: func() any { d := new(denseJob); d.run = d.cols; return d }}

// cols runs columns [j0, j1), j0 at a panel, in blocks of panelCols columns:
// blocks outer and row tiles inner, so a block's eight panels (8·64k bytes)
// stay in cache while every row tile reads them, and a one-row call still
// makes one pass over B. Every dense variant, serial or sharded, is this
// loop: a serial call is the one shard [0, n).
func (d *denseJob) cols(j0, j1 int) {
	av, ov, k, n := d.av, d.ov, d.k, d.n
	for j := j0; j < j1; j += panelCols {
		pv, je := d.pv[j*k:], min(j+panelCols, j1)
		for i := 0; i < d.g; i += TileFactor {
			microBlock(av, pv, ov, i, min(TileFactor, d.g-i), k, n, j, je)
		}
		for i := d.g; i < d.m; i += TileFactor {
			microGuarded(av, pv, ov, i, d.m, k, n, j, je)
		}
	}
}

// shard runs cols over panelCols-wide column ranges on the worker pool,
// from a pooled job whose run is already bound, so it allocates nothing.
func (d *denseJob) shard() {
	j := denseJobs.Get().(*denseJob)
	d.run = j.run
	*j = *d
	nrt.Default().ParallelFor(d.n, panelCols, j.run)
	*j = denseJob{run: j.run}
	denseJobs.Put(j)
}

// Variant is one generated dense kernel: the residues of m it accepts,
// [rLo, rHi], and the row-guard structure it runs.
type Variant struct{ rLo, rHi, guard int }

// Static is the kernel "generated for a static shape": the row count is
// known at generation time, so the main loop runs an exact number of
// unguarded 8-row blocks and the epilogue is residue-specialized.
var Static = Variant{0, TileFactor - 1, guardNone}

// SymbolicNaive is the single symbolic kernel of the "no dispatch"
// configuration: with no residue information the simplifier cannot
// discharge the row guard anywhere, so every block — not just the tail —
// runs the guarded loop structure. This reproduces the paper's observation
// that unhandled boundary conditions make symbolic kernels perform badly
// (§2.2, §4.5).
var SymbolicNaive = Variant{0, TileFactor - 1, guardAll}

// SymbolicFull is the residue-r symbolic kernel from a full dispatch set
// (k = TileFactor kernels): the caller guarantees m % TileFactor == r, so
// the epilogue is specialized and no guard survives. Performance is within
// noise of Static — the property Figure 3's "dispatch/8" bar demonstrates.
func SymbolicFull(r int) Variant {
	if r < 0 || r >= TileFactor {
		panic(fmt.Sprintf("kernels: residue %d out of range", r))
	}
	return Variant{r, r, guardNone}
}

// SymbolicPartial is a symbolic kernel from a partial dispatch set: it
// covers the residue class [rLo, rHi]. Full blocks are provably in range
// and keep the unguarded micro-kernel, but the epilogue's row count is only
// known up to the class width, so it retains per-row guards (microGuarded).
// The wider the class, the more guarded work — the mechanism behind the
// rising bars of Figure 3.
func SymbolicPartial(rLo, rHi int) Variant {
	if rLo < 0 || rHi < rLo || rHi >= TileFactor {
		panic(fmt.Sprintf("kernels: invalid residue class [%d, %d]", rLo, rHi))
	}
	return Variant{rLo, rHi, guardTail}
}

// panelScratch holds buffers for row-major Bs packed for one call. It is a
// free list rather than a sync.Pool, which a GC empties, so a steady stream
// of calls never allocates. A call takes one buffer (its shards share it),
// so eight cover eight sessions at once and bound what is kept between calls.
var panelScratch = make(chan []float32, 8)

// MatMul computes out = a@b for a row-major b [k, n], packing b per call
// into pooled scratch.
func (v Variant) MatMul(a, b, out *tensor.Tensor) {
	_, k, n := checkMatMul(a, b)
	var s []float32
	select {
	case s = <-panelScratch:
	default:
	}
	s = slices.Grow(s[:0], k*PackedCols(n))[:k*PackedCols(n)]
	pack(s, b.F32(), k, n)
	v.run(a, s, out, k, n)
	select {
	case panelScratch <- s:
	default:
	}
}

// Packed computes out = a@B where p = PackB(B) and n is out's column count.
func (v Variant) Packed(a, p, out *tensor.Tensor) {
	if a.Rank() != 2 || p.Rank() != 2 || out.Rank() != 2 || a.Shape()[1] != p.Shape()[0] ||
		p.Shape()[1] != PackedCols(out.Shape()[1]) {
		panic(fmt.Sprintf("kernels: packed dense %v x %v into %v", a.Shape(), p.Shape(), out.Shape()))
	}
	v.run(a, p.F32(), out, p.Shape()[0], out.Shape()[1])
}

// run checks the row residue and every extent the row tiles touch before
// any shard starts, so a bad shape panics on the caller. From shardFLOPs
// on, the columns go to the worker pool in panelCols-wide ranges; every
// output element is still accumulated over p in the same order, so results
// do not depend on the split.
func (v Variant) run(a *tensor.Tensor, pv []float32, out *tensor.Tensor, k, n int) {
	m := a.Shape()[0]
	if r := m % TileFactor; r < v.rLo || r > v.rHi {
		panic(fmt.Sprintf("kernels: dense kernel for residues [%d,%d] invoked with m=%d", v.rLo, v.rHi, m))
	}
	d := denseJob{av: a.F32(), pv: pv, ov: out.F32(), m: m, k: k, n: n,
		g: [...]int{m, m - m%TileFactor, 0}[v.guard]}
	if len(d.av) < m*k || len(d.pv) < k*PackedCols(n) || len(d.ov) < m*n {
		panic(fmt.Sprintf("kernels: matmul [%d,%d]x[%d,%d] outside a=%d b=%d out=%d",
			m, k, k, n, len(d.av), len(d.pv), len(d.ov)))
	}
	if 2*m*k*n < shardFLOPs {
		d.cols(0, n)
		return
	}
	d.shard()
}

// MatMulInto computes a@b with the static-shape kernel, writing into out
// when it matches the [m, n] float32 result (destination-passing; the §4.3
// planned-buffer contract) and allocating otherwise.
func MatMulInto(a, b, out *tensor.Tensor) *tensor.Tensor {
	m, _, n := checkMatMul(a, b)
	out = intoOrAlloc(out, tensor.Float32, tensor.Shape{m, n})
	Static.MatMul(a, b, out)
	return out
}

// DensePackedInto computes x@B for p = PackB(B) of n columns with the
// static-shape kernel, into out when it matches and allocating otherwise.
func DensePackedInto(x, p *tensor.Tensor, n int, out *tensor.Tensor) *tensor.Tensor {
	out = intoOrAlloc(out, tensor.Float32, tensor.Shape{x.Shape()[0], n})
	Static.Packed(x, p, out)
	return out
}
