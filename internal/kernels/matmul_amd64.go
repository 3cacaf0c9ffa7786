//go:build !purego

package kernels

func init() {
	if hasAVX2FMA() {
		simdTile = tileAVX2
		simdAct = actAVX2
	}
}

// act8 (activation_amd64.s) runs activation kind over the len(o)/8 whole
// 8-lane blocks of x into o.
//
//go:noescape
func act8(kind int, x, o []float32, tab *[18][8]float32)

// actTab holds every constant act8 uses, each repeated over 8 lanes.
var actTab = func() (t [18][8]float32) {
	for i, c := range [18]float32{expLo, expHi, geluLo, log2e, ln2Hi, ln2Lo,
		exp0, exp1, exp2, exp3, exp4, exp5, 1, 2, 127, geluA, geluM, -1} {
		for j := range t[i] {
			t[i][j] = c
		}
	}
	return t
}()

// actAVX2 runs act8 over the whole blocks, then the last len(o)%8 elements
// through a stack buffer, so the assembly never touches memory past a slice.
func actAVX2(kind int, x, o []float32) {
	x = x[:len(o)]
	n := len(o) &^ 7
	act8(kind, x[:n], o[:n], &actTab)
	if n < len(o) {
		var buf [8]float32
		copy(buf[:], x[n:])
		act8(kind, buf[:], buf[:], &actTab)
		copy(o[n:], buf[:])
	}
}

// gemm4x16 and gemm1x16 (matmul_amd64.s) compute 4 rows and 1 row of c = a@b
// over n columns, reading b as consecutive panels (PackB) and masking the
// last n%16 columns with mask; c has row stride ld.
//
//go:noescape
func gemm4x16(a, b, c []float32, k, n, ld int, mask *int32)

//go:noescape
func gemm1x16(a, b, c []float32, k, n, ld int, mask *int32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM registers across context switches (OSXSAVE plus XCR0 bits 1 and 2).
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// tailMask is 16 set lanes then 16 clear ones: the 16 lanes starting at
// index 16-t mask the first t columns of a panel.
var tailMask = [32]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// tileAVX2 computes rows rows of a@b from row i0, columns [j0, j1) of the
// panels that start at pv. A one-row tile waits on its FMA chain, so after
// at least one 4-row tile the last rows%4 run as a 4-row tile that ends at
// the last row and recomputes up to three rows bit for bit; fewer than four
// rows run one at a time. The dense kernel has checked every extent the
// assembly touches once per call, before the row-block loop reaches here.
func tileAVX2(av, pv, ov []float32, i0, rows, k, n, j0, j1 int) {
	mask, end := &tailMask[16-(j1-j0)%16], i0+rows
	for i := i0; rows >= 4 && i < end; i += 4 {
		i = min(i, end-4)
		gemm4x16(av[i*k:], pv, ov[i*n+j0:], k, j1-j0, n, mask)
	}
	for i := i0; rows < 4 && i < end; i++ {
		gemm1x16(av[i*k:], pv, ov[i*n+j0:], k, j1-j0, n, mask)
	}
}
