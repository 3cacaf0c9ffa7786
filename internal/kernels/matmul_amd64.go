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
// over n columns, 16 at a time, masking the last n%16 with mask; b and c have
// row stride ld.
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
// index 16-t mask the first t columns of a block.
var tailMask = [32]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// tileAVX2 computes rows rows of a@b from row i0, columns [j0, j1), as 4-row
// tiles and then single rows. matmul has checked every extent the assembly
// touches once per call, before the row-block loop reaches here.
func tileAVX2(av, bv, ov []float32, i0, rows, k, n, j0, j1 int) {
	mask := &tailMask[16-(j1-j0)%16]
	for ; rows >= 4; rows, i0 = rows-4, i0+4 {
		gemm4x16(av[i0*k:], bv[j0:], ov[i0*n+j0:], k, j1-j0, n, mask)
	}
	for ; rows > 0; rows, i0 = rows-1, i0+1 {
		gemm1x16(av[i0*k:], bv[j0:], ov[i0*n+j0:], k, j1-j0, n, mask)
	}
}
