package kernels

import (
	"fmt"

	"nimble/internal/tensor"
)

// ConcatInto concatenates tensors along `axis` into out. All inputs must
// share dtype and every dimension except `axis`. This is the canonical
// dynamic-output-shape operator of the paper's memory-planning example
// (§4.3): the output row count is the sum of input row counts, known only at
// runtime when any input has an Any dimension.
func ConcatInto(ts []*tensor.Tensor, out *tensor.Tensor, axis int) *tensor.Tensor {
	if len(ts) == 0 {
		panic("kernels: concat of zero tensors")
	}
	first := ts[0]
	axis = normalizeAxis(axis, first.Rank())
	var dims [8]int // a planned destination costs no shape allocation
	outShape := tensor.Shape(append(dims[:0], first.Shape()...))
	for _, t := range ts[1:] {
		if t.DType() != first.DType() || t.Rank() != first.Rank() {
			panic(fmt.Sprintf("kernels: concat dtype/rank mismatch: %v vs %v", first, t))
		}
		for d := 0; d < t.Rank(); d++ {
			if d == axis {
				continue
			}
			if t.Shape()[d] != first.Shape()[d] {
				panic(fmt.Sprintf("kernels: concat shape mismatch at axis %d: %v vs %v", d, first.Shape(), t.Shape()))
			}
		}
		outShape[axis] += t.Shape()[axis]
	}
	out = intoOrAlloc(out, first.DType(), outShape)
	// Copy in (outer, axis*inner) panels.
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	inner := 1
	for d := axis + 1; d < len(outShape); d++ {
		inner *= outShape[d]
	}
	outPanel := outShape[axis] * inner
	offset := 0
	for _, t := range ts {
		panel := t.Shape()[axis] * inner
		for o := 0; o < outer; o++ {
			tensor.CopyElems(out, o*outPanel+offset, t, o*panel, panel)
		}
		offset += panel
	}
	return out
}

// SliceInto copies t[..., lo:hi, ...] along axis into out.
func SliceInto(t, out *tensor.Tensor, axis, lo, hi int) *tensor.Tensor {
	axis = normalizeAxis(axis, t.Rank())
	if lo < 0 || hi > t.Shape()[axis] || lo > hi {
		panic(fmt.Sprintf("kernels: slice [%d:%d] out of range for axis %d of %v", lo, hi, axis, t.Shape()))
	}
	var dims [8]int
	outShape := tensor.Shape(append(dims[:0], t.Shape()...))
	outShape[axis] = hi - lo
	out = intoOrAlloc(out, t.DType(), outShape)
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= t.Shape()[d]
	}
	inner := 1
	for d := axis + 1; d < t.Rank(); d++ {
		inner *= t.Shape()[d]
	}
	srcPanel := t.Shape()[axis] * inner
	dstPanel := (hi - lo) * inner
	for o := 0; o < outer; o++ {
		tensor.CopyElems(out, o*dstPanel, t, o*srcPanel+lo*inner, dstPanel)
	}
	return out
}

// TakeInto gathers rows of `table` (shape [v, d]) by integer `indices` (any
// shape) into out, shaped indices.Shape() + [d]. This is the
// embedding-lookup kernel.
func TakeInto(table, indices, out *tensor.Tensor) *tensor.Tensor {
	if table.Rank() != 2 {
		panic(fmt.Sprintf("kernels: take requires rank-2 table, got %v", table.Shape()))
	}
	v, d := table.Shape()[0], table.Shape()[1]
	var idx []int64
	switch indices.DType() {
	case tensor.Int64:
		idx = indices.I64()
	case tensor.Int32:
		idx = make([]int64, indices.NumElements())
		for i, x := range indices.I32() {
			idx[i] = int64(x)
		}
	default:
		panic(fmt.Sprintf("kernels: take requires integer indices, got %v", indices.DType()))
	}
	var dims [8]int
	out = intoOrAlloc(out, table.DType(), append(append(dims[:0], indices.Shape()...), d))
	for i, ix := range idx {
		if ix < 0 || ix >= int64(v) {
			panic(fmt.Sprintf("kernels: take index %d out of range [0, %d)", ix, v))
		}
		tensor.CopyElems(out, i*d, table, int(ix)*d, d)
	}
	return out
}

// Transpose permutes the axes of t by perm; a nil perm reverses all axes.
func Transpose(t *tensor.Tensor, perm []int) *tensor.Tensor {
	r := t.Rank()
	if perm == nil {
		perm = make([]int, r)
		for i := range perm {
			perm[i] = r - 1 - i
		}
	}
	if len(perm) != r {
		panic(fmt.Sprintf("kernels: transpose perm %v does not match rank %d", perm, r))
	}
	seen := make([]bool, r)
	outShape := make(tensor.Shape, r)
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("kernels: invalid transpose perm %v", perm))
		}
		seen[p] = true
		outShape[i] = t.Shape()[p]
	}
	out := tensor.New(t.DType(), outShape...)
	inStrides := t.Shape().Strides()
	n := t.NumElements()
	if n == 0 {
		return out
	}
	// Special-case the dominant 2-D transpose.
	if r == 2 && perm[0] == 1 && t.DType() == tensor.Float32 {
		rows, cols := t.Shape()[0], t.Shape()[1]
		tv, ov := t.F32(), out.F32()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				ov[j*rows+i] = tv[i*cols+j]
			}
		}
		return out
	}
	idx := make([]int, r)
	for lin := 0; lin < n; lin++ {
		src := 0
		for d := 0; d < r; d++ {
			src += idx[d] * inStrides[perm[d]]
		}
		tensor.CopyElems(out, lin, t, src, 1)
		for d := r - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < outShape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return out
}
