package kernels

import (
	"fmt"
	"math"

	"nimble/internal/tensor"
)

// reduceInto applies a row-reduction along `axis`, optionally keeping the
// reduced dimension as size 1, writing into out when it matches the result
// shape.
func reduceInto(name string, a, out *tensor.Tensor, axis int, keepDims bool, init float32, step func(acc, v float32) float32, finish func(acc float32, n int) float32) *tensor.Tensor {
	if a.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: %s requires float32, got %v", name, a.DType()))
	}
	axis = normalizeAxis(axis, a.Rank())
	in := a.Shape()
	var dims [8]int
	out = intoOrAlloc(out, tensor.Float32, reducedShape(&dims, in, axis, keepDims))
	// Collapse to (outer, axis, inner).
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= in[d]
	}
	for d := axis + 1; d < len(in); d++ {
		inner *= in[d]
	}
	nAxis := in[axis]
	av, ov := a.F32(), out.F32()
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			acc := init
			for x := 0; x < nAxis; x++ {
				acc = step(acc, av[(o*nAxis+x)*inner+i])
			}
			ov[o*inner+i] = finish(acc, nAxis)
		}
	}
	return out
}

// reducedShape returns `in` reduced along axis (kept as 1 with keepDims),
// built in buf up to rank 8, so checking a destination against it costs no
// heap allocation.
func reducedShape(buf *[8]int, in tensor.Shape, axis int, keepDims bool) tensor.Shape {
	s := append(buf[:0], in[:axis]...)
	if keepDims {
		s = append(s, 1)
	}
	return append(s, in[axis+1:]...)
}

func normalizeAxis(axis, rank int) int {
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("kernels: axis %d out of range for rank %d", axis, rank))
	}
	return axis
}

func sumStep(acc, v float32) float32 { return acc + v }
func maxStep(acc, v float32) float32 {
	if v > acc {
		return v
	}
	return acc
}
func identityFinish(acc float32, _ int) float32 { return acc }
func meanFinish(acc float32, n int) float32     { return acc / float32(n) }

// SumInto reduces along axis by summation into out.
func SumInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("sum", a, out, axis, keepDims, 0, sumStep, identityFinish)
}

// MeanInto reduces along axis by arithmetic mean into out.
func MeanInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("mean", a, out, axis, keepDims, 0, sumStep, meanFinish)
}

// MaxInto reduces along axis by maximum into out.
func MaxInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("max", a, out, axis, keepDims, float32(math.Inf(-1)), maxStep, identityFinish)
}

// ArgMaxInto writes the int64 indices of the maximum along axis (first
// winner on ties), dropping the reduced dimension, into out.
func ArgMaxInto(a, out *tensor.Tensor, axis int) *tensor.Tensor {
	if a.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: argmax requires float32, got %v", a.DType()))
	}
	axis = normalizeAxis(axis, a.Rank())
	in := a.Shape()
	var dims [8]int
	out = intoOrAlloc(out, tensor.Int64, reducedShape(&dims, in, axis, false))
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= in[d]
	}
	for d := axis + 1; d < len(in); d++ {
		inner *= in[d]
	}
	nAxis := in[axis]
	av, ov := a.F32(), out.I64()
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			best := float32(math.Inf(-1))
			var bestIdx int64
			for x := 0; x < nAxis; x++ {
				v := av[(o*nAxis+x)*inner+i]
				if v > best {
					best = v
					bestIdx = int64(x)
				}
			}
			ov[o*inner+i] = bestIdx
		}
	}
	return out
}

// SoftmaxInto computes a numerically stable softmax along the last axis
// into out.
func SoftmaxInto(a, out *tensor.Tensor) *tensor.Tensor {
	if a.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: softmax requires float32, got %v", a.DType()))
	}
	if a.Rank() == 0 {
		if out != nil && out.DType() == tensor.Float32 && out.Rank() == 0 {
			out.F32()[0] = 1
			return out
		}
		return tensor.Scalar(1)
	}
	in := a.Shape()
	n := in[a.Rank()-1]
	rows := a.NumElements() / max(n, 1)
	out = intoOrAlloc(out, tensor.Float32, in)
	av, ov := a.F32(), out.F32()
	for r := 0; r < rows; r++ {
		row := av[r*n : r*n+n]
		orow := ov[r*n : r*n+n]
		m := float32(math.Inf(-1))
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - m))
			orow[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range orow {
			orow[i] *= inv
		}
	}
	return out
}

// LayerNormInto normalizes over the last axis with learned scale gamma and
// shift beta (both shaped [lastDim]) into out.
func LayerNormInto(a, gamma, beta, out *tensor.Tensor, eps float32) *tensor.Tensor {
	n := a.Shape()[a.Rank()-1]
	if gamma.Rank() != 1 || gamma.Shape()[0] != n || beta.Rank() != 1 || beta.Shape()[0] != n {
		panic(fmt.Sprintf("kernels: layernorm params %v/%v do not match last dim %d", gamma.Shape(), beta.Shape(), n))
	}
	rows := a.NumElements() / n
	out = intoOrAlloc(out, tensor.Float32, a.Shape())
	av, ov, gv, bv := a.F32(), out.F32(), gamma.F32(), beta.F32()
	for r := 0; r < rows; r++ {
		row := av[r*n : r*n+n]
		orow := ov[r*n : r*n+n]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(n)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for i, v := range row {
			orow[i] = (v-float32(mean))*inv*gv[i] + bv[i]
		}
	}
	return out
}
