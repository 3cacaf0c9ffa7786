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
	if !reducedShapeFits(out, tensor.Float32, in, axis, keepDims) {
		outShape := make(tensor.Shape, 0, a.Rank())
		for d, v := range in {
			if d == axis {
				if keepDims {
					outShape = append(outShape, 1)
				}
				continue
			}
			outShape = append(outShape, v)
		}
		out = tensor.New(tensor.Float32, outShape...)
	}
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

// reducedShapeFits reports whether out matches the shape `in` reduced along
// axis, without materializing that shape — the zero-allocation check behind
// the destination-passing reductions.
func reducedShapeFits(out *tensor.Tensor, dt tensor.DType, in tensor.Shape, axis int, keepDims bool) bool {
	if out == nil || out.DType() != dt {
		return false
	}
	want := len(in) - 1
	if keepDims {
		want = len(in)
	}
	os := out.Shape()
	if len(os) != want {
		return false
	}
	j := 0
	for d, v := range in {
		if d == axis {
			if keepDims {
				if os[j] != 1 {
					return false
				}
				j++
			}
			continue
		}
		if os[j] != v {
			return false
		}
		j++
	}
	return true
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

// Sum reduces along axis by summation.
func Sum(a *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return SumInto(a, nil, axis, keepDims)
}

// SumInto reduces along axis by summation into out.
func SumInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("sum", a, out, axis, keepDims, 0, sumStep, identityFinish)
}

// Mean reduces along axis by arithmetic mean.
func Mean(a *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return MeanInto(a, nil, axis, keepDims)
}

// MeanInto reduces along axis by arithmetic mean into out.
func MeanInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("mean", a, out, axis, keepDims, 0, sumStep, meanFinish)
}

// Max reduces along axis by maximum.
func Max(a *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return MaxInto(a, nil, axis, keepDims)
}

// MaxInto reduces along axis by maximum into out.
func MaxInto(a, out *tensor.Tensor, axis int, keepDims bool) *tensor.Tensor {
	return reduceInto("max", a, out, axis, keepDims, float32(math.Inf(-1)), maxStep, identityFinish)
}

// ArgMax returns the int64 indices of the maximum along axis (first winner on
// ties), dropping the reduced dimension.
func ArgMax(a *tensor.Tensor, axis int) *tensor.Tensor {
	return ArgMaxInto(a, nil, axis)
}

// ArgMaxInto computes ArgMax into out when it matches the int64 result shape.
func ArgMaxInto(a, out *tensor.Tensor, axis int) *tensor.Tensor {
	if a.DType() != tensor.Float32 {
		panic(fmt.Sprintf("kernels: argmax requires float32, got %v", a.DType()))
	}
	axis = normalizeAxis(axis, a.Rank())
	in := a.Shape()
	// The argmax result shape is `in` minus the reduced axis — the same
	// shape a keepdims=false reduction produces, checked without
	// materializing it so a destination hit stays allocation-free.
	if !reducedShapeFits(out, tensor.Int64, in, axis, false) {
		outShape := make(tensor.Shape, 0, a.Rank()-1)
		for d, v := range in {
			if d != axis {
				outShape = append(outShape, v)
			}
		}
		out = tensor.New(tensor.Int64, outShape...)
	}
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

// Softmax computes a numerically stable softmax along the last axis.
func Softmax(a *tensor.Tensor) *tensor.Tensor { return SoftmaxInto(a, nil) }

// SoftmaxInto computes the softmax into out when it matches.
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

// LayerNorm normalizes over the last axis with learned scale gamma and shift
// beta (both shaped [lastDim]).
func LayerNorm(a, gamma, beta *tensor.Tensor, eps float32) *tensor.Tensor {
	return LayerNormInto(a, gamma, beta, nil, eps)
}

// LayerNormInto computes LayerNorm into out when it matches.
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
