package kernels

import (
	"fmt"
	"sort"

	"nimble/internal/tensor"
)

// This file implements the operators the paper uses to motivate each shape
// function mode (§4.2): arange (data-dependent output shape), unique
// (data-dependent), and non-maximum suppression (upper-bound, where the
// kernel returns its true output size alongside the data so the runtime can
// slice the over-allocated buffer down to the precise shape).

// Arange produces [start, start+step, ...) < stop as a rank-1 float32
// tensor. The output length is a function of the *values* of its inputs,
// making its shape function data dependent.
func Arange(start, stop, step float32) *tensor.Tensor {
	n := ArangeLen(start, stop, step)
	out := tensor.New(tensor.Float32, n)
	v := start
	for i := 0; i < n; i++ {
		out.F32()[i] = v
		v += step
	}
	return out
}

// ArangeLen computes the output length of Arange; it is also the body of the
// registered data-dependent shape function for the arange operator.
func ArangeLen(start, stop, step float32) int {
	if step == 0 {
		panic("kernels: arange step must be non-zero")
	}
	n := 0
	if step > 0 {
		for v := start; v < stop; v += step {
			n++
		}
	} else {
		for v := start; v > stop; v += step {
			n++
		}
	}
	return n
}

// Unique returns the sorted distinct values of a rank-1 float32 tensor. Its
// output shape depends on the input *data*, the second data-dependent shape
// function example from §4.1.
func Unique(t *tensor.Tensor) *tensor.Tensor {
	if t.Rank() != 1 {
		panic(fmt.Sprintf("kernels: unique requires rank-1 input, got %v", t.Shape()))
	}
	vals := append([]float32{}, t.F32()...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	res := make([]float32, len(out))
	copy(res, out)
	return tensor.FromF32(res, len(res))
}

// NMSResult carries both the selected boxes and the true count: the paper's
// upper-bound shape functions "require such operators to return the output
// shape along with output value, so as to use the real shape to slice the
// output tensors into precise output shape" (§4.2).
type NMSResult struct {
	// Boxes is the over-allocated [maxBoxes, 5] buffer; only the first Count
	// rows are valid.
	Boxes *tensor.Tensor
	// Count is the number of boxes that survived suppression.
	Count int
}

// NMS performs greedy non-maximum suppression on boxes shaped [n, 5] with
// rows (score, x1, y1, x2, y2). Boxes with IoU above iouThreshold against an
// already-selected higher-scoring box are suppressed. The output buffer is
// allocated at the upper bound n; NMSResult.Count carries the precise size.
func NMS(boxes *tensor.Tensor, iouThreshold float32) NMSResult {
	if boxes.Rank() != 2 || boxes.Shape()[1] != 5 {
		panic(fmt.Sprintf("kernels: nms requires [n, 5] boxes, got %v", boxes.Shape()))
	}
	n := boxes.Shape()[0]
	bv := boxes.F32()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bv[order[a]*5] > bv[order[b]*5] })

	out := tensor.New(tensor.Float32, n, 5) // upper-bound allocation
	selected := make([]int, 0, n)
	for _, cand := range order {
		keep := true
		for _, s := range selected {
			if iou(bv[cand*5+1:cand*5+5], bv[s*5+1:s*5+5]) > iouThreshold {
				keep = false
				break
			}
		}
		if keep {
			copy(out.F32()[len(selected)*5:], bv[cand*5:cand*5+5])
			selected = append(selected, cand)
		}
	}
	return NMSResult{Boxes: out, Count: len(selected)}
}

// SliceNMS converts an upper-bound NMS result into its precisely shaped
// tensor, the runtime step that follows every upper-bound shape function.
func SliceNMS(r NMSResult) *tensor.Tensor {
	return SliceInto(r.Boxes, nil, 0, 0, r.Count)
}

func iou(a, b []float32) float32 {
	ax1, ay1, ax2, ay2 := a[0], a[1], a[2], a[3]
	bx1, by1, bx2, by2 := b[0], b[1], b[2], b[3]
	ix1, iy1 := maxF(ax1, bx1), maxF(ay1, by1)
	ix2, iy2 := minF(ax2, bx2), minF(ay2, by2)
	iw, ih := maxF(0, ix2-ix1), maxF(0, iy2-iy1)
	inter := iw * ih
	areaA := maxF(0, ax2-ax1) * maxF(0, ay2-ay1)
	areaB := maxF(0, bx2-bx1) * maxF(0, by2-by1)
	union := areaA + areaB - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func maxF(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}
