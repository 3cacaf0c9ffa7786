package kernels

import (
	"fmt"

	"nimble/internal/tensor"
)

// Conv2DInto computes a 2-D convolution in NCHW layout into out: input
// [n, cIn, h, w], weight [cOut, cIn, kh, kw], with symmetric padding and
// stride. It is the workhorse for the computer-vision graphs of the §6.3
// memory-footprint study; the implementation favors clarity since those
// experiments measure allocation behavior, not conv throughput.
func Conv2DInto(in, weight, out *tensor.Tensor, stride, pad int) *tensor.Tensor {
	if in.Rank() != 4 || weight.Rank() != 4 {
		panic(fmt.Sprintf("kernels: conv2d requires rank-4 input/weight, got %v / %v", in.Shape(), weight.Shape()))
	}
	n, cIn, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	cOut, cInW, kh, kw := weight.Shape()[0], weight.Shape()[1], weight.Shape()[2], weight.Shape()[3]
	if cIn != cInW {
		panic(fmt.Sprintf("kernels: conv2d channel mismatch: input %d vs weight %d", cIn, cInW))
	}
	oh, ow := Conv2DOutDims(h, w, kh, kw, stride, pad)
	out = intoOrAlloc(out, tensor.Float32, tensor.Shape{n, cOut, oh, ow})
	iv, wv, ov := in.F32(), weight.F32(), out.F32()
	for b := 0; b < n; b++ {
		for co := 0; co < cOut; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ci := 0; ci < cIn; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							inRow := iv[((b*cIn+ci)*h+iy)*w:]
							wRow := wv[((co*cIn+ci)*kh+ky)*kw:]
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= w {
									continue
								}
								acc += inRow[ix] * wRow[kx]
							}
						}
					}
					ov[((b*cOut+co)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// Conv2DOutDims returns the spatial output dimensions of a convolution or
// pooling window; it backs the data-independent shape function for conv2d.
func Conv2DOutDims(h, w, kh, kw, stride, pad int) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	if oh < 0 {
		oh = 0
	}
	if ow < 0 {
		ow = 0
	}
	return oh, ow
}

// MaxPool2DInto applies kxk max pooling with the given stride in NCHW
// layout into out.
func MaxPool2DInto(in, out *tensor.Tensor, k, stride int) *tensor.Tensor {
	return pool2D(in, out, k, stride, true)
}

// AvgPool2DInto applies kxk average pooling with the given stride in NCHW
// layout into out.
func AvgPool2DInto(in, out *tensor.Tensor, k, stride int) *tensor.Tensor {
	return pool2D(in, out, k, stride, false)
}

func pool2D(in, out *tensor.Tensor, k, stride int, isMax bool) *tensor.Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("kernels: pool2d requires rank-4 input, got %v", in.Shape()))
	}
	n, c, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	oh, ow := Conv2DOutDims(h, w, k, k, stride, 0)
	out = intoOrAlloc(out, tensor.Float32, tensor.Shape{n, c, oh, ow})
	iv, ov := in.F32(), out.F32()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					if isMax {
						acc = iv[base+(oy*stride)*w+ox*stride]
					}
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							v := iv[base+(oy*stride+ky)*w+(ox*stride+kx)]
							if isMax {
								if v > acc {
									acc = v
								}
							} else {
								acc += v
							}
						}
					}
					if !isMax {
						acc /= float32(k * k)
					}
					ov[((b*c+ch)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// GlobalAvgPool2DInto reduces each channel's spatial plane to its mean,
// writing [n, c] from [n, c, h, w] into out.
func GlobalAvgPool2DInto(in, out *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("kernels: global pool requires rank-4 input, got %v", in.Shape()))
	}
	n, c, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	out = intoOrAlloc(out, tensor.Float32, tensor.Shape{n, c})
	iv, ov := in.F32(), out.F32()
	area := float32(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			var acc float32
			for i := 0; i < h*w; i++ {
				acc += iv[base+i]
			}
			ov[b*c+ch] = acc / area
		}
	}
	return out
}
