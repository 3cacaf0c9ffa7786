package kernels

import (
	"fmt"
	"math"

	"nimble/internal/tensor"
)

// This file implements the kernels behind autoregressive decoding: the
// KV-cache append (the loop-carried mutable buffer of the decoder models),
// single-query attention over a cached prefix, and deterministic token
// sampling. The append kernel is the in-place member of the family: the
// memory planner routes the cache buffer itself as the destination of its
// invoke_mut, so CacheAppendInto recognizes the aliased case and writes one
// row without touching the other M-1.

// cacheRow validates a (cache, row, pos) triple and returns the row extent
// and the write position.
func cacheRow(cache, row, pos *tensor.Tensor) (rowSize int, at int, err error) {
	if cache.DType() != row.DType() {
		return 0, 0, fmt.Errorf("kernels: cache_append dtype mismatch: cache %v, row %v", cache.DType(), row.DType())
	}
	if pos.DType() != tensor.Int64 || pos.NumElements() != 1 {
		return 0, 0, fmt.Errorf("kernels: cache_append position must be a single int64, got %v %v", pos.DType(), pos.Shape())
	}
	cs := cache.Shape()
	if cs.Rank() == 0 || cs[0] == 0 {
		return 0, 0, fmt.Errorf("kernels: cache_append cache must have a non-empty leading axis, got %v", cs)
	}
	rowSize = cache.NumElements() / cs[0]
	if row.NumElements() != rowSize {
		return 0, 0, fmt.Errorf("kernels: cache_append row has %d elements, cache rows have %d", row.NumElements(), rowSize)
	}
	at = int(pos.I64()[0])
	if at < 0 || at >= cs[0] {
		return 0, 0, fmt.Errorf("kernels: cache_append position %d out of range [0, %d)", at, cs[0])
	}
	return rowSize, at, nil
}

// CacheAppendInto writes a copy of the cache with row at position pos along
// axis 0 into out. When out aliases the cache (the planner's in-place
// routing), only the target row is written; otherwise the rest of the cache
// is copied over first. A nil or mismatched out gets a fresh copy, the pure
// (eager-reference) form.
func CacheAppendInto(cache, row, pos, out *tensor.Tensor) (*tensor.Tensor, error) {
	rowSize, at, err := cacheRow(cache, row, pos)
	if err != nil {
		return nil, err
	}
	if out == nil || out.DType() != cache.DType() || out.NumElements() != cache.NumElements() {
		out = tensor.New(cache.DType(), cache.Shape()...)
	}
	tensor.CopyElems(out, 0, cache, 0, cache.NumElements())
	tensor.CopyElems(out, at*rowSize, row, 0, rowSize)
	return out, nil
}

// attnStackScores is how many attention scores AttnCachedInto keeps on the
// stack; a longer cached prefix allocates its score row.
const attnStackScores = 256

// AttnCachedInto computes single-query multi-head attention of q over the
// first `length` rows of the key/value caches into out:
// softmax(q·Kᵀ/√d_head)·V per head.
func AttnCachedInto(q, k, v, length *tensor.Tensor, heads int, out *tensor.Tensor) (*tensor.Tensor, error) {
	if q.DType() != tensor.Float32 {
		return nil, fmt.Errorf("kernels: attn_cached requires float32, got %v", q.DType())
	}
	d := q.NumElements()
	ks, vs := k.Shape(), v.Shape()
	if ks.Rank() != 2 || vs.Rank() != 2 || ks[1] != d || vs[1] != d || ks[0] != vs[0] {
		return nil, fmt.Errorf("kernels: attn_cached cache shapes %v/%v incompatible with query width %d", ks, vs, d)
	}
	if heads <= 0 || d%heads != 0 {
		return nil, fmt.Errorf("kernels: attn_cached width %d not divisible by %d heads", d, heads)
	}
	n := int(length.I64()[0])
	if n <= 0 || n > ks[0] {
		return nil, fmt.Errorf("kernels: attn_cached length %d out of range (0, %d]", n, ks[0])
	}
	if out == nil || out.DType() != q.DType() || out.NumElements() != d {
		out = tensor.New(q.DType(), q.Shape()...)
	}
	hd := d / heads
	scale := 1 / math.Sqrt(float64(hd))
	qv, kv, vv, ov := q.F32(), k.F32(), v.F32(), out.F32()
	var buf [attnStackScores]float64
	scores := buf[:]
	if n > len(buf) {
		scores = make([]float64, n)
	}
	scores = scores[:n]
	for h := 0; h < heads; h++ {
		off := h * hd
		maxS := math.Inf(-1)
		for j := 0; j < n; j++ {
			var dot float64
			krow := kv[j*d+off : j*d+off+hd]
			qh := qv[off : off+hd]
			for i, x := range qh {
				dot += float64(x) * float64(krow[i])
			}
			scores[j] = dot * scale
			if scores[j] > maxS {
				maxS = scores[j]
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			scores[j] = math.Exp(scores[j] - maxS)
			sum += scores[j]
		}
		oh := ov[off : off+hd]
		for i := range oh {
			oh[i] = 0
		}
		for j := 0; j < n; j++ {
			p := float32(scores[j] / sum)
			vrow := vv[j*d+off : j*d+off+hd]
			for i, x := range vrow {
				oh[i] += p * x
			}
		}
	}
	return out, nil
}

// splitmix64 is the deterministic per-position random source for sampled
// decoding (the same generator internal/faults uses for schedules).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleToken picks the next token id from a logits row. temp <= 0 is
// greedy argmax (ties to the lowest id); temp > 0 samples the
// softmax(logits/temp) distribution using splitmix64(seed ^ pos), so a
// (seed, position) pair always yields the same token.
func SampleToken(logits, pos *tensor.Tensor, temp float64, seed int64) (*tensor.Tensor, error) {
	if logits.DType() != tensor.Float32 || logits.NumElements() == 0 {
		return nil, fmt.Errorf("kernels: sample_token requires non-empty float32 logits, got %v %v", logits.DType(), logits.Shape())
	}
	lv := logits.F32()
	var tok int64
	if temp <= 0 {
		best := lv[0]
		for i, x := range lv[1:] {
			if x > best {
				best = x
				tok = int64(i + 1)
			}
		}
	} else {
		p := int(pos.I64()[0])
		u := float64(splitmix64(uint64(seed)^uint64(p)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
		maxL := lv[0]
		for _, x := range lv[1:] {
			if x > maxL {
				maxL = x
			}
		}
		var sum float64
		ps := make([]float64, len(lv))
		for i, x := range lv {
			ps[i] = math.Exp((float64(x) - float64(maxL)) / temp)
			sum += ps[i]
		}
		target := u * sum
		var acc float64
		tok = int64(len(lv) - 1)
		for i, pi := range ps {
			acc += pi
			if acc > target {
				tok = int64(i)
				break
			}
		}
	}
	return tensor.FromI64([]int64{tok}, 1), nil
}
