package serve

import (
	"math/bits"
	"time"
)

// histogram is a fixed-size log₂-bucketed latency histogram: bucket i
// counts observations in [2^i, 2^(i+1)) microseconds, with everything
// under 1µs in bucket 0. 40 buckets cover sub-microsecond to ~12 days, so
// no observation is ever dropped. Quantiles come back as the geometric
// midpoint of the covering bucket — ~±41% worst-case error, which is the
// right trade for a lock-striped hot path: two integer ops to record, no
// allocation, no sorting. Not self-synchronized; its owners (an entry's
// step times and its admission policy's service times) observe and read it
// under Scheduler.mu, which they already hold at the call sites.
type histogram struct {
	counts [40]int64
	total  int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	idx := 0
	if us > 0 {
		idx = bits.Len64(uint64(us)) - 1
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
	}
	h.counts[idx]++
	h.total++
}

// quantile returns the q-th quantile (0 < q ≤ 1) as the geometric midpoint
// of the bucket where the cumulative count crosses q·total; zero when
// nothing has been observed.
func (h *histogram) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := int64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Geometric midpoint of [2^i, 2^(i+1)) µs ≈ 2^i · √2.
			mid := float64(int64(1)<<uint(i)) * 1.41421356
			return time.Duration(mid * float64(time.Microsecond))
		}
	}
	return 0
}
