package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p95 over 100 samples is the 5th-largest value and moves with
// every outlier, so the picker refuses it.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice. ok is false when fewer than minTail samples lie beyond
// the percentile on its thin side, in which case the value must not be
// reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	tail := n - 1 - rank
	if below := rank; below < tail {
		tail = below
	}
	return sorted[rank], tail >= minTail
}

// dist summarizes one sample set. The quartiles travel with every metric so
// a reader can see the spread a single median hides.
type dist struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P95    float64 `json:"p95,omitempty"`
	P95OK  bool    `json:"p95_ok"`
	P99    float64 `json:"p99,omitempty"`
	P99OK  bool    `json:"p99_ok"`
}

// summarize sorts a copy of xs and picks its quartiles and tail percentiles.
// p99 is informational only and is withheld below 1000 samples.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.Q1, _ = percentile(s, 0.25)
	d.Median, _ = percentile(s, 0.50)
	d.Q3, _ = percentile(s, 0.75)
	d.P95, d.P95OK = percentile(s, 0.95)
	d.P99, d.P99OK = percentile(s, 0.99)
	if len(s) < 1000 {
		d.P99OK = false
	}
	return d
}

// median is the plain middle value, for small sets such as repeated set-ups
// where a percentile guard makes no sense.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
