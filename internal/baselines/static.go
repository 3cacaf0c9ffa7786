package baselines

import "sort"

// Static memory planner: the TVM whole-graph baseline of §6.3.

// Interval is one buffer's size and live range in a linearized graph.
type Interval struct {
	Size   int
	Lo, Hi int
}

// OptimalStaticPlan computes the liveness-based best-fit footprint a static
// compiler achieves when every size and lifetime is known at compile time.
// Nimble's chain-local coalescing is compared against this to reproduce the
// "up to 8% more memory footprint" concession of §6.3.
func OptimalStaticPlan(ivs []Interval) int {
	// Sort by start; greedily assign each buffer to the smallest free slot
	// whose previous occupant died, growing the arena otherwise.
	sorted := append([]Interval{}, ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	type slot struct {
		size   int
		freeAt int
	}
	var slots []slot
	total := 0
	for _, iv := range sorted {
		best := -1
		for si, s := range slots {
			if s.freeAt <= iv.Lo && s.size >= iv.Size {
				if best < 0 || slots[best].size > s.size {
					best = si
				}
			}
		}
		if best >= 0 {
			slots[best].freeAt = iv.Hi
			continue
		}
		// Try growing a free-but-small slot before adding a new one (a
		// static planner can resize because it plans the whole arena).
		grew := false
		for si, s := range slots {
			if s.freeAt <= iv.Lo {
				total += iv.Size - s.size
				slots[si].size = iv.Size
				slots[si].freeAt = iv.Hi
				grew = true
				break
			}
		}
		if !grew {
			slots = append(slots, slot{size: iv.Size, freeAt: iv.Hi})
			total += iv.Size
		}
	}
	return total
}

// SumSizes is the no-reuse footprint (every buffer distinct).
func SumSizes(ivs []Interval) int {
	t := 0
	for _, iv := range ivs {
		t += iv.Size
	}
	return t
}
