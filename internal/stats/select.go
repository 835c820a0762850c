package stats

import "cmp"

// Select returns the k-th smallest element of xs (0-based, so k = 0 is the
// minimum), partially reordering xs in place. It is quickselect with a
// median-of-three pivot and a three-way partition, so runs of equal
// elements cost one pass, not a quadratic descent. xs must hold no NaN:
// NaN compares neither below, above nor equal to anything, and the
// partition would lose track of it. Select panics unless 0 ≤ k < len(xs).
func Select[E cmp.Ordered](xs []E, k int) E {
	if k < 0 || k >= len(xs) {
		panic("stats: Select index out of range")
	}
	lo, hi := 0, len(xs)
	for {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		// p is the median of a, b and c.
		p := max(min(a, b), min(max(a, b), c))
		// Partition [lo, hi) into [lo, lt) < p, [lt, gt) == p, [gt, hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
}
