package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"serd/internal/parallel"
	"serd/internal/stats"
)

// LabeledPair is a training/evaluation example for an ER matcher: the pair,
// its similarity vector, and its ground-truth label.
type LabeledPair struct {
	Pair   Pair
	Vector []float64
	Match  bool
}

// LabeledPairs materializes a matcher workload from the dataset: every
// matching pair plus negPerPos sampled non-matching pairs per match
// (the standard ER training regime — the raw pair space is overwhelmingly
// negative, so negatives are down-sampled). negPerPos <= 0 defaults to 3.
func LabeledPairs(e *ER, negPerPos int, r *rand.Rand) []LabeledPair {
	if negPerPos <= 0 {
		negPerPos = 3
	}
	s := e.Schema()
	out := make([]LabeledPair, 0, len(e.Matches)*(1+negPerPos))
	for _, p := range e.Matches {
		out = append(out, LabeledPair{
			Pair:   p,
			Vector: s.SimVector(e.A.Entities[p.A], e.B.Entities[p.B]),
			Match:  true,
		})
	}
	for _, p := range e.NonMatchingPairs(len(e.Matches)*negPerPos, r) {
		out = append(out, LabeledPair{
			Pair:   p,
			Vector: s.SimVector(e.A.Entities[p.A], e.B.Entities[p.B]),
			Match:  false,
		})
	}
	return out
}

// LabeledPairsMixed materializes a matcher workload whose negatives are a
// mix of hard and easy: half are the highest-similarity non-matching pairs
// of the candidate pool (blocking candidates ranked by mean similarity —
// exactly the near-miss pairs a real labeling pipeline surfaces and labels)
// and half are drawn uniformly from the pair space. negPerPos <= 0 defaults
// to 3. Candidate pairs that are true matches are skipped.
func LabeledPairsMixed(e *ER, negPerPos int, candidates []Pair, r *rand.Rand) []LabeledPair {
	if negPerPos <= 0 {
		negPerPos = 3
	}
	s := e.Schema()
	out := make([]LabeledPair, 0, len(e.Matches)*(1+negPerPos))
	for _, p := range e.Matches {
		out = append(out, LabeledPair{
			Pair:   p,
			Vector: s.SimVector(e.A.Entities[p.A], e.B.Entities[p.B]),
			Match:  true,
		})
	}
	wantNeg := len(e.Matches) * negPerPos
	hardBudget := wantNeg / 2
	seen := make(map[Pair]bool)
	pa, pb := e.Prep(nil)
	for _, lp := range HardestNonMatches(e, candidates, hardBudget, pa, pb, nil) {
		seen[lp.Pair] = true
		out = append(out, lp)
		wantNeg--
	}
	for _, p := range e.NonMatchingPairs(wantNeg, r) {
		if seen[p] {
			continue
		}
		out = append(out, LabeledPair{
			Pair:   p,
			Vector: s.SimVector(e.A.Entities[p.A], e.B.Entities[p.B]),
			Match:  false,
		})
	}
	return out
}

// HardestNonMatches scores the candidate pairs and returns the top-n
// non-matching pairs by mean similarity — the boundary cases that make a
// matcher workload meaningful. a and b are the dataset's relations
// prepped under its schema (see ER.Prep). Candidates are deduplicated
// serially in candidate order, then scored on pool under the
// "generator.vectors" phase (nil is fine), so the selection is the same
// at any worker count. The order is a stable sort's by mean descending:
// ties in mean keep candidate order. Candidates that provably rank below
// the n-th are never scored in full (see hardestPruned); the result is
// the one scoring every candidate would give, bit for bit.
func HardestNonMatches(e *ER, candidates []Pair, n int, a, b *Preps, pool *parallel.Pool) []LabeledPair {
	out, _ := hardestNonMatches(e, candidates, n, a, b, pool)
	return out
}

// hardestNonMatches is HardestNonMatches that also returns how many
// candidates it scored in full.
func hardestNonMatches(e *ER, candidates []Pair, n int, a, b *Preps, pool *parallel.Pool) ([]LabeledPair, int) {
	if n <= 0 {
		return nil, 0
	}
	pairs := UniquePairs(candidates, e.Matches, e.A.Len(), e.B.Len())
	dim := len(a.pps)
	var xs []float64
	var order []int32
	scored := len(pairs)
	if c := a.boundColumn(b); c >= 0 && n < len(pairs) {
		xs, order, scored = hardestPruned(pairs, n, c, a, b, pool)
	} else {
		xs = a.vectors(pairs, b, pool, -1)
		means := make([]float64, len(pairs))
		for i := range means {
			means[i] = mean(xs[i*dim : (i+1)*dim])
		}
		order = hardestOrder(means, n)
	}
	// Copy the kept vectors out of the scoring array, so callers that hold
	// the result do not keep every candidate's vector alive.
	flat := make([]float64, 0, len(order)*dim)
	out := make([]LabeledPair, len(order))
	for k, i := range order {
		flat = append(flat, xs[int(i)*dim:(int(i)+1)*dim]...)
		out[k] = LabeledPair{Pair: pairs[i], Vector: flat[k*dim : (k+1)*dim : (k+1)*dim]}
	}
	return out, scored
}

// hardestPruned returns the vectors of pairs, dim floats each in one
// array, and hardestOrder's order of their means, scoring column bounded,
// a bounder, only for the pairs that can reach the top n (n <
// len(pairs)); the other vectors hold the bound in that slot. It also
// returns how many pairs it scored in full.
//
// Every pair first gets its bounded mean: the other columns scored
// exactly and the bound in column bounded, summed in column order and
// divided as the mean is. IEEE addition and division round monotonically,
// so a bounded mean is never below the mean. The pairs with the n largest
// bounded means are scored in full, and the least of their means, L, is
// at most the n-th largest mean t. A pair whose bounded mean is below L
// has a mean below t, so hardestOrder neither keeps it nor counts it as
// a tie at t; hardestOrder over the rest, in index order, keeps the same
// pairs in the same order. A NaN bounded mean, which comes from a NaN
// similarity in another column, keeps every pair, so hardestOrder's NaN
// handling sees the full list.
func hardestPruned(pairs []Pair, n, bounded int, a, b *Preps, pool *parallel.Pool) ([]float64, []int32, int) {
	dim := len(a.pps)
	xs := a.vectors(pairs, b, pool, bounded)
	row := func(i int32) []float64 { return xs[int(i)*dim : (int(i)+1)*dim] }
	bounds := make([]float64, len(pairs))
	for i := range bounds {
		bounds[i] = mean(row(int32(i)))
	}
	score := func(idx []int32) {
		pp := a.pps[bounded]
		pool.Run("generator.vectors", len(idx), func(k int) {
			p := pairs[idx[k]]
			row(idx[k])[bounded] = pp.SimPrepped(a.cols[bounded][p.A], b.cols[bounded][p.B])
		})
	}
	var keep []int32 // the pairs that can reach the top n, in index order
	if slices.ContainsFunc(bounds, math.IsNaN) {
		keep = make([]int32, len(pairs))
		for i := range keep {
			keep[i] = int32(i)
		}
		score(keep)
	} else {
		tb := stats.Select(slices.Clone(bounds), len(bounds)-n)
		var top, rest []int32
		for i, m := range bounds {
			if m >= tb {
				top = append(top, int32(i))
			}
		}
		score(top)
		lo := math.Inf(1)
		for _, i := range top {
			lo = min(lo, mean(row(i)))
		}
		for i, m := range bounds {
			if m >= lo {
				keep = append(keep, int32(i))
				if m < tb {
					rest = append(rest, int32(i))
				}
			}
		}
		score(rest)
	}
	means := make([]float64, len(keep))
	for k, i := range keep {
		means[k] = mean(row(i))
	}
	order := hardestOrder(means, n)
	for k, i := range order {
		order[k] = keep[i]
	}
	return xs, order, len(keep)
}

// mean is a similarity vector's mean, summed in column order.
func mean(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// hardestOrder returns the indices of the first n entries of means in a
// stable sort by mean descending. It selects before it sorts: the n-th
// largest mean t is an order statistic, every mean above t survives and
// so do the lowest-index ties at t, and only the ≤ n survivors, still in
// index order, are stable-sorted. With a NaN mean the comparator is no
// strict weak order and selection could disagree with the sort, so the
// whole index is sorted instead.
func hardestOrder(means []float64, n int) []int32 {
	var order []int32
	if n < len(means) && !slices.ContainsFunc(means, math.IsNaN) {
		t := stats.Select(slices.Clone(means), len(means)-n)
		above := 0
		for _, m := range means {
			if m > t {
				above++
			}
		}
		ties := n - above
		order = make([]int32, 0, n)
		for i, m := range means {
			if m > t || (m == t && ties > 0) {
				if m == t {
					ties--
				}
				order = append(order, int32(i))
			}
		}
	} else {
		order = make([]int32, len(means))
		for i := range order {
			order[i] = int32(i)
		}
	}
	// Only cmp < 0 steers the stable sort, as less steers sort.SliceStable
	// (one generated algorithm), so the order is sort.SliceStable's by
	// mean > mean, ties and NaN means included.
	slices.SortStableFunc(order, func(i, j int32) int {
		switch {
		case means[i] > means[j]:
			return -1
		case means[j] > means[i]:
			return 1
		}
		return 0
	})
	return order[:min(n, len(order))]
}

// Split shuffles pairs with r and divides them into train and test sets,
// with testFrac of the examples (rounded down, at least one when possible)
// going to test. It splits matching and non-matching examples separately so
// both sides of the label are represented in both splits (stratified split).
func Split(pairs []LabeledPair, testFrac float64, r *rand.Rand) (train, test []LabeledPair, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: testFrac %v outside (0,1)", testFrac)
	}
	var pos, neg []LabeledPair
	for _, p := range pairs {
		if p.Match {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	}
	splitOne := func(xs []LabeledPair) (tr, te []LabeledPair) {
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		n := int(float64(len(xs)) * testFrac)
		if n == 0 && len(xs) > 1 {
			n = 1
		}
		return xs[n:], xs[:n]
	}
	trP, teP := splitOne(pos)
	trN, teN := splitOne(neg)
	train = append(append([]LabeledPair{}, trP...), trN...)
	test = append(append([]LabeledPair{}, teP...), teN...)
	r.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
	r.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	return train, test, nil
}

// Vectors extracts the similarity vectors and labels from labeled pairs,
// the input format of the matcher package.
func Vectors(pairs []LabeledPair) (xs [][]float64, ys []bool) {
	xs = make([][]float64, len(pairs))
	ys = make([]bool, len(pairs))
	for i, p := range pairs {
		xs[i] = p.Vector
		ys[i] = p.Match
	}
	return xs, ys
}
