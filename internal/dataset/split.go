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

// HardestNonMatches scores every candidate pair and returns the top-n
// non-matching pairs by mean similarity — the boundary cases that make a
// matcher workload meaningful. a and b are the dataset's relations
// prepped under its schema (see ER.Prep). Candidates are deduplicated
// serially in candidate order, then scored on pool (see PairVectors; nil
// is fine), so the selection is the same at any worker count. The order
// is a stable sort's by mean descending: ties in mean keep candidate
// order.
func HardestNonMatches(e *ER, candidates []Pair, n int, a, b *Preps, pool *parallel.Pool) []LabeledPair {
	if n <= 0 {
		return nil
	}
	pairs := UniquePairs(candidates, e.Matches, e.A.Len(), e.B.Len())
	xs := PairVectors(pairs, a, b, pool)
	means := make([]float64, len(xs))
	for i, x := range xs {
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		means[i] = mean / float64(len(x))
	}
	order := hardestOrder(means, n)
	// Copy the kept vectors out of the scoring array, so callers that hold
	// the result do not keep every candidate's vector alive.
	dim := e.Schema().Len()
	flat := make([]float64, 0, len(order)*dim)
	out := make([]LabeledPair, len(order))
	for k, i := range order {
		flat = append(flat, xs[i]...)
		out[k] = LabeledPair{Pair: pairs[i], Vector: flat[k*dim : (k+1)*dim : (k+1)*dim]}
	}
	return out
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
