package dataset

import (
	"fmt"
	"math/rand"
	"slices"
)

// Pair addresses an (A-entity, B-entity) pair by index.
type Pair struct {
	A, B int
}

// UniquePairs returns the pairs of ps that are not in exclude, each once,
// in first-occurrence order. Every pair, excluded ones included, must lie
// in [0, nA) × [0, nB). Instead of hashing pairs it groups them by A with
// a counting sort and marks repeats with one per-B stamp, so time and
// memory are O(len(ps) + len(exclude) + nA + nB). exclude acts as a
// prefix of ps whose pairs are never emitted.
func UniquePairs(ps, exclude []Pair, nA, nB int) []Pair {
	at := func(k int) Pair {
		if k < len(exclude) {
			return exclude[k]
		}
		return ps[k-len(exclude)]
	}
	total := len(exclude) + len(ps)
	// byA lists positions grouped by A, in position order within a group.
	start := make([]int32, nA+1)
	for k := 0; k < total; k++ {
		start[at(k).A+1]++
	}
	for i := 0; i < nA; i++ {
		start[i+1] += start[i]
	}
	byA := make([]int32, total)
	fill := slices.Clone(start[:nA])
	for k := 0; k < total; k++ {
		a := at(k).A
		byA[fill[a]] = int32(k)
		fill[a]++
	}
	// stamp[b] is 1 + the last A whose group held (A, b); a position whose
	// B is already stamped by its own group repeats an earlier pair.
	stamp := make([]int32, nB)
	repeat := make([]bool, total)
	for a := 0; a < nA; a++ {
		for _, k := range byA[start[a]:start[a+1]] {
			b := at(int(k)).B
			if stamp[b] == int32(a+1) {
				repeat[k] = true
			} else {
				stamp[b] = int32(a + 1)
			}
		}
	}
	out := make([]Pair, 0, len(ps))
	for k, p := range ps {
		if !repeat[len(exclude)+k] {
			out = append(out, p)
		}
	}
	return out
}

// ER is a labeled entity-resolution dataset E = (A, B, M, N) (paper §II-A).
// Matches holds M explicitly; every other A×B pair is non-matching.
type ER struct {
	A, B    *Relation
	Matches []Pair
}

// NewER validates relation schemas and match indices.
func NewER(a, b *Relation, matches []Pair) (*ER, error) {
	if a.Schema != b.Schema && a.Schema.Len() != b.Schema.Len() {
		return nil, fmt.Errorf("dataset: relations have different arity")
	}
	for _, p := range matches {
		if p.A < 0 || p.A >= a.Len() || p.B < 0 || p.B >= b.Len() {
			return nil, fmt.Errorf("dataset: match %+v out of range (|A|=%d, |B|=%d)", p, a.Len(), b.Len())
		}
	}
	return &ER{A: a, B: b, Matches: matches}, nil
}

// Schema returns the aligned schema (the A-relation's).
func (e *ER) Schema() *Schema { return e.A.Schema }

// MatchSet returns M as a set for O(1) lookups.
func (e *ER) MatchSet() map[Pair]bool {
	m := make(map[Pair]bool, len(e.Matches))
	for _, p := range e.Matches {
		m[p] = true
	}
	return m
}

// MatchingVectors computes X+ — the similarity vectors of all matching
// pairs (paper §II-B). Each value is prepped once (see Preps).
func (e *ER) MatchingVectors() [][]float64 {
	a, b := e.Prep(nil)
	return PairVectors(e.Matches, a, b, nil)
}

// NonMatchingVectors computes up to maxN similarity vectors of
// non-matching pairs (X−). If maxN <= 0 or maxN exceeds |N|, all
// non-matching pairs are used; otherwise a uniform sample without
// replacement is drawn with r. Sampling keeps the quadratic pair space
// tractable for the larger datasets, exactly as ER systems do in practice.
// Each value is prepped once (see Preps).
func (e *ER) NonMatchingVectors(maxN int, r *rand.Rand) [][]float64 {
	pairs := e.NonMatchingPairs(maxN, r)
	a, b := e.Prep(nil)
	return PairVectors(pairs, a, b, nil)
}

// NonMatchingPairs returns up to maxN non-matching pairs (see
// NonMatchingVectors for the sampling contract).
func (e *ER) NonMatchingPairs(maxN int, r *rand.Rand) []Pair {
	matchSet := e.MatchSet()
	total := e.A.Len()*e.B.Len() - len(e.Matches)
	if maxN <= 0 || maxN >= total {
		out := make([]Pair, 0, total)
		for i := 0; i < e.A.Len(); i++ {
			for j := 0; j < e.B.Len(); j++ {
				p := Pair{A: i, B: j}
				if !matchSet[p] {
					out = append(out, p)
				}
			}
		}
		return out
	}
	// Rejection-sample distinct non-matching pairs; the pair space is
	// vastly larger than both M and maxN in every real configuration.
	seen := make(map[Pair]bool, maxN)
	out := make([]Pair, 0, maxN)
	for len(out) < maxN {
		p := Pair{A: r.Intn(e.A.Len()), B: r.Intn(e.B.Len())}
		if matchSet[p] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Pi returns the matching probability π = |X+| / (|X+| + |X-|) given the
// number of non-matching vectors in play.
func (e *ER) Pi(nonMatching int) float64 {
	pos := len(e.Matches)
	if pos+nonMatching == 0 {
		return 0
	}
	return float64(pos) / float64(pos+nonMatching)
}

// Stats summarizes a dataset in the shape of the paper's Table II.
type Stats struct {
	SizeA, SizeB int
	Columns      int
	Matches      int
}

// Stats returns the dataset's Table II row.
func (e *ER) Stats() Stats {
	return Stats{SizeA: e.A.Len(), SizeB: e.B.Len(), Columns: e.Schema().Len(), Matches: len(e.Matches)}
}
