package dataset

import (
	"fmt"
	"math/rand"

	"serd/internal/parallel"
)

// Pair addresses an (A-entity, B-entity) pair by index.
type Pair struct {
	A, B int
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
// pairs (paper §II-B). Each value is prepped once (see SimCache).
func (e *ER) MatchingVectors() [][]float64 {
	return e.PairVectors(e.Matches, nil, nil)
}

// NonMatchingVectors computes up to maxN similarity vectors of
// non-matching pairs (X−). If maxN <= 0 or maxN exceeds |N|, all
// non-matching pairs are used; otherwise a uniform sample without
// replacement is drawn with r. Sampling keeps the quadratic pair space
// tractable for the larger datasets, exactly as ER systems do in practice.
// Each value is prepped once (see SimCache).
func (e *ER) NonMatchingVectors(maxN int, r *rand.Rand) [][]float64 {
	return e.PairVectors(e.NonMatchingPairs(maxN, r), nil, nil)
}

// PairVectors computes the similarity vectors of pairs, in pair order,
// through cache (nil builds a fresh one). With a pool the pairs are scored
// in parallel under the "generator.vectors" phase — S1's learning vectors
// are the pooled caller — into index-addressed slots, so the result is
// bit-identical at any worker count. The vectors share one backing array,
// each capped at its own length.
func (e *ER) PairVectors(pairs []Pair, cache *SimCache, pool *parallel.Pool) [][]float64 {
	if cache == nil {
		cache = NewSimCache(e.Schema())
	}
	dim := e.Schema().Len()
	flat := make([]float64, len(pairs)*dim)
	out := make([][]float64, len(pairs))
	pool.Run("generator.vectors", len(pairs), func(i int) {
		p := pairs[i]
		out[i] = cache.simVectorInto(flat[i*dim:(i+1)*dim:(i+1)*dim], e.A.Entities[p.A], e.B.Entities[p.B])
	})
	return out
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
