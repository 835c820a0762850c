// Package blocking implements candidate-pair generation for entity
// resolution: instead of scoring the full |A|×|B| pair space, a blocker
// proposes a candidate set that covers (almost) all true matches at a
// fraction of the cost. The paper's pipeline labels all pairs in S3, which
// is quadratic; blocking makes the synthesized-dataset labeling and the
// matcher workloads scale to the paper's larger configurations
// (Walmart-Amazon's 22k-row B-side).
package blocking

import (
	"fmt"
	"sort"
	"strings"

	"serd/internal/dataset"
	"serd/internal/parallel"
)

// Blocker proposes candidate pairs between two relations.
type Blocker interface {
	// Candidates returns candidate pairs, each at most once. A key column
	// outside the relations' schema is reported as an error naming the
	// blocker and column, rather than panicking deep inside S3.
	Candidates(a, b *dataset.Relation) ([]dataset.Pair, error)
	// Describe names the blocker and its resolved parameters — the string
	// journaled as the blocking configuration in audit trails.
	Describe() string
}

// CandidatesOn returns bl's candidates between a and b, probing A in
// contiguous chunks on pool's workers where bl can: a QGram, and each QGram
// member of a Union. The pairs, and their order, are bl.Candidates(a, b)'s
// at any worker count. A nil or one-worker pool runs on the caller, and any
// other blocker is called as bl.Candidates(a, b).
func CandidatesOn(pool *parallel.Pool, bl Blocker, a, b *dataset.Relation) ([]dataset.Pair, error) {
	if pb, ok := bl.(pooledBlocker); ok {
		return pb.candidatesOn(pool, a, b)
	}
	return bl.Candidates(a, b)
}

// pooledBlocker is a Blocker that can spread its work over a pool.
type pooledBlocker interface {
	candidatesOn(pool *parallel.Pool, a, b *dataset.Relation) ([]dataset.Pair, error)
}

// checkColumn validates a blocker's key column against both relations'
// schemas before any entity value is indexed.
func checkColumn(blocker string, col int, a, b *dataset.Relation) error {
	for _, rel := range [...]*dataset.Relation{a, b} {
		if n := rel.Schema.Len(); col < 0 || col >= n {
			return fmt.Errorf("blocking: %s blocker: key column %d out of range for relation %q (%d columns)", blocker, col, rel.Name, n)
		}
	}
	return nil
}

// The blockers' parameters. Each Describe string records the ones its
// blocker uses, so a journal names the exact blocker that ran.
const (
	// gramQ is the q-gram blocker's gram size.
	gramQ = 3
	// gramMinShared is how many distinct grams a pair must share to be a
	// q-gram candidate.
	gramMinShared = 2
	// gramMaxPer caps the q-gram candidates of one A-entity, keeping
	// frequent grams from exploding the candidate set.
	gramMaxPer = 64
	// tokenMaxPer is the token blocker's stop-word guard: a token found in
	// more than this many B-entities proposes no pairs.
	tokenMaxPer = 50
	// snWindow is the sorted neighborhood's half-width.
	snWindow = 5
)

// Token blocks on shared lower-cased tokens of one key column, skipping
// tokens found in more than tokenMaxPer B-entities.
type Token struct {
	// Column is the key column index.
	Column int
}

// Describe implements Blocker.
func (t Token) Describe() string {
	return fmt.Sprintf("token(col=%d,max_per_token=%d)", t.Column, tokenMaxPer)
}

// Candidates implements Blocker.
func (t Token) Candidates(a, b *dataset.Relation) ([]dataset.Pair, error) {
	if err := checkColumn("token", t.Column, a, b); err != nil {
		return nil, err
	}
	index := make(map[string][]int)
	for j, e := range b.Entities {
		for _, tok := range strings.Fields(strings.ToLower(e.Values[t.Column])) {
			index[tok] = append(index[tok], j)
		}
	}
	var out []dataset.Pair
	seen := make(map[int]bool)
	for i, e := range a.Entities {
		clear(seen)
		for _, tok := range strings.Fields(strings.ToLower(e.Values[t.Column])) {
			js := index[tok]
			if len(js) > tokenMaxPer {
				continue // stop word
			}
			for _, j := range js {
				if !seen[j] {
					seen[j] = true
					out = append(out, dataset.Pair{A: i, B: j})
				}
			}
		}
	}
	return out, nil
}

// SortedNeighborhood sorts both relations by a key column and pairs
// entities whose rank distance is within snWindow — the classic
// sorted-neighborhood method.
type SortedNeighborhood struct {
	// Column is the key column index.
	Column int
}

// Describe implements Blocker.
func (s SortedNeighborhood) Describe() string {
	return fmt.Sprintf("sn(col=%d,window=%d)", s.Column, snWindow)
}

// Candidates implements Blocker.
func (s SortedNeighborhood) Candidates(a, b *dataset.Relation) ([]dataset.Pair, error) {
	if err := checkColumn("sorted-neighborhood", s.Column, a, b); err != nil {
		return nil, err
	}
	type keyed struct {
		key  string
		idx  int
		side int // 0 = A, 1 = B
	}
	all := make([]keyed, 0, a.Len()+b.Len())
	for i, e := range a.Entities {
		all = append(all, keyed{key: strings.ToLower(e.Values[s.Column]), idx: i, side: 0})
	}
	for j, e := range b.Entities {
		all = append(all, keyed{key: strings.ToLower(e.Values[s.Column]), idx: j, side: 1})
	}
	sort.SliceStable(all, func(x, y int) bool { return all[x].key < all[y].key })
	seen := make(map[dataset.Pair]bool)
	var out []dataset.Pair
	for x := range all {
		for y := x + 1; y < len(all) && y <= x+snWindow; y++ {
			if all[x].side == all[y].side {
				continue
			}
			p := dataset.Pair{A: all[x].idx, B: all[y].idx}
			if all[x].side == 1 {
				p = dataset.Pair{A: all[y].idx, B: all[x].idx}
			}
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// Union combines blockers, deduplicating candidates — the usual way to
// recover matches a single key misses.
type Union []Blocker

// Describe implements Blocker.
func (u Union) Describe() string {
	parts := make([]string, len(u))
	for i, bl := range u {
		parts[i] = bl.Describe()
	}
	return "union(" + strings.Join(parts, ",") + ")"
}

// Candidates implements Blocker. Members run in declaration order and the
// first occurrence of each pair wins, so the union's candidate order is
// deterministic for a fixed member list. Repeats are dropped once, over
// the members' concatenated output (see dataset.UniquePairs).
func (u Union) Candidates(a, b *dataset.Relation) ([]dataset.Pair, error) {
	return u.candidatesOn(nil, a, b)
}

// candidatesOn is Candidates with each member run through CandidatesOn.
func (u Union) candidatesOn(pool *parallel.Pool, a, b *dataset.Relation) ([]dataset.Pair, error) {
	var all []dataset.Pair
	for _, bl := range u {
		cands, err := CandidatesOn(pool, bl, a, b)
		if err != nil {
			return nil, err
		}
		all = append(all, cands...)
	}
	return dataset.UniquePairs(all, nil, a.Len(), b.Len()), nil
}

// Quality reports how well a candidate set covers the truth.
type Quality struct {
	// Recall is the fraction of true matches present in the candidates
	// (pair completeness).
	Recall float64
	// ReductionRatio is 1 − |candidates| / (|A|·|B|).
	ReductionRatio float64
	// Candidates is the candidate count.
	Candidates int
}

// Evaluate measures a candidate set against a labeled dataset.
func Evaluate(e *dataset.ER, candidates []dataset.Pair) Quality {
	set := make(map[dataset.Pair]bool, len(candidates))
	for _, p := range candidates {
		set[p] = true
	}
	hit := 0
	for _, m := range e.Matches {
		if set[m] {
			hit++
		}
	}
	return EvaluateCounts(e.A.Len(), e.B.Len(), len(e.Matches), hit, len(candidates))
}

// EvaluateCounts computes blocking quality from counts alone. The pair
// space lenA·lenB is accumulated in float64: integer multiplication wraps
// once the product passes the int range (a 1M×1M run already exceeds
// 32-bit int; larger relations exceed 64-bit), which silently produced a
// negative pair space and a reduction ratio above 1.
func EvaluateCounts(lenA, lenB, matches, hits, candidates int) Quality {
	recall := 0.0
	if matches > 0 {
		recall = float64(hits) / float64(matches)
	}
	total := float64(lenA) * float64(lenB)
	rr := 0.0
	if total > 0 {
		rr = 1 - float64(candidates)/total
	}
	return Quality{Recall: recall, ReductionRatio: rr, Candidates: candidates}
}
