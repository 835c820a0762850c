package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"serd/internal/parallel"
	"serd/internal/simfn"
)

// oracleHardestNonMatches is the reference selection: score every distinct
// non-matching candidate with Schema.SimVector in candidate order, then
// sort.SliceStable by mean descending and keep the first n.
func oracleHardestNonMatches(e *ER, candidates []Pair, n int) []LabeledPair {
	matchSet := e.MatchSet()
	seen := make(map[Pair]bool)
	type scoredPair struct {
		lp   LabeledPair
		mean float64
	}
	var scored []scoredPair
	for _, p := range candidates {
		if matchSet[p] || seen[p] {
			continue
		}
		seen[p] = true
		x := e.Schema().SimVector(e.A.Entities[p.A], e.B.Entities[p.B])
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		scored = append(scored, scoredPair{lp: LabeledPair{Pair: p, Vector: x}, mean: mean / float64(len(x))})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].mean > scored[j].mean })
	if len(scored) > n {
		scored = scored[:n]
	}
	out := make([]LabeledPair, len(scored))
	for i, sp := range scored {
		out[i] = sp.lp
	}
	return out
}

// tiedER builds two 30-entity relations over a four-word vocabulary, so
// many pairs share a mean similarity exactly, with ten true matches.
func tiedER(t testing.TB) *ER {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "name", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "city", Kind: Categorical, Sim: simfn.Exact{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	words := []string{"alpha", "Alpha", "beta", "gamma"}
	rel := func(name string) *Relation {
		out := NewRelation(name, s)
		for i := 0; i < 30; i++ {
			v := []string{words[r.Intn(len(words))] + " " + words[r.Intn(len(words))], words[r.Intn(2)]}
			if err := out.Append(&Entity{ID: fmt.Sprintf("%s%d", name, i), Values: v}); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	var matches []Pair
	for i := 0; i < 10; i++ {
		matches = append(matches, Pair{A: i, B: 3 * i})
	}
	er, err := NewER(rel("a"), rel("b"), matches)
	if err != nil {
		t.Fatal(err)
	}
	return er
}

func sameLabeledPairs(t *testing.T, label string, got, want []LabeledPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || got[i].Match != want[i].Match || !sameBits(got[i].Vector, want[i].Vector) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHardestNonMatchesMatchesStableSortOracle pins the index stable sort
// and the pooled scoring to the sort.SliceStable reference on candidates
// with tied means, repeats and true matches, at several budgets and worker
// counts.
func TestHardestNonMatchesMatchesStableSortOracle(t *testing.T) {
	er := tiedER(t)
	r := rand.New(rand.NewSource(2))
	var cands []Pair
	for i := 0; i < er.A.Len(); i++ {
		for j := 0; j < er.B.Len(); j++ {
			cands = append(cands, Pair{A: i, B: j})
		}
	}
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	cands = append(cands, cands[:100]...) // repeats must be skipped
	cands = append(cands, er.Matches...)  // so must true matches
	for _, n := range []int{1, 7, 50, 400, len(cands)} {
		want := oracleHardestNonMatches(er, cands, n)
		sameLabeledPairs(t, fmt.Sprintf("n=%d nil pool", n), HardestNonMatches(er, cands, n, nil, nil), want)
		for _, workers := range []int{1, 2, 4} {
			got := HardestNonMatches(er, cands, n, NewSimCache(er.Schema()), parallel.New(workers, nil))
			sameLabeledPairs(t, fmt.Sprintf("n=%d workers=%d", n, workers), got, want)
		}
	}
}

// TestHardestNonMatchesCopiesKeptVectors checks that the kept vectors sit
// in one fresh n·dim array in rank order, not in the array every candidate
// was scored into — holding the result must not keep the rest alive.
func TestHardestNonMatchesCopiesKeptVectors(t *testing.T) {
	er := tiedER(t)
	cands := er.NonMatchingPairs(300, rand.New(rand.NewSource(5)))
	dim := er.Schema().Len()
	for _, n := range []int{1, 7, 50} {
		got := HardestNonMatches(er, cands, n, nil, nil)
		kept := unsafe.Slice(unsafe.SliceData(got[0].Vector), n*dim)
		for k, lp := range got {
			if unsafe.SliceData(lp.Vector) != &kept[k*dim] || cap(lp.Vector) != dim {
				t.Fatalf("n=%d: vector %d is not slot %d of one %d-float array", n, k, k, n*dim)
			}
		}
	}
}

// TestPairVectorsMatchSchemaAtAnyWorkerCount checks PairVectors against
// Schema.SimVector on a shared cache, serially and pooled.
func TestPairVectorsMatchSchemaAtAnyWorkerCount(t *testing.T) {
	er := tiedER(t)
	pairs := er.NonMatchingPairs(200, rand.New(rand.NewSource(4)))
	for _, pool := range []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(2, nil), parallel.New(4, nil)} {
		cache := NewSimCache(er.Schema())
		xs := er.PairVectors(pairs, cache, pool)
		again := er.PairVectors(pairs, cache, pool) // warm cache
		for i, p := range pairs {
			want := er.Schema().SimVector(er.A.Entities[p.A], er.B.Entities[p.B])
			if !sameBits(xs[i], want) || !sameBits(again[i], want) {
				t.Fatalf("workers=%d pair %v: %v / %v, want %v", pool.Workers(), p, xs[i], again[i], want)
			}
			if cap(xs[i]) != len(want) {
				t.Fatalf("vector %d has spare capacity %d; an append would clobber its neighbor", i, cap(xs[i]))
			}
		}
	}
}
