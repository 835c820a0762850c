package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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
	pa, pb := er.Prep(nil)
	for _, n := range []int{1, 7, 50, 400, len(cands)} {
		want := oracleHardestNonMatches(er, cands, n)
		sameLabeledPairs(t, fmt.Sprintf("n=%d nil pool", n), HardestNonMatches(er, cands, n, pa, pb, nil), want)
		for _, workers := range []int{1, 2, 4} {
			pool := parallel.New(workers, nil)
			pa, pb := er.Prep(pool)
			got := HardestNonMatches(er, cands, n, pa, pb, pool)
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
	pa, pb := er.Prep(nil)
	for _, n := range []int{1, 7, 50} {
		got := HardestNonMatches(er, cands, n, pa, pb, nil)
		kept := unsafe.Slice(unsafe.SliceData(got[0].Vector), n*dim)
		for k, lp := range got {
			if unsafe.SliceData(lp.Vector) != &kept[k*dim] || cap(lp.Vector) != dim {
				t.Fatalf("n=%d: vector %d is not slot %d of one %d-float array", n, k, k, n*dim)
			}
		}
	}
}

// TestPairVectorsMatchSchemaAtAnyWorkerCount checks PairVectors against
// Schema.SimVector on preps built and read serially and pooled.
func TestPairVectorsMatchSchemaAtAnyWorkerCount(t *testing.T) {
	er := tiedER(t)
	pairs := er.NonMatchingPairs(200, rand.New(rand.NewSource(4)))
	for _, pool := range []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(2, nil), parallel.New(4, nil)} {
		pa, pb := er.Prep(pool)
		xs := PairVectors(pairs, pa, pb, pool)
		again := PairVectors(pairs, pa, pb, pool) // preps are read-only
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

// nanSim is a non-Preprocessor similarity that breaks the [0, 1]
// contract: it scores NaN whenever either value is "?", so candidate
// means can be NaN, where the stable sort's comparator is no strict order.
type nanSim struct{}

func (nanSim) Name() string { return "nan" }

func (nanSim) Sim(a, b string) float64 {
	switch {
	case a == "?" || b == "?":
		return math.NaN()
	case a == b:
		return 1
	}
	return 0
}

// FuzzHardestNonMatches pins HardestNonMatches' bound pruning and
// select-then-sort to the full stable-sort oracle. Each '|'-separated
// field of as and bs is one entity's value in a 2-gram column and a
// NaN-capable exact column; a 3-gram column holds the value repeated 0–2
// times by entity index, plus the index, so either q-gram column can be
// the larger and so the bounded one. Byte pairs of cands and matches
// index candidate and match pairs, so inputs carry repeats, true matches
// among the candidates, equal means (few distinct values), NaN means
// ("?", which disables pruning) and budgets n at and past the candidate
// count.
func FuzzHardestNonMatches(f *testing.F) {
	f.Add("ab|abc|?|ab", "ab|abd|b|?|ab", []byte{0, 0, 1, 1, 0, 0, 2, 3, 3, 4, 1, 2, 0, 4}, []byte{1, 1}, uint8(3))
	f.Add("x|x|x|x", "x|x|x", []byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 0, 0, 1}, []byte{0, 0}, uint8(2))
	f.Add("new york|york|?", "york new|new|yorkshire", []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2}, []byte{}, uint8(40))
	f.Add("caf\xc3|café|CAFÉ", "café|caf|\xff", []byte{0, 1, 1, 0, 2, 2, 0, 1, 2, 0}, []byte{2, 2, 0, 1}, uint8(1))
	// Every pair of six distinct values, budget 3: most pairs are pruned.
	f.Add("alpha|alphabet|beta|gamma|delta|epsilon", "alphabet|alpha|bet|gamm|delt|eps", []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5, 5, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5}, []byte{0, 1}, uint8(3))
	f.Add("ab|cd", "ab|cd", []byte{0, 1, 1, 0}, []byte{}, uint8(2)) // budget = candidate count
	f.Fuzz(func(t *testing.T, as, bs string, cands, matches []byte, n uint8) {
		s, err := NewSchema([]Column{
			{Name: "name", Kind: Textual, Sim: simfn.QGramJaccard{Q: 2, Fold: true}},
			{Name: "flag", Kind: Categorical, Sim: nanSim{}},
			{Name: "descr", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := func(name, vals string) *Relation {
			out := NewRelation(name, s)
			for i, v := range strings.Split(vals, "|") {
				if i == 16 {
					break
				}
				descr := strings.Repeat(v, i%3) + fmt.Sprint(i)
				if err := out.Append(&Entity{ID: fmt.Sprint(name, i), Values: []string{v, v, descr}}); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		a, b := rel("a", as), rel("b", bs)
		pairs := func(bs []byte) []Pair {
			var out []Pair
			for k := 0; k+1 < len(bs) && k < 512; k += 2 {
				out = append(out, Pair{A: int(bs[k]) % a.Len(), B: int(bs[k+1]) % b.Len()})
			}
			return out
		}
		er, err := NewER(a, b, pairs(matches))
		if err != nil {
			t.Fatal(err)
		}
		cs := pairs(cands)
		budget := int(n) % (len(cs) + 3)
		want := oracleHardestNonMatches(er, cs, budget)
		for _, pool := range []*parallel.Pool{nil, parallel.New(2, nil)} {
			pa, pb := er.Prep(pool)
			sameLabeledPairs(t, fmt.Sprintf("n=%d workers=%d", budget, pool.Workers()), HardestNonMatches(er, cs, budget, pa, pb, pool), want)
		}
	})
}

// TestUniquePairsMatchesMapOracle checks the hash-free deduplication
// against a map of seen pairs, seeded with the excluded ones, on random
// pair lists dense in repeats.
func TestUniquePairsMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		nA, nB := 1+r.Intn(9), 1+r.Intn(9)
		gen := func(n int) []Pair {
			out := make([]Pair, n)
			for i := range out {
				out[i] = Pair{A: r.Intn(nA), B: r.Intn(nB)}
			}
			return out
		}
		ps, exclude := gen(r.Intn(80)), gen(r.Intn(6))
		seen := make(map[Pair]bool)
		for _, p := range exclude {
			seen[p] = true
		}
		want := []Pair{}
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				want = append(want, p)
			}
		}
		if got := UniquePairs(ps, exclude, nA, nB); !slices.Equal(got, want) {
			t.Fatalf("UniquePairs(%v, exclude %v) = %v, want %v", ps, exclude, got, want)
		}
	}
}
