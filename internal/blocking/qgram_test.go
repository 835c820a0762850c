package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/parallel"
	"serd/internal/simfn"
)

// oracleQGramCandidates is the string-keyed reference implementation of
// the q-gram blocker on key column col under cut c: a map[string][]int
// index over simfn.QGrams of the lower-cased values, per-entity overlap
// counts in a map, and a count-descending, index-ascending sort.Slice
// truncation. The dense blocker must reproduce its pair list exactly.
func oracleQGramCandidates(col int, c qgramCut, a, b *dataset.Relation) []dataset.Pair {
	index := make(map[string][]int)
	for j, e := range b.Entities {
		for gram := range simfn.QGrams(strings.ToLower(e.Values[col]), gramQ) {
			index[gram] = append(index[gram], j)
		}
	}
	var out []dataset.Pair
	shared := make(map[int]int)
	for i, e := range a.Entities {
		clear(shared)
		for gram := range simfn.QGrams(strings.ToLower(e.Values[col]), gramQ) {
			for _, j := range index[gram] {
				shared[j]++
			}
		}
		cands := make([]int, 0, len(shared))
		for j, n := range shared {
			if n >= c.minShared {
				cands = append(cands, j)
			}
		}
		if len(cands) > c.max {
			sort.Slice(cands, func(x, y int) bool {
				if shared[cands[x]] != shared[cands[y]] {
					return shared[cands[x]] > shared[cands[y]]
				}
				return cands[x] < cands[y]
			})
			cands = cands[:c.max]
		}
		sort.Ints(cands)
		for _, j := range cands {
			out = append(out, dataset.Pair{A: i, B: j})
		}
	}
	return out
}

// oneColumn builds a single-column relation over values.
func oneColumn(t testing.TB, name string, values []string) *dataset.Relation {
	t.Helper()
	schema, err := dataset.NewSchema([]dataset.Column{{Name: "key", Kind: dataset.Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rel := dataset.NewRelation(name, schema)
	for i, v := range values {
		if err := rel.Append(&dataset.Entity{ID: name + strconv.Itoa(i), Values: []string{v}}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// testPools are the pool widths the pooled entry point is checked at:
// nil, one worker, and chunked probes at two and four.
var testPools = []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(2, nil), parallel.New(4, nil)}

// mustCutOn is the q-gram blocker's candidates on key column col under
// cut c, serial when pool is nil.
func mustCutOn(t *testing.T, pool *parallel.Pool, col int, c qgramCut, a, b *dataset.Relation) []dataset.Pair {
	t.Helper()
	cands, err := c.candidatesOn(pool, col, a, b)
	if err != nil {
		t.Fatalf("cut %+v at %d workers: %v", c, pool.Workers(), err)
	}
	return cands
}

// mustCandsOn is mustCands through CandidatesOn.
func mustCandsOn(t *testing.T, pool *parallel.Pool, bl Blocker, a, b *dataset.Relation) []dataset.Pair {
	t.Helper()
	cands, err := CandidatesOn(pool, bl, a, b)
	if err != nil {
		t.Fatalf("%s at %d workers: %v", bl.Describe(), pool.Workers(), err)
	}
	return cands
}

// foldFixture rewrites the fixture's key values so that folding matters
// beyond ASCII: every third value is upper-cased behind an upper-case
// non-ASCII prefix, and every fifth carries invalid UTF-8 bytes, which
// strings.ToLower rewrites to U+FFFD.
func foldFixture(t *testing.T, g *datagen.Generated, col int) (a, b *dataset.Relation) {
	t.Helper()
	values := func(rel *dataset.Relation) []string {
		out := make([]string, rel.Len())
		for i, e := range rel.Entities {
			v := e.Values[col]
			if i%3 == 0 {
				v = "ÀÉÎ " + strings.ToUpper(v)
			}
			if i%5 == 0 && len(v) > 2 {
				v = v[:2] + "\xff\xfe" + v[2:] + "\xc3"
			}
			out[i] = v
		}
		return out
	}
	return oneColumn(t, "A", values(g.ER.A)), oneColumn(t, "B", values(g.ER.B))
}

// sparseFixture builds relations whose values share few grams: B holds
// 600 random six-letter words, A 80 words of which every other one is a
// B word with one letter changed. Each A value's posting lists then sum
// to far fewer than |B| entries, so the probe tracks the B entities it
// touches instead of sweeping every counter.
func sparseFixture(t *testing.T) (a, b *dataset.Relation) {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	word := func() []byte {
		w := make([]byte, 6)
		for i := range w {
			w[i] = byte('a' + r.Intn(26))
		}
		return w
	}
	bv := make([]string, 600)
	for j := range bv {
		bv[j] = string(word())
	}
	av := make([]string, 80)
	for i := range av {
		w := word()
		if i%2 == 0 {
			w = []byte(bv[r.Intn(len(bv))])
			w[r.Intn(len(w))] = byte('A' + r.Intn(26))
		}
		av[i] = string(w)
	}
	return oneColumn(t, "A", av), oneColumn(t, "B", bv)
}

func TestQGramMatchesOracleOnFixture(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	fa, fb := foldFixture(t, g, col)
	sa, sb := sparseFixture(t)
	for _, rel := range []struct {
		name string
		col  int
		a, b *dataset.Relation
	}{{"fixture", col, g.ER.A, g.ER.B}, {"folded", 0, fa, fb}, {"sparse", 0, sa, sb}} {
		for _, minShared := range []int{1, 2, 3} {
			for _, maxPer := range []int{1, 3, 6, gramMaxPer} {
				c := qgramCut{minShared: minShared, max: maxPer}
				want := oracleQGramCandidates(rel.col, c, rel.a, rel.b)
				for _, pool := range testPools {
					if got := mustCutOn(t, pool, rel.col, c, rel.a, rel.b); !slices.Equal(got, want) {
						t.Fatalf("%s cut %+v at %d workers: %d pairs, oracle %d (first difference at %d)", rel.name, c, pool.Workers(), len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
		bl := QGram{Column: rel.col}
		want := oracleQGramCandidates(rel.col, qgramCut{minShared: gramMinShared, max: gramMaxPer}, rel.a, rel.b)
		if got := mustCands(t, bl, rel.a, rel.b); !slices.Equal(got, want) {
			t.Fatalf("%s %s: %d pairs, oracle %d (first difference at %d)", rel.name, bl.Describe(), len(got), len(want), firstDiff(got, want))
		}
		for _, pool := range testPools {
			if got := mustCandsOn(t, pool, bl, rel.a, rel.b); !slices.Equal(got, want) {
				t.Fatalf("%s %s at %d workers: %d pairs, oracle %d (first difference at %d)", rel.name, bl.Describe(), pool.Workers(), len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// TestUnionCandidatesOnMatchesSerial checks a pooled Union — q-gram
// members on two columns, next to members without a pooled path —
// against the serial one, pair for pair and in order.
func TestUnionCandidatesOnMatchesSerial(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	u := Union{QGram{Column: col}, Token{Column: col}, SortedNeighborhood{Column: col}, QGram{Column: 0}}
	want := mustCands(t, u, g.ER.A, g.ER.B)
	for _, pool := range testPools {
		if got := mustCandsOn(t, pool, u, g.ER.A, g.ER.B); !slices.Equal(got, want) {
			t.Fatalf("%d workers: %d pairs, serial %d (first difference at %d)", pool.Workers(), len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestCandidatesOnReportsErrors checks that the pooled path validates
// like Candidates, and that a blocker without a pooled path is called.
func TestCandidatesOnReportsErrors(t *testing.T) {
	g := fixture(t)
	pool := parallel.New(2, nil)
	for _, bl := range []Blocker{QGram{Column: 99}, Union{Token{}, QGram{Column: 99}}, Token{Column: 99}} {
		if _, err := CandidatesOn(pool, bl, g.ER.A, g.ER.B); err == nil {
			t.Errorf("%s: no error", bl.Describe())
		}
	}
}

func firstDiff(a, b []dataset.Pair) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzQGramCandidates differentially checks the dense q-gram blocker,
// serial and at every test pool width, against the string-keyed oracle.
// Each input string is split on '|' into one relation's key values; the
// cut's minShared and max sweep small ranges so that it lands on ties.
func FuzzQGramCandidates(f *testing.F) {
	seeds := []struct{ a, b string }{
		{"Apple iPad|apple ipad 2|APPLE", "apple ipad|Apple iPad Air|ipad|pad"},
		{"ÀÉ|àé|ÀÉÎ", "àé|ÀÉ|àéî|aei"},
		{"İstanbul|istanbul", "i̇stanbul|İSTANBUL|stanbul"},
		{"ΣΑΣ|σας|ΣΟΦΙΑ", "σας|Σας|σοφια|ΣΟΦΊΑ"},
		{"ab\xffcd|\xff\xfe|caf\xc3", "ab\uFFFDcd|\uFFFD\uFFFD|café|CAF\xc3"},
		{"|a||ab", "a|ab||abc|"},
		{"aaaa|abab|abcabc", "aa|aaa|ab|ba|abc|cab|bca"},
		{"x|y|z", "x|x|y|y|z|z|xyz"},
		{"q|r|s|t|u|v", "q|r|s|t|u|v|qr|rs"},
	}
	for _, s := range seeds {
		for k := uint8(0); k < 5; k++ {
			f.Add(s.a, s.b, k%3, k)
		}
	}
	f.Fuzz(func(t *testing.T, as, bs string, minShared, maxPer uint8) {
		a := oneColumn(t, "A", strings.Split(as, "|"))
		b := oneColumn(t, "B", strings.Split(bs, "|"))
		c := qgramCut{minShared: 1 + int(minShared%3), max: 1 + int(maxPer%6)}
		want := oracleQGramCandidates(0, c, a, b)
		for _, pool := range testPools {
			if got := mustCutOn(t, pool, 0, c, a, b); !slices.Equal(got, want) {
				t.Fatalf("cut %+v at %d workers on A=%q B=%q:\n got %v\nwant %v", c, pool.Workers(), as, bs, got, want)
			}
		}
	})
}

// benchWorkers are the pool widths the blocker benchmarks run at.
var benchWorkers = []int{1, 2}

// BenchmarkQGramCandidates blocks Products-shaped relations (80 × 690) on
// the long description column — the hard-negative mining pass of a
// Walmart-Amazon S1 fit — through CandidatesOn at each bench pool width.
func BenchmarkQGramCandidates(b *testing.B) {
	gen, err := datagen.Products(datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	benchCandidatesOn(b, QGram{Column: gen.ER.Schema().ColumnIndex("descr")}, gen.ER)
}

var sinkPairs []dataset.Pair

// BenchmarkUnionCandidates runs S1's default hard-negative blocker — a
// union of q-gram blockers over every textual column — on Products-shaped
// relations (80 × 690), so the members' overlap exercises the union's
// deduplication.
func BenchmarkUnionCandidates(b *testing.B) {
	gen, err := datagen.Products(datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	var bl Union
	for i, col := range gen.ER.Schema().Cols {
		if col.Kind == dataset.Textual {
			bl = append(bl, QGram{Column: i})
		}
	}
	benchCandidatesOn(b, bl, gen.ER)
}

func benchCandidatesOn(b *testing.B, bl Blocker, e *dataset.ER) {
	for _, w := range benchWorkers {
		pool := parallel.New(w, nil)
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands, err := CandidatesOn(pool, bl, e.A, e.B)
				if err != nil {
					b.Fatal(err)
				}
				sinkPairs = cands
			}
		})
	}
}
