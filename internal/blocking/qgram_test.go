package blocking

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/simfn"
)

// oracleQGramCandidates is the string-keyed reference implementation of
// QGram.Candidates: a map[string][]int index over simfn.QGrams of the
// lower-cased values, per-entity overlap counts in a map, and a
// count-descending, index-ascending sort.Slice truncation. The dense
// blocker must reproduce its pair list exactly.
func oracleQGramCandidates(g QGram, a, b *dataset.Relation) []dataset.Pair {
	d := g.defaults()
	index := make(map[string][]int)
	for j, e := range b.Entities {
		for gram := range simfn.QGrams(strings.ToLower(e.Values[d.Column]), d.Q) {
			index[gram] = append(index[gram], j)
		}
	}
	var out []dataset.Pair
	shared := make(map[int]int)
	for i, e := range a.Entities {
		clear(shared)
		for gram := range simfn.QGrams(strings.ToLower(e.Values[d.Column]), d.Q) {
			for _, j := range index[gram] {
				shared[j]++
			}
		}
		cands := make([]int, 0, len(shared))
		for j, n := range shared {
			if n >= d.MinShared {
				cands = append(cands, j)
			}
		}
		if len(cands) > d.MaxPerEntity {
			sort.Slice(cands, func(x, y int) bool {
				if shared[cands[x]] != shared[cands[y]] {
					return shared[cands[x]] > shared[cands[y]]
				}
				return cands[x] < cands[y]
			})
			cands = cands[:d.MaxPerEntity]
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

func TestQGramMatchesOracleOnFixture(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	for _, q := range []int{1, 2, 3, 4, 5} {
		for _, minShared := range []int{1, 2, 3} {
			for _, maxPer := range []int{1, 3, 6, 64} {
				bl := QGram{Column: col, Q: q, MinShared: minShared, MaxPerEntity: maxPer}
				got := mustCands(t, bl, g.ER.A, g.ER.B)
				if want := oracleQGramCandidates(bl, g.ER.A, g.ER.B); !slices.Equal(got, want) {
					t.Fatalf("%s: %d pairs, oracle %d (first difference at %d)", bl.Describe(), len(got), len(want), firstDiff(got, want))
				}
			}
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

// FuzzQGramCandidates differentially checks the dense q-gram blocker
// against the string-keyed oracle. Each input string is split on '|' into
// one relation's key values; Q, MinShared and MaxPerEntity sweep small
// ranges so the MaxPerEntity cut lands on ties.
func FuzzQGramCandidates(f *testing.F) {
	seeds := []struct{ a, b string }{
		{"Apple iPad|apple ipad 2|APPLE", "apple ipad|Apple iPad Air|ipad|pad"},
		{"ÀÉ|àé|ÀÉÎ", "àé|ÀÉ|àéî|aei"},
		{"İstanbul|istanbul", "i̇stanbul|İSTANBUL|stanbul"},
		{"ab\xffcd|\xff\xfe|caf\xc3", "ab\uFFFDcd|\uFFFD\uFFFD|café|CAF\xc3"},
		{"|a||ab", "a|ab||abc|"},
		{"aaaa|abab|abcabc", "aa|aaa|ab|ba|abc|cab|bca"},
		{"x|y|z", "x|x|y|y|z|z|xyz"},
	}
	for _, s := range seeds {
		for q := uint8(0); q < 5; q++ {
			f.Add(s.a, s.b, q, uint8(q%3), uint8(q))
		}
	}
	f.Fuzz(func(t *testing.T, as, bs string, q, minShared, maxPer uint8) {
		a := oneColumn(t, "A", strings.Split(as, "|"))
		b := oneColumn(t, "B", strings.Split(bs, "|"))
		bl := QGram{Q: 1 + int(q%5), MinShared: 1 + int(minShared%3), MaxPerEntity: 1 + int(maxPer%6)}
		got, err := bl.Candidates(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleQGramCandidates(bl, a, b); !slices.Equal(got, want) {
			t.Fatalf("%s on A=%q B=%q:\n got %v\nwant %v", bl.Describe(), as, bs, got, want)
		}
	})
}

// BenchmarkQGramCandidates blocks Products-shaped relations (80 × 690) on
// the long description column — the hard-negative mining pass of a
// Walmart-Amazon S1 fit.
func BenchmarkQGramCandidates(b *testing.B) {
	gen, err := datagen.Products(datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	bl := QGram{Column: gen.ER.Schema().ColumnIndex("descr")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := bl.Candidates(gen.ER.A, gen.ER.B)
		if err != nil {
			b.Fatal(err)
		}
		sinkPairs = cands
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := bl.Candidates(gen.ER.A, gen.ER.B)
		if err != nil {
			b.Fatal(err)
		}
		sinkPairs = cands
	}
}
