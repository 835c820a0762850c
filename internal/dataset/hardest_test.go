package dataset_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serd/internal/blocking"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/parallel"
	"serd/internal/simfn"
)

// blockedER generates a dataset and its default-blocker candidates, the
// input S1's hard-negative mining sees.
func blockedER(t testing.TB, gen func(datagen.Config) (*datagen.Generated, error), cfg datagen.Config) (*dataset.ER, []dataset.Pair) {
	t.Helper()
	g, err := gen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := blocking.CandidatesOn(nil, generator.DefaultBlocker(g.ER.Schema()), g.ER.A, g.ER.B)
	if err != nil {
		t.Fatal(err)
	}
	return g.ER, cands
}

// TestHardestNonMatchesPrunedMatchesFull pins the bound-pruned selection
// to the full stable-sort oracle on Products-, Restaurant- and
// Scholar-shaped relations with their default-blocker candidates, at
// budgets from 1 to every candidate and at several worker counts. On
// Products it also checks that pruning skipped most candidates, so a
// change that silently scores everything fails here.
func TestHardestNonMatchesPrunedMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(datagen.Config) (*datagen.Generated, error)
		cfg  datagen.Config
	}{
		{"products", datagen.Products, datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60}},
		{"restaurant", datagen.Restaurant, datagen.Config{Seed: 3, SizeA: 150, SizeB: 150, Matches: 45, BackgroundPerColumn: 60}},
		{"scholar", datagen.Scholar, datagen.Config{Seed: 2, SizeA: 150, SizeB: 150, Matches: 45, BackgroundPerColumn: 60}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			er, cands := blockedER(t, tc.gen, tc.cfg)
			total := len(dataset.UniquePairs(cands, er.Matches, er.A.Len(), er.B.Len()))
			// The oracle's first n entries are its answer for budget n.
			full := dataset.OracleHardestNonMatches(er, cands, total)
			hard := 2 * len(er.Matches)
			for _, pool := range []*parallel.Pool{nil, parallel.New(1, nil), parallel.New(2, nil), parallel.New(4, nil)} {
				pa, pb := er.Prep(pool)
				for _, n := range []int{1, hard, total - 1, total} {
					got, scored := dataset.HardestNonMatchesScored(er, cands, n, pa, pb, pool)
					sameLabeledPairs(t, fmt.Sprintf("n=%d workers=%d", n, pool.Workers()), got, full[:n])
					if n == hard && pool == nil {
						t.Logf("n=%d: scored %d of %d candidates in full", n, scored, total)
					}
					if tc.name == "products" && n == hard && 2*scored > total {
						t.Errorf("n=%d workers=%d: scored %d of %d candidates in full; pruning should skip most", n, pool.Workers(), scored, total)
					}
				}
			}
		})
	}
}

func sameLabeledPairs(t *testing.T, label string, got, want []dataset.LabeledPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || got[i].Match != want[i].Match || len(got[i].Vector) != len(want[i].Vector) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
		for c := range want[i].Vector {
			if math.Float64bits(got[i].Vector[c]) != math.Float64bits(want[i].Vector[c]) {
				t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}
}

var sinkPairs []dataset.LabeledPair

// BenchmarkHardestNonMatches selects hard negatives on two inputs. The
// 60×60 fixture scores every pair of two short-valued relations, prepping
// them each time: each entity recurs in 60 candidates, the reuse the
// positional preps serve. The Products case is S1's shape on perfbench's
// walmart-dp-durable input: 80×690 relations with long descriptions,
// default-blocker candidates, a 2·|M| budget and two workers; the preps
// and candidates are built once.
func BenchmarkHardestNonMatches(b *testing.B) {
	b.Run("fixture-60x60", func(b *testing.B) {
		er, cands := pairFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa, pb := er.Prep(nil)
			sinkPairs = dataset.HardestNonMatches(er, cands, 120, pa, pb, nil)
		}
	})
	b.Run("products-80x690-workers-2", func(b *testing.B) {
		er, cands := blockedER(b, datagen.Products, datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60})
		pool := parallel.New(2, nil)
		pa, pb := er.Prep(pool)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkPairs = dataset.HardestNonMatches(er, cands, 2*len(er.Matches), pa, pb, pool)
		}
	})
}

// pairFixture builds two 60-entity relations of random short words, two
// true matches, and every pair as a candidate.
func pairFixture(b *testing.B) (*dataset.ER, []dataset.Pair) {
	s, err := dataset.NewSchema([]dataset.Column{
		{Name: "name", Kind: dataset.Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "city", Kind: dataset.Categorical, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	word := func() string {
		w := make([]byte, 4+r.Intn(8))
		for i := range w {
			w[i] = byte('a' + r.Intn(26))
		}
		return string(w)
	}
	rel := func(name string) *dataset.Relation {
		out := dataset.NewRelation(name, s)
		for i := 0; i < 60; i++ {
			if err := out.Append(&dataset.Entity{ID: fmt.Sprintf("%s%d", name, i), Values: []string{word() + " " + word(), word()}}); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	er, err := dataset.NewER(rel("a"), rel("b"), []dataset.Pair{{0, 0}, {1, 1}})
	if err != nil {
		b.Fatal(err)
	}
	var cands []dataset.Pair
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			cands = append(cands, dataset.Pair{A: i, B: j})
		}
	}
	return er, cands
}
