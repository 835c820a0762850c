package dataset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"serd/internal/simfn"
)

// TestSimCacheMatchesSchemaSimVector is the cache's correctness contract:
// cached vectors must equal uncached ones bit for bit, on every pairing.
func TestSimCacheMatchesSchemaSimVector(t *testing.T) {
	er := paperER(t)
	cache := NewSimCache(er.Schema())
	for _, ea := range er.A.Entities {
		for _, eb := range er.B.Entities {
			want := er.Schema().SimVector(ea, eb)
			got := cache.SimVector(ea, eb)
			if len(got) != len(want) {
				t.Fatalf("vector length %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("pair (%s, %s) col %d: cached %v != uncached %v", ea.ID, eb.ID, i, got[i], want[i])
				}
			}
			// Second call hits the prep cache; it must not drift.
			again := cache.SimVector(ea, eb)
			for i := range want {
				if again[i] != want[i] {
					t.Errorf("pair (%s, %s) col %d: second call drifted to %v", ea.ID, eb.ID, i, again[i])
				}
			}
		}
	}
}

// TestSimCacheConcurrent exercises the cache from many goroutines — the
// S2/S3 pools call SimVector concurrently — and is meaningful under -race.
func TestSimCacheConcurrent(t *testing.T) {
	er := paperER(t)
	cache := NewSimCache(er.Schema())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, ea := range er.A.Entities {
					for _, eb := range er.B.Entities {
						want := er.Schema().SimVector(ea, eb)
						got := cache.SimVector(ea, eb)
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("concurrent col %d: %v != %v", i, got[i], want[i])
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

var sinkPairs []LabeledPair

// BenchmarkHardestNonMatches scores every pair of a 60×60 relation: each
// entity recurs in 60 candidates, the reuse the per-call SimCache serves.
func BenchmarkHardestNonMatches(b *testing.B) {
	s, err := NewSchema([]Column{
		{Name: "name", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "city", Kind: Categorical, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
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
	rel := func(name string) *Relation {
		out := NewRelation(name, s)
		for i := 0; i < 60; i++ {
			if err := out.Append(&Entity{ID: fmt.Sprintf("%s%d", name, i), Values: []string{word() + " " + word(), word()}}); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	er, err := NewER(rel("a"), rel("b"), []Pair{{0, 0}, {1, 1}})
	if err != nil {
		b.Fatal(err)
	}
	var cands []Pair
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			cands = append(cands, Pair{A: i, B: j})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = HardestNonMatches(er, cands, 120, nil, nil)
	}
}
