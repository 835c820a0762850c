package core

import (
	"context"
	"math/rand"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
)

// benchFixture mirrors fixture for benchmarks (which get no *testing.T).
func benchFixture() (*datagen.Generated, error) {
	return datagen.Scholar(datagen.Config{Seed: 1, SizeA: 60, SizeB: 60, Matches: 25, BackgroundPerColumn: 80})
}

func TestPartialPermDistinctAndInRange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(200)
		k := 1 + r.Intn(n)
		got := partialPerm(r, n, k)
		if len(got) != k {
			t.Fatalf("n=%d k=%d: got %d indices", n, k, len(got))
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("n=%d k=%d: index %d out of range", n, k, v)
			}
			if seen[v] {
				t.Fatalf("n=%d k=%d: duplicate index %d", n, k, v)
			}
			seen[v] = true
		}
	}
}

func TestPartialPermDeterministicAndUniform(t *testing.T) {
	a := partialPerm(rand.New(rand.NewSource(3)), 100, 10)
	b := partialPerm(rand.New(rand.NewSource(3)), 100, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Coarse uniformity: over many draws of 5-of-20, every index appears.
	counts := make([]int, 20)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		for _, v := range partialPerm(r, 20, 5) {
			counts[v]++
		}
	}
	// Expected 500 hits each; flag anything wildly skewed.
	for i, c := range counts {
		if c < 350 || c > 650 {
			t.Errorf("index %d drawn %d times, expected ~500", i, c)
		}
	}
}

// prepOne preps e alone, as S2 preps each candidate e'.
func prepOne(s *dataset.Schema, e *dataset.Entity) *dataset.Preps {
	return dataset.NewPreps(s, []*dataset.Entity{e}, nil, "")
}

// benchDistState builds a learned distState over a scholar fixture for the
// hot-loop benchmarks, with A prepped as T_e.
func benchDistState(b *testing.B) (*distState, *dataset.ER, *dataset.Preps, *rand.Rand) {
	b.Helper()
	gen, err := benchFixture()
	if err != nil {
		b.Fatal(err)
	}
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}.withDefaults(gen.ER)
	d := newDistState(j, opts, nil)
	return d, gen.ER, dataset.NewPreps(gen.ER.Schema(), gen.ER.A.Entities, nil, ""), rand.New(rand.NewSource(8))
}

func BenchmarkDeltaVectors(b *testing.B) {
	d, er, te, r := benchDistState(b)
	cand := prepOne(er.Schema(), er.B.Entities[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.deltaVectors(cand, te, r)
	}
}

func BenchmarkReject(b *testing.B) {
	d, er, te, r := benchDistState(b)
	// Activate O_syn by committing deltas until both accumulators fit.
	for i := 0; i < er.B.Len() && !d.active(); i++ {
		d.commit(d.deltaVectors(prepOne(er.Schema(), er.B.Entities[i]), te, r))
	}
	if !d.active() {
		b.Fatal("accumulators never activated")
	}
	dl := d.deltaVectors(prepOne(er.Schema(), er.B.Entities[0]), te, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.reject(dl, r)
	}
}
