package generator

import (
	"math/rand"
	"testing"

	"serd/internal/datagen"
	"serd/internal/parallel"
)

// BenchmarkLearningVectors measures S1's similarity-vector pass (X+, the
// uniform X− sample and the blocker's hard negatives): on a 300×300
// Restaurant fixture, and on Walmart-shaped Products relations (80×690,
// long titles and descriptions) with two workers, the shape of perfbench's
// walmart-dp-durable input, where this pass is all of setup.
func BenchmarkLearningVectors(b *testing.B) {
	restaurant, err := datagen.Restaurant(datagen.Config{Seed: 3, SizeA: 300, SizeB: 300, Matches: 90, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	products, err := datagen.Products(datagen.Config{Seed: 1, SizeA: 80, SizeB: 690, Matches: 36, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		gen  *datagen.Generated
		pool *parallel.Pool
	}{
		{"restaurant-300x300", restaurant, nil},
		{"products-80x690-workers-2", products, parallel.New(2, nil)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := FitOptions{Rand: rand.New(rand.NewSource(1)), Pool: bc.pool}.WithDefaults(len(bc.gen.ER.Matches))
				if _, _, err := LearningVectors(bc.gen.ER, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
