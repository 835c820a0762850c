package generator

import (
	"math/rand"
	"testing"

	"serd/internal/datagen"
)

// BenchmarkLearningVectors measures S1's similarity-vector pass (X+, the
// uniform X− sample and the blocker's hard negatives) on a 300×300
// Restaurant fixture.
func BenchmarkLearningVectors(b *testing.B) {
	gen, err := datagen.Restaurant(datagen.Config{Seed: 3, SizeA: 300, SizeB: 300, Matches: 90, BackgroundPerColumn: 60})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := FitOptions{Rand: rand.New(rand.NewSource(1))}.WithDefaults(len(gen.ER.Matches))
		if _, _, err := LearningVectors(gen.ER, opts); err != nil {
			b.Fatal(err)
		}
	}
}
