package simfn

import "testing"

var (
	sinkPrep any
	sinkSim  float64
)

// benchValues are restaurant-style names and addresses: the values the
// rule synthesizer's edit walk and the similarity-vector pass prep.
var benchValues = []string{
	"Arnie Morton's of Chicago", "435 S. La Cienega Blvd.", "Art's Delicatessen",
	"12224 Ventura Blvd.", "Hotel Bel-Air", "701 Stone Canyon Rd.",
	"Cafe Bizou", "14016 Ventura Blvd.", "Campanile", "624 S. La Brea Ave.",
}

func BenchmarkQGramJaccardPrep(b *testing.B) {
	f := QGramJaccard{Q: 3, Fold: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPrep = f.Prep(benchValues[i%len(benchValues)])
	}
}

func BenchmarkQGramJaccardSimPrepped(b *testing.B) {
	f := QGramJaccard{Q: 3, Fold: true}
	prepped := make([]any, len(benchValues))
	for i, v := range benchValues {
		prepped[i] = f.Prep(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSim = f.SimPrepped(prepped[i%len(prepped)], prepped[(i/len(prepped))%len(prepped)])
	}
}

// BenchmarkBindQGram is the edit walk's inner call: one value bound, a
// stream of candidates scored against it.
func BenchmarkBindQGram(b *testing.B) {
	f := QGramJaccard{Q: 3, Fold: true}
	bound := Bind(f, benchValues[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSim = bound(benchValues[i%len(benchValues)])
	}
}
