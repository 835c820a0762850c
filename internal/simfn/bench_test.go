package simfn

import (
	"math/rand"
	"strings"
	"testing"
)

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

// longValues returns n Products-style descriptions of about 110 bytes,
// drawn from a fixed vocabulary: the long column that dominates the merge
// work of S1's hard negatives. Many distinct values keep the branch
// predictor from learning the merges, as it cannot on real relations.
func longValues(n int) []string {
	words := strings.Fields("seagate logitech samsung canon sony dell headset mouse ssd camera monitor " +
		"compact travel edition wireless ergonomic portable optical noise cancelling includes quad core " +
		"8gb ram 256gb 1tb warranty mechanical rgb backlit support battery bluetooth usb-c storage zoom " +
		"sensor stabilization display stand hub charge touch controls aluminum housing encryption")
	r := rand.New(rand.NewSource(1))
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for sb.Len() < 110 {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[r.Intn(len(words))])
		}
		out[i] = sb.String()
	}
	return out
}

// BenchmarkQGramJaccardSimPrepped scores prepped pairs: of ten short
// restaurant-style values, and of 256 long Products-style descriptions.
func BenchmarkQGramJaccardSimPrepped(b *testing.B) {
	f := QGramJaccard{Q: 3, Fold: true}
	for _, bc := range []struct {
		name   string
		values []string
	}{{"short", benchValues}, {"long", longValues(256)}} {
		prepped := make([]any, len(bc.values))
		for i, v := range bc.values {
			prepped[i] = f.Prep(v)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSim = f.SimPrepped(prepped[i%len(prepped)], prepped[(i/len(prepped))%len(prepped)])
			}
		})
	}
}

// BenchmarkBindQGram is the edit walk's inner call: one value bound, a
// stream of candidates scored against it. short binds one restaurant
// value and scores the ten; long binds each of 256 Products-style
// descriptions and scores a one-edit variant of it, as the walk does.
func BenchmarkBindQGram(b *testing.B) {
	f := QGramJaccard{Q: 3, Fold: true}
	b.Run("short", func(b *testing.B) {
		bound := Bind(f, benchValues[0])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSim = bound(benchValues[i%len(benchValues)])
		}
	})
	long := longValues(256)
	bound := make([]func(string) float64, len(long))
	variants := make([]string, len(long))
	for i, v := range long {
		bound[i] = Bind(f, v)
		j := i * 37 % len(v)
		variants[i] = v[:j] + string(rune('a'+i%26)) + v[j+1:]
	}
	b.Run("long", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(long)
			sinkSim = bound[k](variants[k])
		}
	})
}
