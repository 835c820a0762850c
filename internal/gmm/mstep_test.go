package gmm

import (
	"math"
	"math/rand"
	"testing"

	"serd/internal/parallel"
	"serd/internal/stats"
)

// oracleMaximizeComponent is the straightforward M-step for component k:
// the covariance accumulates w·(x[a]−mean[a])·(x[b]−mean[b]) entry by
// entry through Mat.Add. maximizeComponent must match it bit for bit.
func oracleMaximizeComponent(xs, gamma [][]float64, k int, ridge float64) Component {
	dim := len(xs[0])
	n := len(xs)
	nk := 0.0
	mean := make([]float64, dim)
	for i, x := range xs {
		w := gamma[i][k]
		nk += w
		for j, v := range x {
			mean[j] += w * v
		}
	}
	if nk < 1e-12 {
		nk = 1e-12
		copy(mean, xs[k%n])
		for j := range mean {
			mean[j] *= nk
		}
	}
	for j := range mean {
		mean[j] /= nk
	}
	cov := stats.NewMat(dim, dim)
	for i, x := range xs {
		w := gamma[i][k]
		if w == 0 {
			continue
		}
		for a := 0; a < dim; a++ {
			da := x[a] - mean[a]
			for b := 0; b < dim; b++ {
				cov.Add(a, b, w*da*(x[b]-mean[b]))
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= nk
	}
	stats.RegularizeCovariance(cov, ridge)
	return Component{Weight: nk / float64(n), Mean: mean, Cov: cov}
}

// mstepInput draws n samples in [0,1]^dim and normalized responsibilities
// over g components; with starve set, the last component gets none, which
// forces the nk < 1e-12 reseed.
func mstepInput(r *rand.Rand, n, dim, g int, starve bool) (xs, gamma [][]float64) {
	xs = make([][]float64, n)
	gamma = make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = r.Float64()
		}
		gamma[i] = make([]float64, g)
		live := g
		if starve && g > 1 {
			live = g - 1
		}
		sum := 0.0
		for k := 0; k < live; k++ {
			gamma[i][k] = r.Float64()
			if r.Intn(5) == 0 {
				gamma[i][k] = 0 // exercise the w == 0 skip
			}
			sum += gamma[i][k]
		}
		for k := 0; k < live && sum > 0; k++ {
			gamma[i][k] /= sum
		}
	}
	return xs, gamma
}

func sameComponent(t *testing.T, label string, got, want Component) {
	t.Helper()
	same := math.Float64bits(got.Weight) == math.Float64bits(want.Weight) && len(got.Mean) == len(want.Mean) && len(got.Cov.Data) == len(want.Cov.Data)
	for j := 0; same && j < len(got.Mean); j++ {
		same = math.Float64bits(got.Mean[j]) == math.Float64bits(want.Mean[j])
	}
	for j := 0; same && j < len(got.Cov.Data); j++ {
		same = math.Float64bits(got.Cov.Data[j]) == math.Float64bits(want.Cov.Data[j])
	}
	if !same {
		t.Fatalf("%s: component differs\n got %+v %v\nwant %+v %v", label, got.Mean, got.Cov.Data, want.Mean, want.Cov.Data)
	}
}

// TestMaximizeMatchesOracleAtAnyWorkerCount pins the M-step's contract:
// the hoisted kernel equals the entry-by-entry oracle bit for bit, and a
// pooled M-step equals the serial one, across component counts, a
// high-dimensional (heap-buffered) case and a starved component.
func TestMaximizeMatchesOracleAtAnyWorkerCount(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 4, 17} {
		for g := 1; g <= 4; g++ {
			for _, starve := range []bool{false, true} {
				xs, gamma := mstepInput(r, 60, dim, g, starve)
				serial, err := maximize(xs, gamma, g, DefaultRidge, nil)
				if err != nil {
					t.Fatalf("dim=%d g=%d: %v", dim, g, err)
				}
				comps := make([]Component, g)
				for k := range comps {
					comps[k] = oracleMaximizeComponent(xs, gamma, k, DefaultRidge)
				}
				want, err := New(comps)
				if err != nil {
					t.Fatalf("dim=%d g=%d: oracle: %v", dim, g, err)
				}
				for k := 0; k < g; k++ {
					sameComponent(t, "serial vs oracle", serial.Comps[k], want.Comps[k])
				}
				for _, workers := range []int{1, 2, 4} {
					pooled, err := maximize(xs, gamma, g, DefaultRidge, parallel.New(workers, nil))
					if err != nil {
						t.Fatalf("dim=%d g=%d workers=%d: %v", dim, g, workers, err)
					}
					for k := 0; k < g; k++ {
						sameComponent(t, "pooled vs serial", pooled.Comps[k], serial.Comps[k])
					}
				}
			}
		}
	}
}

// BenchmarkMaximize measures one M-step over 2,000 five-column samples
// and four components, the shape of an N-distribution fit.
func BenchmarkMaximize(b *testing.B) {
	xs, gamma := mstepInput(rand.New(rand.NewSource(3)), 2000, 5, 4, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := maximize(xs, gamma, 4, DefaultRidge, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkModel = m
	}
}

var sinkModel *Model
