package gmm

import (
	"math/rand"
	"testing"

	"serd/internal/parallel"
	"serd/internal/stats"
)

// randomModel builds a g-component mixture of dimension k with random
// means, diagonal-dominant covariances and weights.
func randomModel(t testing.TB, r *rand.Rand, g, k int) *Model {
	t.Helper()
	comps := make([]Component, g)
	for c := range comps {
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		cov := stats.NewMat(k, k)
		for i := 0; i < k; i++ {
			cov.Set(i, i, 0.05+0.1*r.Float64())
		}
		comps[c] = Component{Weight: 0.1 + r.Float64(), Mean: mean, Cov: cov}
	}
	m, err := New(comps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDensityKernelsAllocFree pins the per-sample density kernels — the
// Eq. 10 JSD estimator's and the EM E-step's inner calls — allocation-free
// for mixtures of up to 8 components in up to 16 dimensions.
func TestDensityKernelsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ g, k int }{{1, 1}, {4, 6}, {8, 16}} {
		m := randomModel(t, r, shape.g, shape.k)
		n := randomModel(t, r, shape.g, shape.k)
		j, err := NewJoint(m, n, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, shape.k)
		dst := make([]float64, shape.g)
		for name, f := range map[string]func(){
			"Model.LogPDF":     func() { m.LogPDF(x) },
			"Joint.LogPDF":     func() { j.LogPDF(x) },
			"Model.RespLogPDF": func() { m.RespLogPDF(x, dst) },
		} {
			if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
				t.Errorf("g=%d k=%d: %s allocates %v times per call", shape.g, shape.k, name, allocs)
			}
		}
	}
}

var sinkFloat float64

func BenchmarkModelLogPDF(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	m := randomModel(b, r, 4, 4)
	x := []float64{0.2, 0.4, 0.6, 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = m.LogPDF(x)
	}
}

// BenchmarkJSDStriped measures one Eq. 10 divergence estimate at the
// default sample count, serially (nil pool).
func BenchmarkJSDStriped(b *testing.B) {
	r := rand.New(rand.NewSource(34))
	p, err := NewJoint(randomModel(b, r, 2, 4), randomModel(b, r, 3, 4), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewJoint(randomModel(b, r, 2, 4), randomModel(b, r, 3, 4), 0.25)
	if err != nil {
		b.Fatal(err)
	}
	var pool *parallel.Pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = JSDStriped(p, q, 256, int64(i), pool)
	}
}
