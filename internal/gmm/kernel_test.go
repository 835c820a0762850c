package gmm

import (
	"math"
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

// TestJointCachedLogWeights pins LogPDF and PosteriorMatch, which read the
// log weights NewJoint caches, bit for bit against the formula that takes
// math.Log(Pi) per call — for joints from NewJoint and from JointFromState,
// including the degenerate weights 0 and 1.
func TestJointCachedLogWeights(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m, n := randomModel(t, r, 3, 2), randomModel(t, r, 2, 2)
	xs := make([][]float64, 40)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64()}
	}
	xs = append(xs, []float64{1e6, -1e6}) // both densities underflow
	for _, pi := range []float64{0, 0.3, 1} {
		built, err := NewJoint(m, n, pi)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := JointFromState(built.State())
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []*Joint{built, restored} {
			for _, x := range xs {
				lm := math.Log(j.Pi) + j.M.LogPDF(x)
				ln := math.Log(1-j.Pi) + j.N.LogPDF(x)
				want := 1 / (1 + math.Exp(ln-lm))
				if math.IsInf(lm, -1) && math.IsInf(ln, -1) {
					want = 0.5
				}
				if got := j.PosteriorMatch(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pi=%v x=%v: PosteriorMatch = %v, formula %v", pi, x, got, want)
				}
				want = ln
				switch {
				case j.Pi == 1:
					want = lm
				case j.Pi != 0:
					hi := math.Max(lm, ln)
					want = hi + math.Log(math.Exp(lm-hi)+math.Exp(ln-hi))
				}
				if got := j.LogPDF(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pi=%v x=%v: LogPDF = %v, formula %v", pi, x, got, want)
				}
			}
		}
	}
}
