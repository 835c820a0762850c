package gmm

import (
	"context"
	"fmt"
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
// for mixtures of up to 8 components in up to 16 dimensions, and the
// JSDPair estimator to allocations that do not grow with the samples.
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
		// JSDPair allocates a fixed overhead per call (seeds, sums, the
		// stripe closure and what it captures) and per stripe its
		// rand.Rand, the source and the sample scratch buffer, never per
		// sample.
		after, err := NewJoint(m, randomModel(t, r, shape.g, shape.k), 0.35)
		if err != nil {
			t.Fatal(err)
		}
		q := fixedDist{x: make([]float64, shape.k)}
		const perCall, perStripe = 4, 3
		for _, n := range []int{1, 32, 256, 1024} {
			stripes := (n + jsdStripe - 1) / jsdStripe
			allocs := testing.AllocsPerRun(5, func() { JSDPair(j, after, q, n, 7, nil) })
			if limit := float64(perCall + perStripe*stripes); allocs > limit {
				t.Errorf("g=%d k=%d n=%d: JSDPair allocates %v times per call, want ≤ %v", shape.g, shape.k, n, allocs, limit)
			}
		}
	}
}

// fixedDist is a q for allocation counting: Sample refills one
// preallocated vector and LogPDF allocates nothing. Single-goroutine only.
type fixedDist struct{ x []float64 }

func (f fixedDist) Sample(r *rand.Rand) ([]float64, bool) {
	for i := range f.x {
		f.x[i] = r.Float64()
	}
	return f.x, false
}

func (f fixedDist) LogPDF(x []float64) float64 { return -x[0] }

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

// BenchmarkJSDPair measures the Eq. 10 pair of estimates at the default
// sample count, serially (nil pool), in rejection's usual shape: the
// candidate's delta changed N and left M shared.
func BenchmarkJSDPair(b *testing.B) {
	r := rand.New(rand.NewSource(34))
	m := randomModel(b, r, 2, 4)
	before, err := NewJoint(m, randomModel(b, r, 3, 4), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	after, err := NewJoint(m, randomModel(b, r, 3, 4), 0.21)
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
		sinkFloat, _ = JSDPair(before, after, q, 128, int64(i), pool)
	}
}

// dblpShapedVectors draws n four-column similarity vectors shaped like
// S1's DBLP non-match learning set: mostly low similarities, a band of
// hard negatives with high-similarity columns, clamped into [0, 1] so
// that the boundaries carry point masses.
func dblpShapedVectors(r *rand.Rand, n int) [][]float64 {
	easy := [4]float64{0.1, 0.1, 0.2, 0.5}
	hard := [4]float64{0.6, 0.3, 0.8, 0.9}
	xs := make([][]float64, n)
	for i := range xs {
		center, sd := easy, 0.08
		if r.Intn(10) < 3 {
			center, sd = hard, 0.15
		}
		x := make([]float64, len(center))
		for j, c := range center {
			x[j] = c + sd*r.NormFloat64()
		}
		clamp01(x)
		xs[i] = x
	}
	return xs
}

// BenchmarkFitAIC measures S1's N-distribution fit: the AIC search over
// 1..4 components on 5,610 DBLP-shaped vectors, at one and two workers.
func BenchmarkFitAIC(b *testing.B) {
	xs := dblpShapedVectors(rand.New(rand.NewSource(35)), 5610)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.New(workers, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := FitAIC(context.Background(), xs, 4, FitOptions{Rand: rand.New(rand.NewSource(1)), Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				sinkModel = m
			}
		})
	}
}

// TestJointCachedLogWeights pins LogPDF and PosteriorMatch, which read the
// log weights NewJoint caches and skip math.Exp/math.Log where their
// value is exactly 1/+0, bit for bit against the formula that takes
// math.Log(Pi) and every math.Exp per call — for joints from NewJoint and
// from JointFromState, including the degenerate weights 0 and 1, tied
// sides (M = N at Pi ½) and NaN/±Inf inputs.
func TestJointCachedLogWeights(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m, n := randomModel(t, r, 3, 2), randomModel(t, r, 2, 2)
	xs := make([][]float64, 40)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64()}
	}
	inf := math.Inf(1)
	xs = append(xs, []float64{1e6, -1e6}, // both densities underflow
		[]float64{math.NaN(), 0.5}, []float64{inf, 0.5}, []float64{-inf, inf})
	for _, tc := range []struct {
		n  *Model
		pi float64
	}{{n, 0}, {n, 0.3}, {n, 1}, {m, 0.5}} {
		pi := tc.pi
		built, err := NewJoint(m, tc.n, pi)
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
				if got := j.PosteriorMatch(x); !sameFloat(got, want) {
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
				if got := j.LogPDF(x); !sameFloat(got, want) {
					t.Fatalf("pi=%v x=%v: LogPDF = %v, formula %v", pi, x, got, want)
				}
			}
		}
	}
}

// lseOracle is log-sum-exp over logs with maximum hi, written with
// math.Exp on every term and math.Log on every sum; it returns the sum and
// the total.
func lseOracle(logs []float64, hi float64) (float64, float64) {
	sum := 0.0
	for _, l := range logs {
		sum += math.Exp(l - hi)
	}
	return sum, hi + math.Log(sum)
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestLogSumExpMatchesExpFormula pins the mixture and midpoint
// log-sum-exps, which skip math.Exp for the maximum term and math.Log for
// a sum of 1, bit for bit to the all-math.Exp formulas: one component,
// tied maxima, components at −Inf, and NaN/±Inf inputs. The joint's
// log-sum-exp is pinned by TestJointCachedLogWeights.
func TestLogSumExpMatchesExpFormula(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if math.Exp(0) != 1 || math.Exp(negZero) != 1 {
		t.Fatal("math.Exp(±0) != 1")
	}
	if math.Float64bits(math.Log(1)) != 0 {
		t.Fatalf("math.Log(1) = %v, want +0", math.Log(1))
	}
	if got := addLog(negZero, 1); math.Float64bits(got) != math.Float64bits(negZero+math.Log(1)) {
		t.Fatalf("addLog(-0, 1) = %v (sign %v), want +0", got, math.Signbit(got))
	}

	r := rand.New(rand.NewSource(47))
	one := randomModel(t, r, 1, 3)
	c := randomModel(t, r, 1, 3).Comps[0]
	tied, err := New([]Component{c, c, {Weight: 0.5, Mean: []float64{0.9, 0.1, 0.5}, Cov: c.Cov}})
	if err != nil {
		t.Fatal(err)
	}
	// A zero-weight component has log weight −Inf at every x.
	dead, err := New([]Component{one.Comps[0], {Weight: 0, Mean: []float64{0.2, 0.2, 0.2}, Cov: one.Comps[0].Cov}})
	if err != nil {
		t.Fatal(err)
	}
	far := randomModel(t, r, 4, 3)
	models := map[string]*Model{"g=1": one, "tied": tied, "dead": dead, "g=4": far}

	inf := math.Inf(1)
	xs := [][]float64{
		{0.5, 0.5, 0.5}, {0, 1, 0.3}, {30, -30, 30}, {1e6, -1e6, 1e6}, // underflowing terms
		{math.NaN(), 0.5, 0.5}, {inf, 0.5, 0.5}, {-inf, 0, 0}, {inf, -inf, 0},
	}
	for i := 0; i < 20; i++ {
		xs = append(xs, []float64{r.Float64(), r.Float64(), r.Float64()})
	}

	for name, m := range models {
		logs := make([]float64, len(m.Comps))
		dst := make([]float64, len(m.Comps))
		for _, x := range xs {
			hi := m.compLogs(x, logs)
			wantLP := hi
			want := make([]float64, len(logs))
			if math.IsInf(hi, -1) {
				for i := range want {
					want[i] = 1 / float64(len(want))
				}
			} else {
				var sum float64
				sum, wantLP = lseOracle(logs, hi)
				for i, l := range logs {
					want[i] = math.Exp(l-hi) / sum
				}
			}
			if got := m.LogPDF(x); !sameFloat(got, wantLP) {
				t.Fatalf("%s x=%v: LogPDF = %v, formula %v", name, x, got, wantLP)
			}
			if got := m.RespLogPDF(x, dst); !sameFloat(got, wantLP) {
				t.Fatalf("%s x=%v: RespLogPDF = %v, formula %v", name, x, got, wantLP)
			}
			gotR := m.Responsibilities(x)
			for i := range want {
				if !sameFloat(gotR[i], want[i]) || !sameFloat(dst[i], want[i]) {
					t.Fatalf("%s x=%v: γ[%d] = %v / %v, formula %v", name, x, i, gotR[i], dst[i], want[i])
				}
			}
		}
	}

	vals := []float64{0, negZero, 1, -1, 0.5, -700, -745.2, -800, 1e308, -1e308, inf, -inf, math.NaN()}
	for _, la := range vals {
		for _, lb := range vals {
			hi := math.Max(la, lb)
			want := hi + math.Log(math.Exp(la-hi)+math.Exp(lb-hi)) - math.Ln2
			if got := logMid(la, lb); !sameFloat(got, want) {
				t.Fatalf("logMid(%v, %v) = %v, formula %v", la, lb, got, want)
			}
		}
	}
}
