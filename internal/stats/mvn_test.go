package stats

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPD returns a random symmetric positive definite k×k matrix
// A·Aᵀ + k·I.
func randomSPD(r *rand.Rand, k int) *Mat {
	a := NewMat(k, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	cov := a.Mul(a.T())
	for i := 0; i < k; i++ {
		cov.Add(i, i, float64(k))
	}
	return cov
}

// forwardSolveLogPDF is the reference MVN log density: the ForwardSolve
// formula LogPDF computed before its in-place solve.
func forwardSolveLogPDF(d *MVN, x []float64) float64 {
	k := len(d.mean)
	diff := make([]float64, k)
	for i := range diff {
		diff[i] = x[i] - d.mean[i]
	}
	y := ForwardSolve(d.chol, diff)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	logDet := 0.0
	for i := 0; i < k; i++ {
		logDet += 2 * math.Log(d.chol.At(i, i))
	}
	return -0.5 * (float64(k)*math.Log(2*math.Pi) + logDet + quad)
}

// TestMVNLogPDFMatchesForwardSolve pins LogPDF bit for bit to the
// ForwardSolve formula on random SPD covariances, across dims that use
// the stack buffer (k ≤ 16) and the allocating fallback.
func TestMVNLogPDFMatchesForwardSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for k := 1; k <= 20; k++ {
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		d, err := NewMVN(mean, randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, k)
			for i := range x {
				x[i] = 3 * r.NormFloat64()
			}
			got, want := d.LogPDF(x), forwardSolveLogPDF(d, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: LogPDF = %v, ForwardSolve formula = %v", k, got, want)
			}
		}
	}
}

// TestMVNLogPDFAllocFree pins the density kernel allocation-free up to
// dimension 16.
func TestMVNLogPDFAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 4, 16} {
		d, err := NewMVN(make([]float64, k), randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k)
		if n := testing.AllocsPerRun(100, func() { d.LogPDF(x) }); n != 0 {
			t.Errorf("k=%d: LogPDF allocates %v times per call", k, n)
		}
	}
}

var sinkFloat float64

func BenchmarkMVNLogPDF(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	d, err := NewMVN(make([]float64, 4), randomSPD(r, 4))
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = d.LogPDF(x)
	}
}
