package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// MVN is a multivariate normal distribution N(mean, cov), held in a
// factorized form ready for density evaluation and sampling.
type MVN struct {
	mean []float64
	chol *Mat // lower Cholesky factor of cov
	// norm is k·log 2π + log|Σ|, the constant part of -2·log density.
	norm float64
}

// NewMVN builds an MVN from a mean vector and covariance matrix. The
// covariance must be symmetric positive definite (callers that fit
// covariances from data should regularize first; see RegularizeCovariance).
func NewMVN(mean []float64, cov *Mat) (*MVN, error) {
	if cov.Rows != len(mean) || cov.Cols != len(mean) {
		return nil, fmt.Errorf("stats: covariance %dx%d does not match mean dim %d", cov.Rows, cov.Cols, len(mean))
	}
	l, err := Cholesky(cov)
	if err != nil {
		return nil, err
	}
	logDet := 0.0
	for i := 0; i < l.Rows; i++ {
		logDet += 2 * math.Log(l.At(i, i))
	}
	m := make([]float64, len(mean))
	copy(m, mean)
	return &MVN{mean: m, chol: l, norm: float64(len(mean))*math.Log(2*math.Pi) + logDet}, nil
}

// Dim returns the dimensionality of the distribution.
func (d *MVN) Dim() int { return len(d.mean) }

// Mean returns a copy of the mean vector.
func (d *MVN) Mean() []float64 {
	m := make([]float64, len(d.mean))
	copy(m, d.mean)
	return m
}

// LogPDF returns the log density at x. It allocates nothing for k ≤ 16:
// the forward solve runs in place in a stack buffer, with ForwardSolve's
// arithmetic, so the value is bit-identical to the ForwardSolve formula.
func (d *MVN) LogPDF(x []float64) float64 {
	k := len(d.mean)
	if len(x) != k {
		panic(fmt.Sprintf("stats: LogPDF dim %d, want %d", len(x), k))
	}
	var buf [16]float64
	var y []float64
	if k <= len(buf) {
		y = buf[:k]
	} else {
		y = make([]float64, k)
	}
	// Quadratic form (x-μ)ᵀ Σ⁻¹ (x-μ) = ||L⁻¹(x-μ)||², solving L·y = x-μ
	// row by row.
	l := d.chol
	quad := 0.0
	for i := 0; i < k; i++ {
		sum := x[i] - d.mean[i]
		for j := 0; j < i; j++ {
			sum -= l.At(i, j) * y[j]
		}
		y[i] = sum / l.At(i, i)
		quad += y[i] * y[i]
	}
	return -0.5 * (d.norm + quad)
}

// LogPDF2 returns the log densities at x0 and x1, each bit-identical to
// LogPDF's. Both forward solves run in one loop, each row's operations in
// LogPDF's order, so the two rows' independent division chains overlap.
// They run in y, the caller's scratch: its contents are ignored and
// overwritten, so a caller evaluating many components hands every call
// the same buffer and zeroes it once. With len(y) < 2·Dim it calls LogPDF
// twice instead. It allocates nothing.
func (d *MVN) LogPDF2(x0, x1, y []float64) (float64, float64) {
	k := len(d.mean)
	if len(x0) != k || len(x1) != k {
		panic(fmt.Sprintf("stats: LogPDF2 dims %d and %d, want %d", len(x0), len(x1), k))
	}
	if len(y) < 2*k {
		return d.LogPDF(x0), d.LogPDF(x1)
	}
	y0, y1 := y[:k], y[k:2*k]
	l := d.chol
	q0, q1 := 0.0, 0.0
	for i := 0; i < k; i++ {
		s0 := x0[i] - d.mean[i]
		s1 := x1[i] - d.mean[i]
		for j, lij := range l.Data[i*k : i*k+i] {
			s0 -= lij * y0[j]
			s1 -= lij * y1[j]
		}
		lii := l.Data[i*k+i]
		y0[i] = s0 / lii
		y1[i] = s1 / lii
		q0 += y0[i] * y0[i]
		q1 += y1[i] * y1[i]
	}
	return -0.5 * (d.norm + q0), -0.5 * (d.norm + q1)
}

// LogPDFRows writes to out[r] the log density at row r of xs, which holds
// len(out) rows of Dim values each; every value is bit-identical to
// LogPDF's. Four rows' forward solves run in one loop, each row's
// operations in LogPDF's order, so their division chains overlap. They
// run in y, the caller's scratch, as in LogPDF2. The rows past the last
// group of four, and every row when len(y) < 4·Dim, go through LogPDF.
// It allocates nothing.
func (d *MVN) LogPDFRows(xs, out, y []float64) {
	k := len(d.mean)
	if len(xs) != len(out)*k {
		panic(fmt.Sprintf("stats: LogPDFRows got %d values for %d rows of dim %d", len(xs), len(out), k))
	}
	r := 0
	if len(y) >= 4*k {
		// y holds the four solves interleaved: y[4j+c] is row c's j-th.
		l, mean, norm := d.chol.Data, d.mean, d.norm
		for ; r+4 <= len(out); r += 4 {
			x := xs[r*k : (r+4)*k]
			q0, q1, q2, q3 := 0.0, 0.0, 0.0, 0.0
			for i, mi := range mean {
				s0, s1, s2, s3 := x[i]-mi, x[k+i]-mi, x[2*k+i]-mi, x[3*k+i]-mi
				w := y[:4*i]
				for _, lij := range l[i*k : i*k+i] {
					_ = w[3]
					s0 -= lij * w[0]
					s1 -= lij * w[1]
					s2 -= lij * w[2]
					s3 -= lij * w[3]
					w = w[4:]
				}
				lii := l[i*k+i]
				v0, v1, v2, v3 := s0/lii, s1/lii, s2/lii, s3/lii
				yi := y[4*i : 4*i+4]
				yi[0], yi[1], yi[2], yi[3] = v0, v1, v2, v3
				q0 += v0 * v0
				q1 += v1 * v1
				q2 += v2 * v2
				q3 += v3 * v3
			}
			o := out[r : r+4]
			o[0], o[1], o[2], o[3] = -0.5*(norm+q0), -0.5*(norm+q1), -0.5*(norm+q2), -0.5*(norm+q3)
		}
	}
	for ; r < len(out); r++ {
		out[r] = d.LogPDF(xs[r*k : (r+1)*k])
	}
}

// PDF returns the density at x.
func (d *MVN) PDF(x []float64) float64 { return math.Exp(d.LogPDF(x)) }

// Sample draws one vector from the distribution using r: Dim standard
// normal draws mapped through FromStandard. The draws live in a stack
// buffer for k ≤ 16, so the returned vector is the only allocation.
func (d *MVN) Sample(r *rand.Rand) []float64 {
	k := len(d.mean)
	var buf [16]float64
	var z []float64
	if k <= len(buf) {
		z = buf[:k]
	} else {
		z = make([]float64, k)
	}
	for i := range z {
		z[i] = r.NormFloat64()
	}
	x := make([]float64, k)
	d.FromStandard(z, x)
	return x
}

// FromStandard writes x = μ + L·z, the sample of this distribution that
// the standard normal draws z map to. x and z must both have length Dim
// and must not overlap.
func (d *MVN) FromStandard(z, x []float64) {
	for i := range d.mean {
		sum := d.mean[i]
		for j := 0; j <= i; j++ {
			sum += d.chol.At(i, j) * z[j]
		}
		x[i] = sum
	}
}

// RegularizeCovariance adds ridge*I to cov in place and returns it. GMM
// covariance estimates from few or degenerate samples are frequently
// singular; a small ridge restores positive definiteness without visibly
// distorting the density.
func RegularizeCovariance(cov *Mat, ridge float64) *Mat {
	for i := 0; i < cov.Rows; i++ {
		cov.Add(i, i, ridge)
	}
	return cov
}

// MeanVector returns the per-dimension mean of the rows of xs.
func MeanVector(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	dim := len(xs[0])
	mean := make([]float64, dim)
	for _, x := range xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(xs))
	}
	return mean
}

// CovarianceMatrix returns the (biased, 1/n) sample covariance of the rows
// of xs around mean.
func CovarianceMatrix(xs [][]float64, mean []float64) *Mat {
	dim := len(mean)
	cov := NewMat(dim, dim)
	if len(xs) == 0 {
		return cov
	}
	for _, x := range xs {
		for i := 0; i < dim; i++ {
			di := x[i] - mean[i]
			for j := 0; j < dim; j++ {
				cov.Add(i, j, di*(x[j]-mean[j]))
			}
		}
	}
	n := float64(len(xs))
	for i := range cov.Data {
		cov.Data[i] /= n
	}
	return cov
}
