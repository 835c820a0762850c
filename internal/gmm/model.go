// Package gmm implements the multivariate Gaussian mixture models SERD uses
// to represent the matching (M), non-matching (N) and overall (O)
// distributions of similarity vectors (paper §II-B, §IV-A), including EM
// fitting with AIC model selection, the incremental parameter update of
// §V (Eqs. 8-9), and Monte-Carlo Jensen-Shannon divergence (Eq. 3).
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"serd/internal/stats"
)

// DefaultRidge is the diagonal regularization added to every fitted
// covariance so that Cholesky factorization succeeds even for degenerate
// clusters (e.g. a column whose matching similarity is constantly 1).
const DefaultRidge = 1e-4

// Component is one weighted Gaussian of a mixture.
type Component struct {
	Weight float64
	Mean   []float64
	Cov    *stats.Mat
	dist   *stats.MVN
	logW   float64 // math.Log(Weight), hoisted out of every density call
}

// Model is a Gaussian mixture over similarity vectors. A built model is
// never mutated: an update builds a new one, so models may be shared by
// pointer.
type Model struct {
	Comps []Component
	dim   int
}

// New builds a mixture from explicit components. Weights are normalized to
// sum to one; covariances are regularized with DefaultRidge if they fail to
// factorize as given.
func New(comps []Component) (*Model, error) {
	if len(comps) == 0 {
		return nil, errors.New("gmm: no components")
	}
	dim := len(comps[0].Mean)
	total := 0.0
	for i := range comps {
		if len(comps[i].Mean) != dim {
			return nil, fmt.Errorf("gmm: component %d has dim %d, want %d", i, len(comps[i].Mean), dim)
		}
		total += comps[i].Weight
	}
	if total <= 0 {
		return nil, errors.New("gmm: non-positive total weight")
	}
	m := &Model{Comps: make([]Component, len(comps)), dim: dim}
	for i, c := range comps {
		c.Weight /= total
		cov := c.Cov.Clone()
		dist, err := stats.NewMVN(c.Mean, cov.Clone())
		if err != nil {
			stats.RegularizeCovariance(cov, DefaultRidge)
			dist, err = stats.NewMVN(c.Mean, cov)
			if err != nil {
				return nil, fmt.Errorf("gmm: component %d covariance: %w", i, err)
			}
		}
		c.Cov = cov
		c.dist = dist
		c.logW = math.Log(c.Weight)
		m.Comps[i] = c
	}
	return m, nil
}

// Dim returns the dimensionality of the mixture.
func (m *Model) Dim() int { return m.dim }

// maxStackComps is the component count up to which the per-component log
// densities live in a stack buffer; larger mixtures allocate.
const maxStackComps = 8

// compLogs fills logs with log(w_i) + log N_i(x) per component and returns
// their maximum.
func (m *Model) compLogs(x, logs []float64) float64 {
	maxLog := math.Inf(-1)
	for i := range m.Comps {
		c := &m.Comps[i]
		logs[i] = c.logW + c.dist.LogPDF(x)
		if logs[i] > maxLog {
			maxLog = logs[i]
		}
	}
	return maxLog
}

// LogPDF returns the log density of the mixture at x.
func (m *Model) LogPDF(x []float64) float64 {
	// log-sum-exp over components for numerical stability.
	var buf [maxStackComps]float64
	logs := logsBuf(&buf, len(m.Comps))
	maxLog := m.compLogs(x, logs)
	if math.IsInf(maxLog, -1) {
		return maxLog
	}
	sum := 0.0
	for _, l := range logs {
		sum += expShift(l - maxLog)
	}
	return addLog(maxLog, sum)
}

// logPDFRows writes to out[r] the log density at row r of xs, which holds
// len(out) rows of Dim values each; every value is bit-identical to
// LogPDF's. Each component is evaluated over every row, through
// MVN.LogPDFRows, before the next; then each row's log-sum-exp runs over
// its components in order. logs is scratch for len(Comps)·len(out) values
// and y the 4·Dim forward-solve scratch LogPDFRows takes.
func (m *Model) logPDFRows(xs, out, logs, y []float64) {
	n := len(out)
	logs = logs[:len(m.Comps)*n]
	for i := range m.Comps {
		c := &m.Comps[i]
		li := logs[i*n : (i+1)*n]
		c.dist.LogPDFRows(xs, li, y)
		for r, l := range li {
			li[r] = c.logW + l
		}
	}
	for r := range out {
		maxLog := math.Inf(-1)
		for i := r; i < len(logs); i += n {
			if logs[i] > maxLog {
				maxLog = logs[i]
			}
		}
		if math.IsInf(maxLog, -1) {
			out[r] = maxLog
			continue
		}
		sum := 0.0
		for i := r; i < len(logs); i += n {
			sum += expShift(logs[i] - maxLog)
		}
		out[r] = addLog(maxLog, sum)
	}
}

// expShift returns math.Exp(d) for a log-sum-exp term d = l − max. The
// maximum term's d is exactly 0, and math.Exp(±0) is exactly 1, so that
// term skips math.Exp; NaN and ±Inf differences still go through it.
func expShift(d float64) float64 {
	if d == 0 {
		return 1
	}
	return math.Exp(d)
}

// addLog returns hi + math.Log(sum), the log-sum-exp total over the
// maximum hi. A sum of exactly 1 — the maximum term alone, the rest
// underflowed — skips math.Log, whose value there is +0; the +0 is still
// added, so a -0 hi comes out +0 as it would through math.Log.
func addLog(hi, sum float64) float64 {
	if sum == 1 {
		return hi + 0
	}
	return hi + math.Log(sum)
}

// logsBuf returns n slots of buf, or a fresh slice when n exceeds it.
func logsBuf(buf *[maxStackComps]float64, n int) []float64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

// PDF returns the density of the mixture at x.
func (m *Model) PDF(x []float64) float64 { return math.Exp(m.LogPDF(x)) }

// Sample draws one vector from the mixture: a uniform that picks the
// component, then that component's draws.
func (m *Model) Sample(r *rand.Rand) []float64 {
	return m.component(r.Float64()).Sample(r)
}

// component returns the Gaussian a uniform draw u selects: the first
// component whose cumulative weight reaches u, else the last.
func (m *Model) component(u float64) *stats.MVN {
	acc := 0.0
	for i := range m.Comps {
		acc += m.Comps[i].Weight
		if u <= acc {
			return m.Comps[i].dist
		}
	}
	return m.Comps[len(m.Comps)-1].dist
}

// SampleClamped draws one vector and clamps every coordinate into [0, 1],
// the valid range of similarity scores.
func (m *Model) SampleClamped(r *rand.Rand) []float64 {
	x := m.Sample(r)
	clamp01(x)
	return x
}

// clamp01 clamps every coordinate of x into [0, 1] in place.
func clamp01(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > 1 {
			x[i] = 1
		}
	}
}

// Responsibilities returns γ_i = P(component i | x) for each component
// (Eq. 5, evaluated at the current parameters).
func (m *Model) Responsibilities(x []float64) []float64 {
	out := make([]float64, len(m.Comps))
	var buf [maxStackComps]float64
	logs := logsBuf(&buf, len(m.Comps))
	normalize(logs, m.compLogs(x, logs), out)
	return out
}

// respLogPDF2 is the EM E-step kernel for two rows: it fills dst0 and
// dst1 (length = component count) with the responsibilities of x0 and x1
// and returns log p(x0) and log p(x1). Each component evaluates both rows
// in one MVN.LogPDF2 call, and each row's values are bit-identical to
// Responsibilities and LogPDF. Every component's solves share one
// scratch buffer, zeroed once per row pair; past 16 dims LogPDF2 falls
// back to LogPDF.
func (m *Model) respLogPDF2(x0, x1, dst0, dst1 []float64) (float64, float64) {
	var buf0, buf1 [maxStackComps]float64
	var solve [2 * 16]float64
	logs0, logs1 := logsBuf(&buf0, len(m.Comps)), logsBuf(&buf1, len(m.Comps))
	max0, max1 := math.Inf(-1), math.Inf(-1)
	for i := range m.Comps {
		c := &m.Comps[i]
		l0, l1 := c.dist.LogPDF2(x0, x1, solve[:])
		logs0[i], logs1[i] = c.logW+l0, c.logW+l1
		if logs0[i] > max0 {
			max0 = logs0[i]
		}
		if logs1[i] > max1 {
			max1 = logs1[i]
		}
	}
	return addLog(max0, normalize(logs0, max0, dst0)), addLog(max1, normalize(logs1, max1, dst1))
}

// normalize fills dst with the responsibilities exp(l_i − max)/Σ that the
// component log-densities logs with maximum maxLog give, and returns Σ,
// so that addLog(maxLog, Σ) is log p(x). When every component is at −Inf
// the responsibilities are uniform and Σ is 1, so log p(x) is −Inf + 0.
func normalize(logs []float64, maxLog float64, dst []float64) float64 {
	if math.IsInf(maxLog, -1) {
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return 1
	}
	sum := 0.0
	for i, l := range logs {
		dst[i] = expShift(l - maxLog)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
	return sum
}

// LogLikelihood returns Σ log p(x) over xs (Eq. 4).
func (m *Model) LogLikelihood(xs [][]float64) float64 {
	ll := 0.0
	for _, x := range xs {
		ll += m.LogPDF(x)
	}
	return ll
}

// NumParams returns the number of free parameters, used by AIC: per
// component a mean (d), a full symmetric covariance (d(d+1)/2), and g-1 free
// weights.
func (m *Model) NumParams() int {
	d := m.dim
	perComp := d + d*(d+1)/2
	return len(m.Comps)*perComp + (len(m.Comps) - 1)
}

// AIC returns the Akaike information criterion 2k - 2·logL on xs (§IV-A).
func (m *Model) AIC(xs [][]float64) float64 {
	return 2*float64(m.NumParams()) - 2*m.LogLikelihood(xs)
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	comps := make([]Component, len(m.Comps))
	for i, c := range m.Comps {
		mean := make([]float64, len(c.Mean))
		copy(mean, c.Mean)
		comps[i] = Component{Weight: c.Weight, Mean: mean, Cov: c.Cov.Clone()}
	}
	out, err := New(comps)
	if err != nil {
		// The source model was valid, so a copy must be too.
		panic(fmt.Sprintf("gmm: Clone: %v", err))
	}
	return out
}
