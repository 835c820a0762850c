package gmm

import (
	"errors"
	"math"
	"math/rand"

	"serd/internal/parallel"
)

// Joint is the O-distribution of the paper (§II-B): the mixture
// p(x) = π·p_m(x) + (1-π)·p_n(x) of the matching (M) and non-matching (N)
// similarity-vector distributions.
type Joint struct {
	M  *Model  // matching distribution
	N  *Model  // non-matching distribution
	Pi float64 // probability of matching, |X+| / (|X+|+|X-|)

	logPi, log1mPi float64 // math.Log(Pi) and math.Log(1-Pi)
}

// NewJoint validates and assembles an O-distribution. It is the only
// constructor: it caches the log weights LogPDF and PosteriorMatch use.
func NewJoint(m, n *Model, pi float64) (*Joint, error) {
	switch {
	case m == nil || n == nil:
		return nil, errors.New("gmm: Joint needs both M and N models")
	case m.Dim() != n.Dim():
		return nil, errors.New("gmm: M and N dimensionality differ")
	case pi < 0 || pi > 1 || math.IsNaN(pi):
		return nil, errors.New("gmm: pi outside [0,1]")
	}
	return &Joint{M: m, N: n, Pi: pi, logPi: math.Log(pi), log1mPi: math.Log(1 - pi)}, nil
}

// Dim returns the similarity-vector dimensionality.
func (j *Joint) Dim() int { return j.M.Dim() }

// PDF evaluates the O-distribution density π·p_m + (1-π)·p_n at x.
func (j *Joint) PDF(x []float64) float64 {
	return j.Pi*j.M.PDF(x) + (1-j.Pi)*j.N.PDF(x)
}

// LogPDF evaluates the log of PDF with log-sum-exp stability.
func (j *Joint) LogPDF(x []float64) float64 {
	lm := j.logPi + j.M.LogPDF(x)
	ln := j.log1mPi + j.N.LogPDF(x)
	if j.Pi == 0 {
		return ln
	}
	if j.Pi == 1 {
		return lm
	}
	hi := math.Max(lm, ln)
	return hi + math.Log(math.Exp(lm-hi)+math.Exp(ln-hi))
}

// PosteriorMatch returns P_m(x), the posterior probability that x belongs to
// the M-distribution (paper §IV-C):
// P_m(x) = π p_m(x) / (π p_m(x) + (1-π) p_n(x)).
func (j *Joint) PosteriorMatch(x []float64) float64 {
	lm := j.logPi + j.M.LogPDF(x)
	ln := j.log1mPi + j.N.LogPDF(x)
	if math.IsInf(lm, -1) && math.IsInf(ln, -1) {
		return 0.5
	}
	// Sigmoid of the log-odds.
	return 1 / (1 + math.Exp(ln-lm))
}

// IsMatch labels x matching when P_m(x) >= P_n(x) (§IV-C).
func (j *Joint) IsMatch(x []float64) bool { return j.PosteriorMatch(x) >= 0.5 }

// Sample draws a similarity vector: from M with probability π (matching=true)
// and from N otherwise (step S2-2 of SERD). Coordinates are clamped to the
// valid similarity range [0, 1].
func (j *Joint) Sample(r *rand.Rand) (x []float64, matching bool) {
	if r.Float64() < j.Pi {
		return j.M.SampleClamped(r), true
	}
	return j.N.SampleClamped(r), false
}

// SampleMatching draws a similarity vector from the M-distribution,
// clamped to [0, 1] — S2-2's draw for a pair sampled as matching.
func (j *Joint) SampleMatching(r *rand.Rand) []float64 { return j.M.SampleClamped(r) }

// SampleNonMatching draws a similarity vector from the N-distribution,
// clamped to [0, 1].
func (j *Joint) SampleNonMatching(r *rand.Rand) []float64 { return j.N.SampleClamped(r) }

// Dist is the minimal distribution surface the JSD estimators need:
// anything that samples similarity vectors and evaluates its own log
// density. *Joint implements it, as does every pluggable S1 backend's
// fitted distribution — which is what lets the rejection check compare
// O_syn (always a *Joint) against a non-GMM O_real.
type Dist interface {
	Sample(r *rand.Rand) (x []float64, matching bool)
	LogPDF(x []float64) float64
}

// JSD estimates the Jensen-Shannon divergence between the O-distributions p
// and q (Eq. 3) by Monte-Carlo with n samples from each side:
// JSD = ½ E_p[log p/m] + ½ E_q[log q/m], m = (p+q)/2. The result is in
// [0, log 2] up to sampling noise and is symmetric in distribution (the
// estimator uses both directions).
func JSD(p, q Dist, n int, r *rand.Rand) float64 {
	if n <= 0 {
		n = 256
	}
	jsd := 0.5*(halfSum(p, q, n, r)/float64(n)) + 0.5*(halfSum(q, p, n, r)/float64(n))
	if jsd < 0 {
		return 0 // Monte-Carlo noise can dip slightly below zero
	}
	return jsd
}

// halfSum accumulates n samples of log a/m, m = (a+b)/2, drawn from a —
// one direction of the JSD estimator, undivided.
func halfSum(a, b Dist, n int, r *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		x, _ := a.Sample(r)
		la := a.LogPDF(x)
		lb := b.LogPDF(x)
		// log m = log((exp la + exp lb)/2)
		hi := math.Max(la, lb)
		lm := hi + math.Log(math.Exp(la-hi)+math.Exp(lb-hi)) - math.Ln2
		sum += la - lm
	}
	return sum
}

// jsdStripe is the fixed sample count per JSDStriped RNG substream. The
// stripe size is part of the estimator's definition, not a tuning knob:
// changing it changes which substream draws which sample and therefore the
// estimate.
const jsdStripe = 32

// JSDStriped is JSD with the sample stream split into fixed-size stripes,
// each drawn from its own SplitSeeds(seed, ·) substream and reduced in
// stripe order — so the estimate depends only on (p, q, n, seed) and is
// bit-identical at any worker count, including a nil pool. Callers that
// score two mixtures with common random numbers pass the same seed to both
// calls; substream i then draws the same underlying sample stream in each,
// and the Monte-Carlo noise cancels exactly as with the serial estimator.
func JSDStriped(p, q Dist, n int, seed int64, pool *parallel.Pool) float64 {
	if n <= 0 {
		n = 256
	}
	stripes := (n + jsdStripe - 1) / jsdStripe
	seeds := parallel.SplitSeeds(seed, stripes)
	sumsP := make([]float64, stripes)
	sumsQ := make([]float64, stripes)
	pool.Run("gmm.jsd", stripes, func(s int) {
		r := rand.New(rand.NewSource(seeds[s]))
		count := jsdStripe
		if s == stripes-1 {
			count = n - s*jsdStripe
		}
		sumsP[s] = halfSum(p, q, count, r)
		sumsQ[s] = halfSum(q, p, count, r)
	})
	var sp, sq float64
	for s := 0; s < stripes; s++ {
		sp += sumsP[s]
		sq += sumsQ[s]
	}
	jsd := 0.5*(sp/float64(n)) + 0.5*(sq/float64(n))
	if jsd < 0 {
		return 0
	}
	return jsd
}

// KL estimates the Kullback-Leibler divergence KL(p || q) between two
// mixture models by Monte-Carlo with n samples from p.
func KL(p, q *Model, n int, r *rand.Rand) float64 {
	if n <= 0 {
		n = 256
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		x := p.Sample(r)
		sum += p.LogPDF(x) - q.LogPDF(x)
	}
	kl := sum / float64(n)
	if kl < 0 {
		return 0
	}
	return kl
}
