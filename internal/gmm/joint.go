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
	return j.combine(j.M.LogPDF(x), j.N.LogPDF(x))
}

// combine is LogPDF from the two sides' log densities at one x, mLog =
// M.LogPDF(x) and nLog = N.LogPDF(x).
func (j *Joint) combine(mLog, nLog float64) float64 {
	lm := j.logPi + mLog
	ln := j.log1mPi + nLog
	if j.Pi == 0 {
		return ln
	}
	if j.Pi == 1 {
		return lm
	}
	hi := math.Max(lm, ln)
	return addLog(hi, expShift(lm-hi)+expShift(ln-hi))
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
	m, matching := j.side(r.Float64())
	return m.SampleClamped(r), matching
}

// side returns the model a uniform draw u selects — M when u < π — and
// whether it is M.
func (j *Joint) side(u float64) (*Model, bool) {
	if u < j.Pi {
		return j.M, true
	}
	return j.N, false
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
	sp := halfSum(p, q, n, r)
	return jsdMean(sp, halfSum(q, p, n, r), n)
}

// jsdMean turns the two directions' undivided sums over n samples each
// into the estimate, clamped at 0.
func jsdMean(sp, sq float64, n int) float64 {
	jsd := 0.5*(sp/float64(n)) + 0.5*(sq/float64(n))
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
		sum += la - logMid(la, b.LogPDF(x))
	}
	return sum
}

// logMid returns log m for m = (e^la + e^lb)/2, the estimator's midpoint
// density, with log-sum-exp stability.
func logMid(la, lb float64) float64 {
	hi := math.Max(la, lb)
	return addLog(hi, expShift(la-hi)+expShift(lb-hi)) - math.Ln2
}

// jsdStripe is the fixed sample count per JSDPair RNG substream. The
// stripe size is part of the estimator's definition, not a tuning knob:
// changing it changes which substream draws which sample and therefore the
// estimates.
const jsdStripe = 32

// JSDPair returns the two estimates Eq. 10 compares, JSD(before, q) and
// JSD(after, q), from one striped pass on common random numbers. The
// sample stream of n samples per side is split into fixed-size stripes,
// each drawn from its own SplitSeeds(seed, ·) substream and reduced in
// stripe order, so both values depend only on (before, after, q, n, seed)
// and are bit-identical at any worker count, including a nil pool. Each
// value is the one a stripe-wise JSD of that joint alone would give:
// stripe s draws its before/after samples and then its q samples from one
// substream, and the noise cancels between the two estimates.
//
// Both estimates share that substream's draws. Joint.Sample takes a side
// uniform, a component uniform and Dim normals whichever side and
// component it picks, so the raw draws are taken once and mapped through
// each joint, and the stream reaches the q-half in the same state for both:
// q's samples and its densities are computed once. A side model the two
// joints hold by the same pointer is evaluated once per x, and when both
// pick the same component the sample, and its q density, are shared too.
// before and after must have the same dimension.
func JSDPair(before, after *Joint, q Dist, n int, seed int64, pool *parallel.Pool) (jb, ja float64) {
	if before.Dim() != after.Dim() {
		panic("gmm: JSDPair joints differ in dimension")
	}
	if n <= 0 {
		n = 256
	}
	stripes := (n + jsdStripe - 1) / jsdStripe
	seeds := parallel.SplitSeeds(seed, stripes)
	sums := make([]pairSums, stripes)
	pool.Run("gmm.jsd", stripes, func(s int) {
		count := jsdStripe
		if s == stripes-1 {
			count = n - s*jsdStripe
		}
		sums[s] = pairStripe(before, after, q, count, rand.New(rand.NewSource(seeds[s])))
	})
	var tot pairSums
	for _, s := range sums {
		tot.pb += s.pb
		tot.qb += s.qb
		tot.pa += s.pa
		tot.qa += s.qa
	}
	return jsdMean(tot.pb, tot.qb, n), jsdMean(tot.pa, tot.qa, n)
}

// pairSums holds one stripe's undivided halfSum values: the joint-side
// (p) and q-side directions of the before (b) and after (a) estimates.
type pairSums struct{ pb, qb, pa, qa float64 }

// pairStripe draws one stripe of count samples per side and accumulates
// both estimates' sums in sample order, as halfSum does for each alone.
func pairStripe(before, after *Joint, q Dist, count int, r *rand.Rand) pairSums {
	// One scratch buffer per stripe: the samples reach q.LogPDF, an
	// interface call, so a stack array would escape to the heap anyway.
	dim := before.Dim()
	buf := make([]float64, 3*dim)
	z, xb, xa := buf[:dim], buf[dim:2*dim], buf[2*dim:]
	var s pairSums
	for i := 0; i < count; i++ {
		// Joint.Sample's draws, in its order.
		u0, u1 := r.Float64(), r.Float64()
		for k := range z {
			z[k] = r.NormFloat64()
		}
		mb, _ := before.side(u0)
		ma, _ := after.side(u0)
		cb, ca := mb.component(u1), ma.component(u1)
		cb.FromStandard(z, xb)
		clamp01(xb)
		lqb := q.LogPDF(xb)
		if ca == cb {
			lb, la := pairLogPDF(before, after, xb)
			s.pb += lb - logMid(lb, lqb)
			s.pa += la - logMid(la, lqb)
			continue
		}
		lb := before.LogPDF(xb)
		s.pb += lb - logMid(lb, lqb)
		ca.FromStandard(z, xa)
		clamp01(xa)
		la := after.LogPDF(xa)
		s.pa += la - logMid(la, q.LogPDF(xa))
	}
	for i := 0; i < count; i++ {
		x, _ := q.Sample(r)
		lq := q.LogPDF(x)
		lb, la := pairLogPDF(before, after, x)
		s.qb += lq - logMid(lq, lb)
		s.qa += lq - logMid(lq, la)
	}
	return s
}

// pairLogPDF returns before.LogPDF(x) and after.LogPDF(x), evaluating a
// side model the two joints share once.
func pairLogPDF(before, after *Joint, x []float64) (lb, la float64) {
	mb, nb := before.M.LogPDF(x), before.N.LogPDF(x)
	ma, na := mb, nb
	if after.M != before.M {
		ma = after.M.LogPDF(x)
	}
	if after.N != before.N {
		na = after.N.LogPDF(x)
	}
	return before.combine(mb, nb), after.combine(ma, na)
}
