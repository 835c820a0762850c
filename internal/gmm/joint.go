package gmm

import (
	"errors"
	"math"
	"math/rand"

	"serd/internal/detrand"
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

// logPDFRows writes to out[r] LogPDF at row r of xs, bit for bit: M's
// densities over every row, then N's, then combine per row. mOut is
// len(out) scratch for M's; logs and y are Model.logPDFRows's.
func (j *Joint) logPDFRows(xs, out, mOut, logs, y []float64) {
	j.M.logPDFRows(xs, mOut, logs, y)
	j.N.logPDFRows(xs, out, logs, y)
	for r, ln := range out {
		out[r] = j.combine(mOut[r], ln)
	}
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
	var buf [16]float64
	z := buf[:]
	if d := j.Dim(); d <= len(buf) {
		z = buf[:d]
	} else {
		z = make([]float64, d)
	}
	x = make([]float64, len(z))
	return x, j.sampleInto(r, z, x)
}

// sampleInto is Sample writing into x, with z as scratch for the normals;
// both have length Dim. Its draws, in order: a side uniform, a component
// uniform, Dim normals.
func (j *Joint) sampleInto(r *rand.Rand, z, x []float64) (matching bool) {
	m, matching := j.side(r.Float64())
	c := m.component(r.Float64())
	for k := range z {
		z[k] = r.NormFloat64()
	}
	c.FromStandard(z, x)
	clamp01(x)
	return matching
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
// each drawn from its own SplitMix64 substream seeded by
// parallel.SplitSeeds(seed, ·) and reduced in stripe order, so both
// values depend only on (before, after, q, n, seed). Each
// value is the one a stripe-wise JSD of that joint alone would give:
// stripe s draws its before/after samples and then its q samples from one
// substream, and the noise cancels between the two estimates.
//
// Both estimates share that substream's draws. Joint.Sample takes a side
// uniform, a component uniform and Dim normals whichever side and
// component it picks, so the raw draws are taken once and mapped through
// each joint, and the stream reaches the q-half in the same state for both:
// q's samples and its densities are computed once. A side model the two
// joints hold by the same pointer is evaluated once at each q sample, and
// when both pick the same component the after sample is a copy of the
// before sample.
// before and after must have the same dimension.
func JSDPair(before, after *Joint, q Dist, n int, seed int64) (jb, ja float64) {
	if before.Dim() != after.Dim() {
		panic("gmm: JSDPair joints differ in dimension")
	}
	if n <= 0 {
		n = 256
	}
	stripes := (n + jsdStripe - 1) / jsdStripe
	// One source re-seeded per stripe: rand.Rand keeps no state of its own
	// for the draws used here, so each stripe sees a fresh substream.
	var src detrand.SplitMix
	r := rand.New(&src)
	qj, _ := q.(*Joint)
	sc := newPairScratch(before, after, qj)
	var tot pairSums
	for s, sub := range parallel.SplitSeeds(seed, stripes) {
		count := min(jsdStripe, n-s*jsdStripe)
		src.Seed(sub)
		sums := pairStripe(before, after, q, qj, count, r, &sc)
		tot.pb += sums.pb
		tot.qb += sums.qb
		tot.pa += sums.pa
		tot.qa += sums.qa
	}
	return jsdMean(tot.pb, tot.qb, n), jsdMean(tot.pa, tot.qa, n)
}

// pairSums holds one stripe's undivided halfSum values: the joint-side
// (p) and q-side directions of the before (b) and after (a) estimates.
type pairSums struct{ pb, qb, pa, qa float64 }

// pairScratch is one JSDPair call's working memory, carved from one
// slice. A stripe's samples sit back to back in rows: before's (P), then
// q's (Q), then after's (A), so that every density covers one contiguous
// run of them — q all three, before P and Q, after Q and A.
type pairScratch struct {
	z, y, rows, logs []float64 // normals, forward solves, samples, per-component densities
	lq, lqM          []float64 // q's log densities at P, Q, A; for a *Joint q, its M side's
	bm, bn, am, an   []float64 // before's side models at P, Q; after's at Q, A
}

// newPairScratch sizes a stripe's scratch by the largest component count
// among the models JSDPair evaluates in batches: both joints' sides and,
// for a *Joint q, q's.
func newPairScratch(before, after, qj *Joint) pairScratch {
	comps := max(len(before.M.Comps), len(before.N.Comps), len(after.M.Comps), len(after.N.Comps))
	if qj != nil {
		comps = max(comps, len(qj.M.Comps), len(qj.N.Comps))
	}
	const s = jsdStripe
	dim := before.Dim()
	buf := make([]float64, 5*dim+3*s*dim+3*s*comps+14*s)
	take := func(n int) []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	return pairScratch{
		z: take(dim), y: take(4 * dim), rows: take(3 * s * dim), logs: take(3 * s * comps),
		lq: take(3 * s), lqM: take(3 * s),
		bm: take(2 * s), bn: take(2 * s), am: take(2 * s), an: take(2 * s),
	}
}

// pairStripe draws one stripe of count samples per side and returns both
// estimates' sums, each bit-identical to halfSum's. It draws every sample
// first, in the order halfSum's Sample calls take them, then evaluates
// each density over all of its rows at once (each row through LogPDF's
// operations), then adds the four sums in sample order. qj is q when q is
// a *Joint, whose draws are taken straight into the rows.
func pairStripe(before, after *Joint, q Dist, qj *Joint, count int, r *rand.Rand, sc *pairScratch) pairSums {
	dim, c := before.Dim(), count
	rows := sc.rows[:3*c*dim]
	z := sc.z
	for i := 0; i < c; i++ {
		// Joint.Sample's draws, in its order.
		u0, u1 := r.Float64(), r.Float64()
		for k := range z {
			z[k] = r.NormFloat64()
		}
		mb, _ := before.side(u0)
		ma, _ := after.side(u0)
		cb, ca := mb.component(u1), ma.component(u1)
		xb, xa := rows[i*dim:(i+1)*dim], rows[(2*c+i)*dim:(2*c+i+1)*dim]
		cb.FromStandard(z, xb)
		clamp01(xb)
		if ca == cb {
			copy(xa, xb)
			continue
		}
		ca.FromStandard(z, xa)
		clamp01(xa)
	}
	for i := 0; i < c; i++ {
		x := rows[(c+i)*dim : (c+i+1)*dim]
		if qj == nil {
			xq, _ := q.Sample(r)
			copy(x, xq)
			continue
		}
		qj.sampleInto(r, z, x)
	}

	lq := sc.lq[:3*c]
	if qj != nil {
		qj.logPDFRows(rows, lq, sc.lqM[:3*c], sc.logs, sc.y)
	} else {
		for i := range lq {
			lq[i] = q.LogPDF(rows[i*dim : (i+1)*dim])
		}
	}
	bm, bn := sc.bm[:2*c], sc.bn[:2*c]
	before.M.logPDFRows(rows[:2*c*dim], bm, sc.logs, sc.y)
	before.N.logPDFRows(rows[:2*c*dim], bn, sc.logs, sc.y)
	am, an := sc.am[:2*c], sc.an[:2*c]
	sc.afterSide(after.M, before.M, bm, am, rows, c, dim)
	sc.afterSide(after.N, before.N, bn, an, rows, c, dim)

	var s pairSums
	for i := 0; i < c; i++ {
		lb, la := before.combine(bm[i], bn[i]), after.combine(am[c+i], an[c+i])
		s.pb += lb - logMid(lb, lq[i])
		s.pa += la - logMid(la, lq[2*c+i])
	}
	for i := 0; i < c; i++ {
		lqi := lq[c+i]
		lb, la := before.combine(bm[c+i], bn[c+i]), after.combine(am[i], an[i])
		s.qb += lqi - logMid(lqi, lb)
		s.qa += lqi - logMid(lqi, la)
	}
	return s
}

// afterSide fills out with after's side model m at Q and then A, the 3c
// rows of rows. When before holds the same model, prev holds its values
// at P and Q, and Q's are reused.
func (sc *pairScratch) afterSide(m, prev *Model, prevOut, out, rows []float64, c, dim int) {
	if m != prev {
		m.logPDFRows(rows[c*dim:], out, sc.logs, sc.y)
		return
	}
	copy(out[:c], prevOut[c:])
	m.logPDFRows(rows[2*c*dim:], out[c:], sc.logs, sc.y)
}
