package core

import (
	"fmt"
	"math/rand"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/parallel"
	"serd/internal/trace"
)

// distState maintains the synthesized-side distribution O_syn and performs
// the entity-rejection-by-distribution check of §V case 2. X_syn vectors
// are labeled matching/non-matching by the O_real posterior (Eq. 7) and
// folded into per-side GMM accumulators with the incremental update of
// Eqs. 8-9; the check compares JSD(O'_syn, O_real) against
// α·JSD(O_syn, O_real) (Eq. 10) using common random numbers so Monte-Carlo
// noise cancels between the two estimates.
type distState struct {
	oReal      generator.Dist
	opts       Options
	pool       *parallel.Pool // the O_syn refit's EM
	tr         *trace.Tracer  // nil when disarmed
	pendingPos [][]float64
	pendingNeg [][]float64
	accM, accN *gmm.Accumulator
	nPos, nNeg int
	// lastFitTotal is the combined pending-pool size at the last failed
	// FitAIC attempt; commit defers the next attempt until the pools have
	// grown past it by fitRetryGrowth.
	lastFitTotal int
}

// delta carries the candidate's new pair vectors split by posterior label.
type delta struct {
	pos, neg [][]float64
}

func newDistState(oReal generator.Dist, opts Options, pool *parallel.Pool) *distState {
	return &distState{oReal: oReal, opts: opts, pool: pool, tr: trace.FromRecorder(opts.Metrics)}
}

// deltaVectors computes ΔX_syn for a candidate e' against (a sample of)
// the entities of T_e — the table on the other side of the pair space from
// e' (§V: "the potential generated pairs (e”, e'), ∀e” ∈ T_e"). cand holds
// e' alone and te holds T_e, both prepped under one schema. Each vector
// goes to pos or neg by its O_real posterior label, in index order.
func (d *distState) deltaVectors(cand, te *dataset.Preps, r *rand.Rand) delta {
	n := te.Len()
	var idx []int
	if n <= rejectionSample {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	} else {
		idx = partialPerm(r, n, rejectionSample)
	}
	span := d.step("core.s2.delta.chunk", len(idx))
	var out delta
	for _, i := range idx {
		x := te.SimVector(i, cand, 0)
		if d.oReal.IsMatch(x) {
			out.pos = append(out.pos, x)
		} else {
			out.neg = append(out.neg, x)
		}
	}
	span.End()
	return out
}

// step opens the trace span of one of the chain's in-attempt steps over n
// items, tagged as a one-worker Pool.Run chunk is so trace readers keep
// one shape; nil, and free, when the tracer is disarmed.
func (d *distState) step(name string, n int) *trace.Child {
	if d.tr == nil {
		return nil
	}
	return d.tr.Child(name, trace.Int("worker", 0), trace.Int("lo", 0), trace.Int("hi", n))
}

// partialPerm draws k distinct indices uniformly from [0, n) — the first k
// elements of a Fisher–Yates shuffle, with the virtual array stored
// sparsely so the draw costs O(k) time and space instead of materializing
// a full n-element permutation for a k-sized prefix.
func partialPerm(r *rand.Rand, n, k int) []int {
	swap := make(map[int]int, 2*k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swap[i]
		if !ok {
			vi = i
		}
		vj, ok := swap[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swap[j] = vi
	}
	return out
}

// active reports whether O_syn is estimable yet.
func (d *distState) active() bool { return d.accM != nil && d.accN != nil }

// reject applies Eq. 10 to the candidate's delta. Before O_syn is
// estimable it never rejects (there is no distribution to protect yet).
func (d *distState) reject(dl delta, r *rand.Rand) bool {
	if !d.active() {
		return false
	}
	if len(dl.pos) == 0 && len(dl.neg) == 0 {
		// Empty delta: O'_syn == O_syn, so Eq. 10 reads JSD > α·JSD and
		// can only reject for α < 1 on identical distributions — accept
		// without paying for two Monte-Carlo estimates of the same value.
		return false
	}
	snapM, snapN := d.accM, d.accN
	if len(dl.pos) > 0 {
		snapM = d.accM.Snapshot()
		if err := snapM.Add(dl.pos); err != nil {
			return false // numerically degenerate update; let it through
		}
	}
	if len(dl.neg) > 0 {
		snapN = d.accN.Snapshot()
		if err := snapN.Add(dl.neg); err != nil {
			return false
		}
	}
	before, okB := d.joint(d.accM, d.accN, d.nPos, d.nNeg)
	after, okA := d.joint(snapM, snapN, d.nPos+len(dl.pos), d.nNeg+len(dl.neg))
	if !okB || !okA {
		return false
	}
	// Common random numbers: one seed stripes one sample stream over both
	// estimates, so Monte-Carlo noise cancels between them. A side the
	// delta left unchanged is the same *Model in both joints, which
	// JSDPair evaluates once.
	span := d.step("gmm.jsd.chunk", jsdSamples)
	jsdBefore, jsdAfter := gmm.JSDPair(before, after, d.oReal, jsdSamples, r.Int63())
	span.End()
	// The running JSD(O_syn, O_real) is the pipeline's convergence signal;
	// expose it as a gauge so the live inspector shows the trajectory.
	d.opts.Metrics.Set("core.s2.jsd", jsdBefore)
	return jsdAfter > d.opts.Alpha*jsdBefore
}

// commit folds an accepted candidate's delta into O_syn, activating the
// accumulators once both sides have enough vectors to fit.
func (d *distState) commit(dl delta) {
	if d.active() {
		if len(dl.pos) > 0 {
			_ = d.accM.Add(dl.pos) // degenerate updates only stale the estimate
		}
		if len(dl.neg) > 0 {
			_ = d.accN.Add(dl.neg)
		}
		d.nPos += len(dl.pos)
		d.nNeg += len(dl.neg)
		return
	}
	d.pendingPos = append(d.pendingPos, dl.pos...)
	d.pendingNeg = append(d.pendingNeg, dl.neg...)
	d.nPos += len(dl.pos)
	d.nNeg += len(dl.neg)
	if len(d.pendingPos) < minFitVectors || len(d.pendingNeg) < minFitVectors {
		return
	}
	// After a failed fit, more of the same data usually fails the same
	// way: defer the next (expensive) FitAIC pair until the pools have
	// grown by ~25% since the last attempt instead of re-fitting on every
	// commit.
	total := len(d.pendingPos) + len(d.pendingNeg)
	if d.lastFitTotal > 0 && total < d.lastFitTotal+(d.lastFitTotal+3)/4 {
		return
	}
	fit := gmm.FitOptions{Rand: rand.New(rand.NewSource(d.opts.Seed + 2)), Metrics: d.opts.Metrics, Pool: d.pool}
	// These fits deliberately run without the pipeline context: whether a
	// tentative O_syn fit succeeded — and the retry gate it updates — is
	// checkpointed state, so cutting a fit short on cancellation would make
	// the resumed run diverge from the uninterrupted one. The pools here
	// are small (≤ 2 components), so the extra latency before the S2
	// loop's own stop check is bounded by one entity's work.
	mModel, errM := gmm.FitAIC(nil, d.pendingPos, 2, fit)
	nModel, errN := gmm.FitAIC(nil, d.pendingNeg, 2, fit)
	if errM != nil || errN != nil {
		d.fitFailed(total, firstErr(errM, errN))
		return
	}
	accM, errM := gmm.NewAccumulator(mModel, d.pendingPos, 0)
	accN, errN := gmm.NewAccumulator(nModel, d.pendingNeg, 0)
	if errM != nil || errN != nil {
		d.fitFailed(total, firstErr(errM, errN))
		return
	}
	d.accM, d.accN = accM, accN
	d.pendingPos, d.pendingNeg = nil, nil
}

// fitFailed records a failed tentative O_syn fit: the retry gate, a
// counter for the live inspector, and a journaled warning so the rejection
// check's delayed activation is auditable after the run.
func (d *distState) fitFailed(total int, err error) {
	d.lastFitTotal = total
	d.opts.Metrics.Add("core.s2.fit_failed", 1)
	d.opts.Journal.Warning("core.s2", "tentative O_syn fit failed; deferring retry until the pending pools grow", map[string]string{
		"pos":   fmt.Sprint(len(d.pendingPos)),
		"neg":   fmt.Sprint(len(d.pendingNeg)),
		"error": err.Error(),
	})
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// joint assembles the O_syn mixture from the two accumulators.
func (d *distState) joint(accM, accN *gmm.Accumulator, nPos, nNeg int) (*gmm.Joint, bool) {
	if nPos+nNeg == 0 {
		return nil, false
	}
	pi := float64(nPos) / float64(nPos+nNeg)
	j, err := gmm.NewJoint(accM.Model(), accN.Model(), pi)
	if err != nil {
		return nil, false
	}
	return j, true
}

// finalJSD reports JSD(O_syn, O_real) at the end of synthesis (0 when
// O_syn never became estimable). It draws from the main RNG stream and
// stays serial.
func (d *distState) finalJSD(r *rand.Rand) float64 {
	if !d.active() {
		return 0
	}
	j, ok := d.joint(d.accM, d.accN, d.nPos, d.nNeg)
	if !ok {
		return 0
	}
	return gmm.JSD(j, d.oReal, 2*jsdSamples, r)
}
