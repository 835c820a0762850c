// Package generator defines the pluggable S1 seam: a Generator fits the
// O-distribution of a real ER dataset (optionally under a differential-
// privacy budget charged through the run's ledger) and the fitted Dist
// drives everything downstream — S2's similarity-vector sampling, the
// rejection check's JSD estimates and S3's posterior labeling.
//
// The paper's GMM stack (EM + AIC fit, FitGMM) is the first backend (GMM)
// and the one every run uses unless another is configured; PrivBayes is
// the second, a marginal-based DP synthesizer in the style of Zhang et
// al.'s PrivBayes. A third backend plugs in by implementing Generator and
// adding a case to config.Generators.Build — nothing in core, checkpoint
// or the journal needs to change, because all of them speak only these
// two interfaces plus the gob payload returned by State.
package generator

import (
	"context"
	"math/rand"

	"serd/internal/blocking"
	"serd/internal/dataset"
	"serd/internal/journal"
	"serd/internal/parallel"
	"serd/internal/telemetry"
)

// Dist is a fitted O-distribution: the joint similarity-vector law
// p(x) = π·p_m(x) + (1−π)·p_n(x) that S2 samples from and S3 labels
// against. *gmm.Joint implements it; every backend's fitted state must.
// Implementations are read-only after Fit and safe for concurrent use
// (the S3 labeling pass scores pairs from the worker pool).
type Dist interface {
	// Dim is the similarity-vector dimensionality.
	Dim() int
	// Sample draws a similarity vector from the joint law: from the
	// M-distribution with probability π (matching=true), else from N.
	// Coordinates lie in [0, 1].
	Sample(r *rand.Rand) (x []float64, matching bool)
	// SampleMatching draws from the M-distribution (S2-2's draw for a
	// pair sampled as matching).
	SampleMatching(r *rand.Rand) []float64
	// SampleNonMatching draws from the N-distribution.
	SampleNonMatching(r *rand.Rand) []float64
	// PosteriorMatch returns P_m(x), the posterior probability that x
	// belongs to the M-distribution (Eq. 7).
	PosteriorMatch(x []float64) float64
	// IsMatch labels x matching when P_m(x) >= P_n(x) (§IV-C).
	IsMatch(x []float64) bool
	// LogPDF evaluates the log density of the joint law at x (the JSD
	// estimators' requirement; see gmm.Dist).
	LogPDF(x []float64) float64
}

// FitOptions controls S1 — shared by every backend (core.Options.Learn).
type FitOptions struct {
	// MaxComponents bounds the AIC search for the number of mixture
	// components g (default 3). GMM backend only.
	MaxComponents int
	// MaxNonMatching caps the number of non-matching pairs sampled for
	// learning the N-distribution (default 20·|M|, at least 2000). The
	// quadratic non-matching space is always down-sampled in practice.
	MaxNonMatching int
	// Blocker supplies the candidate generator whose 2·|M| hardest
	// non-matching pairs are mixed into X−. Real benchmark label sets are
	// built from blocking survivors, so their N-distribution gives the
	// near-miss clusters real weight; a uniform X− sample would miss them
	// entirely and the synthesized dataset would teach matchers nothing
	// about the decision boundary. Nil selects a q-gram union blocker over
	// the textual columns.
	Blocker blocking.Blocker
	// Metrics receives S1 telemetry (EM iteration counts and log-likelihood
	// trajectories, threaded into gmm.FitOptions). Nil disables recording.
	Metrics telemetry.Recorder
	// Journal, when set, receives one generator_fit provenance event per
	// fitted distribution.
	Journal *journal.Journal
	// Privacy is the run's ledger. DP backends register their releases
	// here before adding noise, so `serd audit verify` can recompute the
	// spent ε from the journal alone; nil skips the accounting (library
	// callers without a ledger). The GMM backend never charges — it is
	// not differentially private, which is exactly what the head-to-head
	// bench quantifies.
	Privacy *journal.Ledger
	// Rand drives sampling, EM initialization and marginal noise.
	Rand *rand.Rand
	// Pool, when set, parallelizes the learning vectors' scoring and the
	// EM E- and M-steps (bit-identical at any worker count; see
	// dataset.PairVectors and gmm.FitOptions.Pool).
	Pool *parallel.Pool
}

// Generator is one pluggable S1 backend. Implementations are stateless
// configuration holders: Fit produces a Dist, and State/FromState
// round-trip that Dist through the gob checkpoint payload so a resumed
// run never re-fits (or re-charges) anything.
type Generator interface {
	// Name is the stable backend identifier recorded in journals and
	// backend-tagged checkpoints ("gmm", "privbayes"). Resume refuses a
	// checkpoint whose tag does not match the configured backend's Name.
	Name() string
	// Describe is a journalable one-line description of the backend with
	// its resolved parameters, e.g. "privbayes(eps=1, delta=1e-05, bins=8)".
	Describe() string
	// Fit learns the O-distribution of the real dataset. Cancellation is
	// checked per fit iteration (EM iteration for gmm, marginal release
	// for privbayes); no partial state survives a canceled fit, but DP
	// charges registered before the cancel remain spent — budget is
	// consumed when the release is committed to, not when it completes.
	Fit(ctx context.Context, real *dataset.ER, opts FitOptions) (Dist, error)
	// State snapshots a Dist produced by this backend's Fit or FromState
	// as a self-contained gob payload.
	State(d Dist) ([]byte, error)
	// FromState rebuilds a Dist bit-for-bit from a State payload.
	FromState(data []byte) (Dist, error)
}
