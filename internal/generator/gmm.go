package generator

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"

	"serd/internal/blocking"
	"serd/internal/dataset"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// GMM is the paper's own S1 backend: X+/X− construction with hard-negative
// mining, EM fits with AIC component selection, π = |X+|/(|X+|+|X−|).
// It spends no privacy budget — the GMM stack's DP story lives in the
// transformer bank, not in S1 — which makes it the non-private reference
// point of the DP head-to-head bench.
type GMM struct{}

// Name implements Generator.
func (GMM) Name() string { return "gmm" }

// Describe implements Generator.
func (GMM) Describe() string { return "gmm(em, aic)" }

// Fit implements Generator via FitGMM.
func (GMM) Fit(ctx context.Context, real *dataset.ER, opts FitOptions) (Dist, error) {
	return FitGMM(ctx, real, opts)
}

// OrGMM normalizes an optional Generator field: nil becomes GMM, the
// backend every run uses unless another is configured.
func OrGMM(g Generator) Generator {
	if g == nil {
		return GMM{}
	}
	return g
}

// State implements Generator: the gob-encoded gmm.JointState.
func (GMM) State(d Dist) ([]byte, error) {
	j, ok := d.(*gmm.Joint)
	if !ok {
		return nil, fmt.Errorf("generator: gmm backend cannot snapshot a %T", d)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(j.State()); err != nil {
		return nil, fmt.Errorf("generator: gmm state: %w", err)
	}
	return buf.Bytes(), nil
}

// FromState implements Generator.
func (GMM) FromState(data []byte) (Dist, error) {
	var st gmm.JointState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("generator: gmm state: %w", err)
	}
	return gmm.JointFromState(&st)
}

// WithDefaults resolves the fit-option defaults against the real match
// count — exported so every backend (and callers replaying S1's learning
// vectors) share one resolution.
func (o FitOptions) WithDefaults(matches int) FitOptions {
	if o.MaxComponents == 0 {
		// Real pair spaces carry several non-matching clusters (random
		// pairs, key-sharing siblings, same-location pairs) plus clean and
		// dirty match clusters; four components give AIC room to find them.
		o.MaxComponents = 4
	}
	if o.MaxNonMatching == 0 {
		o.MaxNonMatching = 20 * matches
		if o.MaxNonMatching < 2000 {
			o.MaxNonMatching = 2000
		}
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	o.Metrics = telemetry.OrNop(o.Metrics)
	return o
}

// LearningVectors computes the S1 training sets: X+ (all matching pairs)
// and X− (a down-sampled uniform non-matching sample, plus the blocker's
// hardest non-matching candidates unless NoHardNegatives). Every backend
// learns from the same vectors, so backend comparisons differ only in the
// density model, never the data. Both relations are prepped once on
// opts.Pool, and all three sets score positionally against those preps;
// the uniform sample is drawn serially, so the random stream is the same
// at any worker count. The blocker runs through blocking.CandidatesOn on
// opts.Pool, under a trace-only "generator.candidates" span.
func LearningVectors(real *dataset.ER, opts FitOptions) (xp, xn [][]float64, err error) {
	if real == nil {
		return nil, nil, fmt.Errorf("core: nil dataset")
	}
	if len(real.Matches) < 2 {
		return nil, nil, fmt.Errorf("core: need at least 2 matching pairs to learn the M-distribution, have %d", len(real.Matches))
	}
	a, b := real.Prep(opts.Pool)
	xp = dataset.PairVectors(real.Matches, a, b, opts.Pool)
	xn = dataset.PairVectors(real.NonMatchingPairs(opts.MaxNonMatching, opts.Rand), a, b, opts.Pool)
	if len(xn) < 2 {
		return nil, nil, fmt.Errorf("core: need at least 2 non-matching pairs, have %d", len(xn))
	}
	if !opts.NoHardNegatives {
		blocker := opts.Blocker
		if blocker == nil {
			blocker = DefaultBlocker(real.Schema())
		}
		hardN := opts.HardNonMatching
		if hardN == 0 {
			hardN = 2 * len(real.Matches)
		}
		span := trace.FromRecorder(opts.Metrics).Child("generator.candidates")
		cands, err := blocking.CandidatesOn(opts.Pool, blocker, real.A, real.B)
		if err != nil {
			return nil, nil, fmt.Errorf("core: hard-negative mining: %w", err)
		}
		span.End(trace.Int("candidates", len(cands)))
		for _, lp := range dataset.HardestNonMatches(real, cands, hardN, a, b, opts.Pool) {
			xn = append(xn, lp.Vector)
		}
	}
	return xp, xn, nil
}

// FitGMM performs the paper's S1 (§IV-A): computes X+ and X− and fits the
// M- and N-distributions with EM, selecting the component count by AIC.
// π is |X+| / (|X+| + |X−|) over the full pair space. Cancellation
// propagates into the EM fits (checked per iteration); no partial S1
// state survives a canceled learn. Each fitted mixture journals one
// generator_fit event.
func FitGMM(ctx context.Context, real *dataset.ER, opts FitOptions) (*gmm.Joint, error) {
	if real != nil {
		opts = opts.WithDefaults(len(real.Matches))
	}
	xp, xn, err := LearningVectors(real, opts)
	if err != nil {
		return nil, err
	}
	fit := gmm.FitOptions{Rand: opts.Rand, Metrics: opts.Metrics, Pool: opts.Pool}
	mModel, err := gmm.FitAIC(ctx, xp, opts.MaxComponents, fit)
	if err != nil {
		return nil, fmt.Errorf("core: fitting M-distribution: %w", err)
	}
	journalGMMFit(opts.Journal, "s1.match", mModel, xp)
	nModel, err := gmm.FitAIC(ctx, xn, opts.MaxComponents, fit)
	if err != nil {
		return nil, fmt.Errorf("core: fitting N-distribution: %w", err)
	}
	journalGMMFit(opts.Journal, "s1.nonmatch", nModel, xn)
	// π = |X+| / (|X+| + |X−|) over the learning sets (§II-B). Note that S2
	// uses a separate sampling fraction (core's match fraction) so that the
	// synthesized dataset reproduces the real match count.
	pi := float64(len(xp)) / float64(len(xp)+len(xn))
	return gmm.NewJoint(mModel, nModel, pi)
}

// journalGMMFit emits one fitted mixture's provenance event.
func journalGMMFit(j *journal.Journal, name string, m *gmm.Model, xs [][]float64) {
	if j == nil {
		return
	}
	j.GeneratorFit(journal.GeneratorFitData{
		Backend: "gmm",
		Name:    name,
		Dim:     m.Dim(),
		Samples: len(xs),
		Detail:  fmt.Sprintf("components=%d loglik=%.6g", len(m.Comps), m.LogLikelihood(xs)),
	})
}

// DefaultBlocker unions q-gram blocking over the textual columns (falling
// back to the first column when none are textual).
func DefaultBlocker(schema *dataset.Schema) blocking.Blocker {
	var union blocking.Union
	for i, col := range schema.Cols {
		if col.Kind == dataset.Textual {
			union = append(union, blocking.QGram{Column: i})
		}
	}
	if len(union) == 0 {
		return blocking.QGram{Column: 0}
	}
	return union
}
