// Package core implements SERD — Synthesize ER Datasets — the paper's
// primary contribution (Algorithm overview in §III, Figure 3): S1 learns
// the matching/non-matching similarity-vector distributions of the real
// dataset; S2 iteratively samples a synthesized entity and a similarity
// vector from O_real and synthesizes a counterpart entity per column type,
// subject to the entity-rejection checks of §V; S3 labels all remaining
// pairs by posterior probability.
//
// S1 runs through one seam, Options.Generator: the paper's Gaussian
// mixtures (generator.GMM, the default) or any other generator.Generator
// backend such as the PrivBayes-style DP synthesizer. The fit logic lives
// in internal/generator.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/gan"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/parallel"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// Options configures the SERD synthesizer.
type Options struct {
	// SizeA and SizeB are the synthesized table sizes n_a and n_b
	// (default: the real table sizes, per the problem statement §II-D).
	SizeA, SizeB int
	// Learn controls S1 (ignored when Learned is set).
	Learn generator.FitOptions
	// Learned supplies a precomputed O_real, skipping S1.
	Learned *gmm.Joint
	// Generator selects the S1 generative backend (nil = generator.GMM,
	// the paper's Gaussian mixtures). S1 calls its Fit, checkpoints carry
	// its backend-tagged gob state, and resuming with a different backend
	// than the checkpoint's is refused. Learned skips the fit; the backend
	// then only snapshots and restores the supplied joint.
	Generator generator.Generator
	// Privacy is the run's privacy ledger, handed to DP backends so their
	// fit releases are charged (and `serd audit verify` can recompute
	// their ε). Nil skips the accounting. The GMM backend never touches
	// it.
	Privacy *journal.Ledger
	// Synthesizers maps each textual column name to its string synthesizer
	// (§VI). Required for every textual column.
	Synthesizers map[string]textsynth.Synthesizer
	// GAN enables cold start from the generator and discriminator-based
	// entity rejection (§V case 1). Optional: without it, cold start is
	// assembled per column (§IV-B2) and case-1 rejection is skipped.
	GAN *gan.GAN
	// GANDecode supplies decode candidates for GAN cold start.
	GANDecode gan.DecodeOptions
	// Alpha is the distribution-rejection slack of Eq. 10 (default 1).
	Alpha float64
	// Beta is the discriminator rejection threshold (default 0.6, the
	// paper's setting).
	Beta float64
	// DisableRejection turns off both rejection checks — the SERD- ablation
	// of §VII.
	DisableRejection bool
	// MaxRejections caps re-synthesis attempts per entity before the last
	// candidate is accepted regardless (default 8; the paper instead tunes
	// α/β to guarantee progress — the cap is a belt-and-braces bound).
	MaxRejections int
	// S3Blocker, when set, restricts S3's posterior labeling to the
	// blocker's candidate pairs; pairs outside the candidate set are
	// assumed non-matching. Nil labels every pair (the paper's exact S3,
	// which is quadratic in the table sizes). A blocked run journals a
	// blocking event with the candidate count, reduction ratio and the
	// measured recall bound on the S2-sampled match pairs.
	S3Blocker blocking.Blocker
	// S3RecallFloor, with a blocker set, is the minimum acceptable
	// measured recall bound of the candidate set on the S2-sampled match
	// pairs — the held-out labeled sample whose labels are known
	// independently of S3. A bound below the floor journals a warning;
	// the run continues, but the audit trail flags that blocking may have
	// missed matches. 0 disables the check.
	S3RecallFloor float64
	// Stream, when set, receives every accepted entity the moment S2
	// commits it and every match row during finalization, so dataset
	// output needs no post-run whole-dataset save. The caller owns
	// Finalize/Abort. Streaming is an execution parameter like Workers:
	// the streamed bytes are identical to dataset.SaveDir's, no RNG draw
	// moves, and it is excluded from the journaled configuration.
	Stream *dataset.StreamWriter
	// Progress, when set, is called after each accepted entity with the
	// number of entities synthesized so far and the total target — hook
	// for CLI progress output on long runs. Rejected attempts do not fire
	// it; the core.s2.attempts and core.s2.rejected.* counters show them.
	Progress func(done, total int)
	// Metrics receives pipeline telemetry: S1/S2/S3 phase spans, per-attempt
	// rejection counters, the JSD trajectory, EM iteration counts and
	// entities/sec. Nil means no recording (an allocation-free no-op);
	// recording never touches the RNG stream, so instrumented and
	// uninstrumented runs with the same seed produce identical datasets.
	Metrics telemetry.Recorder
	// Journal, when set, receives durable provenance events: the resolved
	// synthesis configuration, S1's generator fit summaries and the final
	// synthesis summary. Phase boundaries and ε checkpoints arrive through
	// the Metrics recorder when it is journal-instrumented
	// (journal.Instrument). Journaling, like Metrics, never touches the
	// RNG stream.
	Journal *journal.Journal
	// Workers bounds the worker pool behind the hot path: S2's candidate
	// synthesis ahead of its serial chain, GMM E-steps and S3 labeling.
	// 0 means GOMAXPROCS. Workers is an execution parameter, not a
	// semantic one: any value — including 1 — produces bit-identical
	// datasets and journals for the same seed, which is why it is excluded
	// from the journaled configuration.
	Workers int
	// Checkpoint, when set, persists the pipeline state after S1 and every
	// Checkpoint.Every() accepted S2 entities, and writes a final
	// checkpoint when the context is canceled mid-S2 or mid-S3.
	// Checkpointing never touches the RNG stream: runs with and without it
	// produce identical datasets.
	Checkpoint *checkpoint.Checkpointer
	// Resume continues a checkpointed run: with an S2 state the whole
	// pipeline position (entity pools, rejection state, RNG stream) is
	// restored and the sampled labels are replayed from S2's plans; with
	// only an S1 state the learned O_real is restored and S2 starts fresh.
	// The result is bit-identical to the uninterrupted run.
	Resume *checkpoint.CoreState
	// Seed drives all randomness.
	Seed int64
}

// S2 rejection constants (§V).
const (
	// rejectionSample is t, the number of entities sampled from T_e when
	// computing ΔX_syn (§V remark 1).
	rejectionSample = 25
	// jsdSamples is the Monte-Carlo sample count per JSD estimate.
	jsdSamples = 128
	// minFitVectors is the number of labeled similarity vectors each of
	// X+_syn and X−_syn must reach before distribution rejection
	// activates: too few vectors cannot define O_syn.
	minFitVectors = 12
)

// matchFraction is the probability of drawing the sampled similarity
// vector from the M-distribution in step S2-2: |M_real| / (sizeA + sizeB
// − 1), capped at ½, makes the expected number of sampled matching pairs
// equal the real match count, so E_syn reproduces the real dataset's
// labeled-match volume.
func matchFraction(real *dataset.ER, sizeA, sizeB int) float64 {
	total := sizeA + sizeB - 1
	if total < 1 {
		total = 1
	}
	return math.Min(float64(len(real.Matches))/float64(total), 0.5)
}

func (o Options) withDefaults(real *dataset.ER) Options {
	if o.SizeA == 0 {
		o.SizeA = real.A.Len()
	}
	if o.SizeB == 0 {
		o.SizeB = real.B.Len()
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Beta == 0 {
		o.Beta = 0.6
	}
	if o.MaxRejections == 0 {
		o.MaxRejections = 8
	}
	o.Metrics = telemetry.OrNop(o.Metrics)
	o.Generator = generator.OrGMM(o.Generator)
	return o
}

// validate rejects the S2 rejection settings that withDefaults leaves
// meaningless: a negative attempt cap, or an Eq. 10 slack or
// discriminator threshold that is negative or NaN (a negative or NaN β
// would silently turn discriminator rejection off).
func (o Options) validate() error {
	if o.MaxRejections < 0 {
		return fmt.Errorf("core: Options.MaxRejections = %d, want ≥ 0 (0 selects the default)", o.MaxRejections)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Alpha", o.Alpha}, {"Beta", o.Beta}} {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("core: Options.%s = %v, want ≥ 0 (0 selects the default)", f.name, f.v)
		}
	}
	return nil
}

// Result is the output of Synthesize.
type Result struct {
	// Syn is the synthesized dataset E_syn, with M_syn holding both the
	// pairs sampled as matching in S2 and the pairs labeled matching in S3.
	Syn *dataset.ER
	// OReal is the learned O-distribution of the real dataset: the
	// configured backend's fitted distribution (a *gmm.Joint under the
	// default GMM backend or Options.Learned).
	OReal generator.Dist
	// JSD is the final Monte-Carlo JSD between O_syn and O_real (0 when
	// too few vectors accumulated to estimate O_syn).
	JSD float64
	// SampledMatchPairs lists the S2-sampled matching pairs in commit
	// order — the pairs SERD explicitly synthesized as matches, as opposed
	// to the additional pairs S3's posterior labeling marks matching. Its
	// length is the journaled sampled_matches count. A resumed run rebuilds
	// it by replaying S2's plans, not from the checkpoint.
	SampledMatchPairs []dataset.Pair
	// RejectedByDiscriminator and RejectedByDistribution count rejected
	// candidate entities per §V case 1 and case 2.
	RejectedByDiscriminator int
	RejectedByDistribution  int
}

// sampleEntity picks the S2-1 source entity among a table's n entities:
// uniform for non-matching vectors; for matching vectors, uniform over
// entities without a sampled match partner (falling back to uniform when
// every entity is matched).
func sampleEntity(n int, matching bool, matchedIdx map[int]bool, r *rand.Rand) int {
	if !matching || len(matchedIdx) >= n {
		return r.Intn(n)
	}
	for {
		i := r.Intn(n)
		if !matchedIdx[i] {
			return i
		}
	}
}

// bootstrap produces the first fake A-entity (§IV-B2): a GAN sample when
// a GAN is given, else per-column cold start.
func bootstrap(vs *valueSynth, real *dataset.ER, opts Options, r *rand.Rand) (*dataset.Entity, error) {
	if opts.GAN != nil {
		e, err := opts.GAN.SampleEntity("sa1", opts.GANDecode, r)
		if err == nil {
			return e, nil
		}
		// Fall back to per-column cold start when decode candidates are
		// missing rather than failing the whole synthesis.
	}
	return vs.coldStart("sa1", real, r), nil
}

// labelAllPairs implements S3: every pair not labeled during S2 gets the
// posterior-probability label P_m(x) >= P_n(x) (Eq. 7 / §IV-C). With
// blocked set, only the precomputed candidate pairs are scored and the
// rest default to non-matching (the candidates come from runS3, which
// journals the blocking tradeoff before labeling starts). a and b are
// A_syn and B_syn prepped under one schema. Scoring fans out over the
// pool — pairs are pure reads of the preps, the sampled map and O_real —
// with per-slot results merged deterministically (and sorted regardless).
//
// Cancellation is checked per row (per candidate when blocked): workers
// skip remaining slots once the run is stopped, the partial labeling is
// discarded, and the stop cause is returned. An untriggered context adds
// one flag read per slot and changes nothing else.
func labelAllPairs(ctx context.Context, oReal generator.Dist, a, b *dataset.Preps, sampled map[dataset.Pair]bool, cands []dataset.Pair, blocked bool, pool *parallel.Pool) ([]dataset.Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var matches []dataset.Pair
	for p, m := range sampled {
		if m {
			matches = append(matches, p)
		}
	}
	score := func(p dataset.Pair) bool {
		if _, ok := sampled[p]; ok {
			return false
		}
		return oReal.IsMatch(a.SimVector(p.A, b, p.B))
	}
	if blocked {
		hit := make([]bool, len(cands))
		pool.Run("core.s3.label", len(cands), func(i int) {
			if ctx.Err() != nil {
				return
			}
			hit[i] = score(cands[i])
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, p := range cands {
			if hit[i] {
				matches = append(matches, p)
			}
		}
		sortPairs(matches)
		return matches, nil
	}
	rows := make([][]dataset.Pair, a.Len())
	pool.Run("core.s3.label", a.Len(), func(i int) {
		if ctx.Err() != nil {
			return
		}
		var local []dataset.Pair
		for j := 0; j < b.Len(); j++ {
			if p := (dataset.Pair{A: i, B: j}); score(p) {
				local = append(local, p)
			}
		}
		rows[i] = local
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, row := range rows {
		matches = append(matches, row...)
	}
	sortPairs(matches)
	return matches, nil
}

// sortPairs orders matches deterministically (sampled labels come from a
// map, whose iteration order would otherwise leak into the output).
func sortPairs(ps []dataset.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}
