// Package serd is a from-scratch Go implementation of SERD — "Synthesizing
// Privacy Preserving Entity Resolution Datasets" (Qin et al., ICDE 2022).
//
// Given a real ER dataset E_real = (A, B, M, N), SERD synthesizes a fake
// dataset E_syn whose matching/non-matching similarity-vector distributions
// resemble E_real's, so that a matcher trained on E_syn performs like one
// trained on E_real — without exposing any real entity. Textual values are
// produced by string synthesizers (a bank of character-level seq2seq
// transformers trained with DP-SGD, or a deterministic rule-based search),
// and candidate entities that would distort the distribution are rejected
// on the fly.
//
// Quick start:
//
//	real, _ := serd.Sample("Restaurant", serd.SampleConfig{Seed: 1})
//	synths, _ := serd.RuleSynthesizers(real)
//	res, _ := serd.Synthesize(real.ER, serd.Options{Synthesizers: synths, Seed: 1})
//	fmt.Println(res.Syn.Stats())
//
// The subpackages under internal implement the substrates: GMM/EM learning
// (internal/gmm), the neural stack (internal/nn, internal/transformer),
// differential privacy (internal/dp), the tabular GAN (internal/gan), ER
// matchers (internal/matcher), the EMBench baseline (internal/embench),
// privacy metrics (internal/privacy) and the experiment harness
// (internal/experiments). This package exports exactly the surface that
// cmd/ and examples/ use, plus the types its signatures name. Journaling,
// the privacy ledger, checkpointing, tracing and the run registry are
// driven through the serd binary's flags rather than this package.
package serd

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"serd/internal/blocking"
	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/dp"
	"serd/internal/embench"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/matcher"
	"serd/internal/privacy"
	"serd/internal/runstore"
	"serd/internal/simfn"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
	"serd/internal/transformer"
)

// Data-model types (see internal/dataset).
type (
	// Schema is the aligned schema shared by the A- and B-relations.
	Schema = dataset.Schema
	// Column is one attribute with its kind and similarity function.
	Column = dataset.Column
	// Kind classifies a column for synthesis (Textual, Categorical,
	// Numeric, Date).
	Kind = dataset.Kind
	// Entity is one record.
	Entity = dataset.Entity
	// Relation is a table of entities.
	Relation = dataset.Relation
	// ER is a labeled entity-resolution dataset (A, B, M).
	ER = dataset.ER
	// Pair addresses an (A, B) entity pair by index.
	Pair = dataset.Pair
	// LabeledPair is a matcher training/evaluation example.
	LabeledPair = dataset.LabeledPair
)

// Column kinds.
const (
	Textual     = dataset.Textual
	Categorical = dataset.Categorical
	Numeric     = dataset.Numeric
	Date        = dataset.Date
)

// Similarity functions (see internal/simfn).
type (
	// SimFunc scores a pair of attribute values in [0, 1].
	SimFunc = simfn.Func
	// QGramJaccard is the paper's default 3-gram Jaccard similarity.
	QGramJaccard = simfn.QGramJaccard
	// NumericSim is min-max scaled absolute-difference similarity.
	NumericSim = simfn.Numeric
)

// Core pipeline types (see internal/core).
type (
	// Options configures Synthesize.
	Options = core.Options
	// Result is the synthesis output.
	Result = core.Result
	// Joint is the learned O-distribution (π, M, N).
	Joint = gmm.Joint
)

// String synthesis (see internal/textsynth and internal/transformer).
type (
	// Synthesizer produces a string at a target similarity.
	Synthesizer = textsynth.Synthesizer
	// RuleSynthesizer is the deterministic edit-search backend.
	RuleSynthesizer = textsynth.RuleSynthesizer
	// TransformerSynthesizer is the paper's bucketed seq2seq bank.
	TransformerSynthesizer = textsynth.TransformerSynthesizer
	// TransformerOptions configures TrainTransformer.
	TransformerOptions = textsynth.TransformerOptions
	// DPOptions enables DP-SGD training of the transformer bank.
	DPOptions = textsynth.DPOptions
	// TransformerConfig sets the seq2seq model dimensions.
	TransformerConfig = transformer.Config
)

// Matchers (see internal/matcher).
type (
	// Matcher is a binary classifier over similarity vectors.
	Matcher = matcher.Matcher
	// RandomForest is the Magellan-style matcher.
	RandomForest = matcher.RandomForest
	// MLPMatcher is the Deepmatcher-style neural matcher.
	MLPMatcher = matcher.MLP
	// ZeroER is the unsupervised GMM matcher of Wu et al. that the paper's
	// distribution model builds on.
	ZeroER = matcher.ZeroER
	// Metrics carries precision/recall/F1.
	Metrics = matcher.Metrics
)

// Blocking (see internal/blocking).
type (
	// QGramBlocker indexes shared character q-grams of a key column.
	QGramBlocker = blocking.QGram
	// BlockerUnion combines blockers with deduplication.
	BlockerUnion = blocking.Union
	// BlockingQuality reports recall and reduction ratio.
	BlockingQuality = blocking.Quality
)

// EvaluateBlocking measures a candidate set against a labeled dataset.
func EvaluateBlocking(e *ER, candidates []Pair) BlockingQuality {
	return blocking.Evaluate(e, candidates)
}

// ValidateDataset checks a dataset's structural invariants (unique IDs,
// arity, match indices, numeric parseability) and returns every violation.
func ValidateDataset(e *ER) []error { return dataset.Validate(e) }

// NNDR is the nearest-neighbor distance ratio privacy metric (near 1 =
// private, near 0 = a synthetic record singles a real entity out).
func NNDR(real, syn *ER, r *rand.Rand) (float64, error) {
	return privacy.NNDR(real, syn, privacy.Options{MaxReal: 200, Rand: r})
}

// Sample-data generation (see internal/datagen).
type (
	// SampleConfig controls the surrogate dataset generators.
	SampleConfig = datagen.Config
	// SampleDataset bundles a generated ER dataset with its background
	// corpora.
	SampleDataset = datagen.Generated
)

// Run records (see internal/telemetry, internal/journal and
// internal/runstore): the run report written next to an output dataset,
// and the registry entry a finished journal distills into.
type (
	// RunReport is the structured summary written next to an output
	// dataset.
	RunReport = telemetry.RunReport
	// JournalEvent is one decoded journal line.
	JournalEvent = journal.Event
	// RunEntry is one registered run.
	RunEntry = runstore.Entry
)

// ReadRunReport reads a run report.
func ReadRunReport(path string) (*RunReport, error) { return telemetry.ReadRunReport(path) }

// RunEntryFromJournal distills a finished journal's events into a
// registry entry: run id (first chain hash), config, lineage, per-stage
// wall-clock, ε spend and terminal status.
func RunEntryFromJournal(events []JournalEvent) (RunEntry, error) {
	return runstore.EntryFromJournal(events)
}

// Synthesize runs the full SERD pipeline on a real dataset.
func Synthesize(real *ER, opts Options) (*Result, error) {
	return core.Synthesize(context.Background(), real, opts)
}

// SynthesizeContext is Synthesize under a cancellation context: the S1/S2/S3
// stages check ctx at EM-iteration/entity/pair granularity, write a final
// checkpoint when one is configured, and return ctx's error wrapped with the
// interrupted stage's name. An untriggered context yields a byte-identical
// dataset and journal.
func SynthesizeContext(ctx context.Context, real *ER, opts Options) (*Result, error) {
	return core.Synthesize(ctx, real, opts)
}

// NewSchema validates and builds a schema.
func NewSchema(cols []Column) (*Schema, error) { return dataset.NewSchema(cols) }

// NewRelation returns an empty relation over a schema.
func NewRelation(name string, schema *Schema) *Relation { return dataset.NewRelation(name, schema) }

// NewER assembles a labeled ER dataset.
func NewER(a, b *Relation, matches []Pair) (*ER, error) { return dataset.NewER(a, b, matches) }

// NewRuleSynthesizer builds the deterministic string synthesizer over a
// background corpus.
func NewRuleSynthesizer(sim SimFunc, corpus []string) (*RuleSynthesizer, error) {
	return textsynth.NewRuleSynthesizer(sim, corpus)
}

// TrainTransformer trains the paper's bucketed transformer bank on a
// background corpus (optionally with DP-SGD; see TransformerOptions.DP).
func TrainTransformer(corpus []string, sim SimFunc, opts TransformerOptions) (*TransformerSynthesizer, error) {
	return textsynth.TrainTransformer(context.Background(), corpus, sim, opts)
}

// TrainTransformerContext is TrainTransformer under a cancellation context,
// checked per minibatch (the partial epoch is discarded; the last
// epoch-boundary checkpoint remains the resume point).
func TrainTransformerContext(ctx context.Context, corpus []string, sim SimFunc, opts TransformerOptions) (*TransformerSynthesizer, error) {
	return textsynth.TrainTransformer(ctx, corpus, sim, opts)
}

// Sample generates one of the four built-in surrogate datasets
// ("DBLP-ACM", "Restaurant", "Walmart-Amazon", "iTunes-Amazon").
func Sample(name string, cfg SampleConfig) (*SampleDataset, error) {
	g, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return g.Gen(cfg)
}

// RuleSynthesizers builds a rule-based string synthesizer for every
// textual column of a sample dataset from its background corpora — the
// Synthesizers map Options requires.
func RuleSynthesizers(g *SampleDataset) (map[string]Synthesizer, error) {
	out := make(map[string]Synthesizer)
	for _, col := range g.ER.Schema().Cols {
		if col.Kind != Textual {
			continue
		}
		rs, err := textsynth.NewRuleSynthesizer(col.Sim, g.Background[col.Name])
		if err != nil {
			return nil, fmt.Errorf("serd: column %q: %w", col.Name, err)
		}
		out[col.Name] = rs
	}
	return out, nil
}

// EMBench synthesizes a baseline dataset by rule-modifying real entities
// (the comparison method of §VII).
func EMBench(real *ER, seed int64) (*ER, error) {
	return embench.Synthesize(real, embench.Options{Seed: seed})
}

// MixedWorkload materializes a matcher workload in the real labeling
// regime: every match plus negPerPos negatives per match, half of which
// are the hardest blocking candidates (q-gram blocking unioned over the
// textual columns) and half uniform.
func MixedWorkload(e *ER, negPerPos int, r *rand.Rand) ([]LabeledPair, error) {
	var union BlockerUnion
	for i, col := range e.Schema().Cols {
		if col.Kind == Textual {
			union = append(union, QGramBlocker{Column: i})
		}
	}
	var cands []Pair
	if len(union) > 0 {
		var err error
		cands, err = union.Candidates(e.A, e.B)
		if err != nil {
			return nil, err
		}
	}
	return dataset.LabeledPairsMixed(e, negPerPos, cands, r), nil
}

// Split divides a labeled workload into stratified train and test sets.
func Split(pairs []LabeledPair, testFrac float64, r *rand.Rand) (train, test []LabeledPair, err error) {
	return dataset.Split(pairs, testFrac, r)
}

// Vectors extracts similarity vectors and labels from labeled pairs.
func Vectors(pairs []LabeledPair) ([][]float64, []bool) { return dataset.Vectors(pairs) }

// Evaluate runs a matcher over a labeled test set.
func Evaluate(m Matcher, pairs []LabeledPair) Metrics {
	xs, ys := dataset.Vectors(pairs)
	return matcher.Evaluate(m, xs, ys)
}

// HittingRate is the Table III privacy metric: average % of real entities
// similar to a synthesized entity.
func HittingRate(real, syn *ER, threshold float64, r *rand.Rand) (float64, error) {
	return privacy.HittingRate(real, syn, privacy.Options{Threshold: threshold, MaxSyn: 200, MaxReal: 200, Rand: r})
}

// DCR is the Table III distance-to-closest-record metric.
func DCR(real, syn *ER, r *rand.Rand) (float64, error) {
	return privacy.DCR(real, syn, privacy.Options{MaxSyn: 200, MaxReal: 200, Rand: r})
}

// DPEpsilon reports the (ε, δ) guarantee of a DP-SGD run with sampling
// ratio q and noise multiplier sigma after the given number of steps.
func DPEpsilon(q, sigma float64, steps int, delta float64) float64 {
	return dp.Accountant{Q: q, Noise: sigma}.Epsilon(steps, delta)
}

// LaplaceRelease releases value + Lap(sensitivity/ε) — ε-DP for a query
// with the given sensitivity. The caller accounts for the spend: the serd
// binary charges it to the run's privacy ledger before releasing.
func LaplaceRelease(value, sensitivity, epsilon float64, r *rand.Rand) float64 {
	return dp.LaplaceMechanism(value, sensitivity, epsilon, r)
}

// SaveDataset writes an ER dataset to a directory (A.csv, B.csv,
// matches.csv); LoadDataset reads it back.
func SaveDataset(dir string, e *ER) error { return dataset.SaveDir(dir, e) }

// StreamWriter streams a dataset to disk row by row with an atomic
// finalize, so synthesized entities need not accumulate in memory twice.
// Arm it via Options.Stream; the streamed bytes are identical to
// SaveDataset's. See internal/dataset.StreamWriter.
type StreamWriter = dataset.StreamWriter

// NewStreamWriter opens a streaming dataset writer under dir. Call
// Finalize to publish atomically, Abort to discard.
func NewStreamWriter(dir string, schema *Schema) (*StreamWriter, error) {
	return dataset.NewStreamWriter(dir, schema)
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(dir string, schema *Schema) (*ER, error) { return dataset.LoadDir(dir, schema) }

// SaveDistributions writes a learned O-distribution as JSON, enabling the
// offline/online split: learn once, synthesize many times (pass the loaded
// joint via Options.Learned).
func SaveDistributions(w io.Writer, j *Joint) error { return gmm.SaveJoint(w, j) }

// LoadDistributions reads a joint written by SaveDistributions.
func LoadDistributions(r io.Reader) (*Joint, error) { return gmm.LoadJoint(r) }
