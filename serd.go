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
// (internal/experiments). This package re-exports the surface a downstream
// user needs.
package serd

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/dp"
	"serd/internal/embench"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/matcher"
	"serd/internal/privacy"
	"serd/internal/runstore"
	"serd/internal/simfn"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
	"serd/internal/trace"
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
	// Stats is a dataset's Table II row.
	Stats = dataset.Stats
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
	// EditSim is normalized Levenshtein similarity.
	EditSim = simfn.EditSim
	// NumericSim is min-max scaled absolute-difference similarity.
	NumericSim = simfn.Numeric
	// DateSim is NumericSim over date ordinals.
	DateSim = simfn.Date
	// JaroWinkler is the classic name-string similarity.
	JaroWinkler = simfn.JaroWinkler
	// OverlapSim is the q-gram overlap coefficient.
	OverlapSim = simfn.Overlap
	// CosineTokensSim is bag-of-words cosine similarity.
	CosineTokensSim = simfn.CosineTokens
	// MongeElkanSim is the token-aligned name similarity.
	MongeElkanSim = simfn.MongeElkan
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

// Pluggable S1 generative backends (see internal/generator). A nil
// Options.Generator selects GMMGenerator, the paper's GMM stack.
type (
	// Generator fits an O-distribution under an optional DP budget.
	Generator = generator.Generator
	// Dist is a fitted O-distribution a Generator produces.
	Dist = generator.Dist
	// GMMGenerator is the paper's GMM stack behind the Generator seam.
	GMMGenerator = generator.GMM
	// PrivBayesGenerator is the marginal-based DP synthesizer.
	PrivBayesGenerator = generator.PrivBayes
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
	// DecisionTree is a single CART tree.
	DecisionTree = matcher.DecisionTree
	// LogisticRegression is a linear matcher.
	LogisticRegression = matcher.LogisticRegression
	// LinearSVM is a hinge-loss linear matcher.
	LinearSVM = matcher.LinearSVM
	// NaiveBayes is a Gaussian naive-Bayes matcher.
	NaiveBayes = matcher.NaiveBayes
	// ZeroER is the unsupervised GMM matcher of Wu et al. that the paper's
	// distribution model builds on.
	ZeroER = matcher.ZeroER
	// Metrics carries precision/recall/F1.
	Metrics = matcher.Metrics
)

// Blocking (see internal/blocking).
type (
	// Blocker proposes candidate pairs between two relations.
	Blocker = blocking.Blocker
	// QGramBlocker indexes shared character q-grams of a key column.
	QGramBlocker = blocking.QGram
	// TokenBlocker indexes shared tokens of a key column.
	TokenBlocker = blocking.Token
	// SortedNeighborhood pairs rank-adjacent entities under a sort key.
	SortedNeighborhood = blocking.SortedNeighborhood
	// MinHashBlocker is LSH blocking over q-gram sketches.
	MinHashBlocker = blocking.MinHash
	// BlockerUnion combines blockers with deduplication.
	BlockerUnion = blocking.Union
	// BlockingQuality reports recall and reduction ratio.
	BlockingQuality = blocking.Quality
)

// EvaluateBlocking measures a candidate set against a labeled dataset.
func EvaluateBlocking(e *ER, candidates []Pair) BlockingQuality {
	return blocking.Evaluate(e, candidates)
}

// EvaluateBlockingCounts is EvaluateBlocking from raw counts, computing
// the pair space in float64 so relations past ~3 billion rows per side
// cannot overflow the product.
func EvaluateBlockingCounts(lenA, lenB, matches, hits, candidates int) BlockingQuality {
	return blocking.EvaluateCounts(lenA, lenB, matches, hits, candidates)
}

// ValidateDataset checks a dataset's structural invariants (unique IDs,
// arity, match indices, numeric parseability) and returns every violation.
func ValidateDataset(e *ER) []error { return dataset.Validate(e) }

// MatchClusters groups matched entities into connected components; see
// OneToOneViolations for the transitivity diagnostic.
func MatchClusters(e *ER) []dataset.Cluster { return dataset.MatchClusters(e) }

// OneToOneViolations lists match clusters larger than one-to-one.
func OneToOneViolations(e *ER) []dataset.Cluster { return dataset.OneToOneViolations(e) }

// ProfileRelation summarizes each column of a relation (distinct counts,
// missing rates, mean lengths) for data auditing.
func ProfileRelation(rel *Relation) []dataset.ColumnProfile { return dataset.Profile(rel) }

// NNDR is the nearest-neighbor distance ratio privacy metric (near 1 =
// private, near 0 = a synthetic record singles a real entity out).
func NNDR(real, syn *ER, r *rand.Rand) (float64, error) {
	return privacy.NNDR(real, syn, privacy.Options{MaxReal: 200, Rand: r})
}

// BestThreshold tunes a scorer's decision threshold for maximum F1 on a
// validation set.
func BestThreshold(s matcher.Scorer, pairs []LabeledPair) (float64, Metrics) {
	xs, ys := dataset.Vectors(pairs)
	return matcher.BestThreshold(s, xs, ys)
}

// CrossValidate runs k-fold cross validation of a matcher constructor over
// a labeled workload, returning mean F1.
func CrossValidate(mk func() Matcher, pairs []LabeledPair, k int, r *rand.Rand) (float64, error) {
	xs, ys := dataset.Vectors(pairs)
	return matcher.CrossValidate(mk, xs, ys, k, r)
}

// SaveMatcher serializes a trained matcher (random forest, decision tree,
// logistic regression, linear SVM or MLP); LoadMatcher reads it back.
func SaveMatcher(w io.Writer, m Matcher) error { return matcher.SaveMatcher(w, m) }

// LoadMatcher reads a matcher written by SaveMatcher.
func LoadMatcher(r io.Reader) (Matcher, error) { return matcher.LoadMatcher(r) }

// PermutationImportance reports each similarity feature's F1 contribution
// to a fitted matcher (the drop when that feature is shuffled).
func PermutationImportance(m Matcher, pairs []LabeledPair, r *rand.Rand) []float64 {
	xs, ys := dataset.Vectors(pairs)
	return matcher.PermutationImportance(m, xs, ys, r)
}

// Sample-data generation (see internal/datagen).
type (
	// SampleConfig controls the surrogate dataset generators.
	SampleConfig = datagen.Config
	// SampleDataset bundles a generated ER dataset with its background
	// corpora.
	SampleDataset = datagen.Generated
)

// Telemetry (see internal/telemetry): pipeline-wide metrics, phase
// tracing and the live run inspector.
type (
	// MetricsRecorder receives counters, gauges, histograms and phase
	// spans from every pipeline stage; set it on Options.Metrics,
	// TransformerOptions.Metrics or an experiments Config. A nil recorder
	// disables recording at zero cost.
	MetricsRecorder = telemetry.Recorder
	// MetricsRegistry is the in-memory MetricsRecorder behind the
	// /metrics endpoints and run reports.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's state.
	MetricsSnapshot = telemetry.Snapshot
	// MetricsServer is the live inspector HTTP server.
	MetricsServer = telemetry.Server
	// RunReport is the structured summary written next to an output
	// dataset.
	RunReport = telemetry.RunReport
)

// Tracing (see internal/trace and internal/telemetry): the hierarchical
// span tree a run can emit — pipeline stages, per-chunk worker spans, EM
// iterations, DP minibatches, GAN steps — fed through a bounded lock-free
// event bus into the -trace exporter and the /events SSE stream. Tracing
// is strictly passive: armed or disarmed, dataset and journal bytes are
// identical, and the disarmed path is allocation-free.
type (
	// EventBus is the bounded, lock-free, drop-oldest event stream that
	// decouples the hot path from trace/SSE consumers.
	EventBus = telemetry.Bus
	// BusEvent is one published span boundary or metrics sample.
	BusEvent = telemetry.BusEvent
	// Tracer assigns span identities and publishes onto an EventBus; a
	// nil Tracer is disarmed and free.
	Tracer = trace.Tracer
	// TraceExporter consumes an EventBus into a Chrome trace-event JSON
	// plus a compact .jsonl stream for `serd trace`.
	TraceExporter = trace.Exporter
	// TraceHeader identifies a trace (run id, tool, dataset, seed).
	TraceHeader = trace.Header
	// Trace is a loaded .jsonl trace rebuilt into a span tree.
	Trace = trace.Trace
	// TraceSummary is the per-stage/per-worker breakdown of a Trace.
	TraceSummary = trace.Summary
	// TraceCriticalPath is the longest dependent chain through a Trace.
	TraceCriticalPath = trace.CriticalPath
	// TraceDiff attributes the wall-clock delta between two traces.
	TraceDiff = trace.Diff
	// RuntimeSampler periodically records heap, GC pause, goroutine and
	// peak-RSS gauges into a registry and publishes them as bus events.
	RuntimeSampler = telemetry.Sampler
	// RuntimeStats is the sampler's final accounting in a RunReport.
	RuntimeStats = telemetry.RuntimeStats
)

// NewEventBus creates an event bus holding size events (rounded up to a
// power of two; <= 0 selects the default capacity).
func NewEventBus(size int) *EventBus { return telemetry.NewBus(size) }

// NewTracer returns a tracer publishing onto bus, or nil (disarmed, zero
// cost) when bus is nil.
func NewTracer(bus *EventBus) *Tracer { return trace.New(bus) }

// TraceRecorder layers tr over inner so every phase span started through
// the returned recorder also appears in the trace tree. It must be the
// outermost layer of a recorder chain; pipeline internals discover the
// tracer through it.
func TraceRecorder(tr *Tracer, inner MetricsRecorder) MetricsRecorder {
	return trace.Wrap(tr, inner)
}

// NewTraceExporter starts consuming bus into path (Chrome trace-event
// JSON) and its sibling .jsonl. Close it to flush.
func NewTraceExporter(bus *EventBus, path string, hdr TraceHeader) (*TraceExporter, error) {
	return trace.NewExporter(bus, path, hdr)
}

// LoadTrace reads a .jsonl trace (or the .json path next to it) back into
// a span tree for analysis.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// SummarizeTrace computes the per-stage and per-worker time breakdown
// behind `serd trace summary`.
func SummarizeTrace(t *Trace) TraceSummary { return trace.Summarize(t) }

// FindTraceCriticalPath computes the longest dependent chain through the
// stage tree behind `serd trace critical-path`.
func FindTraceCriticalPath(t *Trace) TraceCriticalPath { return trace.FindCriticalPath(t) }

// DiffTraces attributes the wall-clock difference between two traces to
// stages and chunk groups, behind `serd trace diff`.
func DiffTraces(base, other *Trace) TraceDiff { return trace.DiffTraces(base, other) }

// StartRuntimeSampler begins recording runtime health every interval
// (<= 0 selects 250ms) into reg, publishing changed values onto bus (which
// may be nil). Stop it to collect the final RuntimeStats.
func StartRuntimeSampler(reg *MetricsRegistry, bus *EventBus, interval time.Duration) *RuntimeSampler {
	return telemetry.StartSampler(reg, bus, interval)
}

// Provenance (see internal/journal): the append-only, hash-chained event
// journal every run writes, the privacy-budget ledger composed over it,
// and the audit tooling behind `serd audit`.
type (
	// Journal is the append-only structured event journal; set it on
	// Options.Journal and feed the same instance to JournalRecorder and
	// NewPrivacyLedger so one file carries the whole run.
	Journal = journal.Journal
	// JournalEvent is one decoded journal line.
	JournalEvent = journal.Event
	// PrivacyLedger registers every DP mechanism expenditure, composes
	// them (parallel within a group, sequential across) and optionally
	// enforces an ε budget.
	PrivacyLedger = journal.Ledger
	// LedgerEntry is one recorded expenditure with the mechanism
	// parameters needed to recompute its ε.
	LedgerEntry = journal.Entry
	// BudgetMode selects abort-vs-warn budget enforcement.
	BudgetMode = journal.BudgetMode
	// AuditSummary is a journal distilled for display and diffing.
	AuditSummary = journal.RunSummary
	// AuditVerifyResult is the outcome of AuditVerify.
	AuditVerifyResult = journal.VerifyResult
	// AuditDiff is the delta between two summarized runs.
	AuditDiff = journal.Diff
	// BlockingEvent is the journaled record of a blocked S3: the blocker
	// configuration, candidate count, reduction ratio and the measured
	// recall bound on the held-out sampled matches.
	BlockingEvent = journal.BlockingData
)

// Budget enforcement modes for PrivacyLedger.SetBudget.
const (
	BudgetAbort = journal.BudgetAbort
	BudgetWarn  = journal.BudgetWarn
)

// Crash-safe checkpointing (see internal/checkpoint): atomic snapshots of
// the full pipeline state — the learned joint after S1, DP-SGD training
// state per epoch, the S2 pools at periodic intervals — from which a killed
// run resumes bit-identically. Set Checkpointer on Options.Checkpoint and
// TransformerOptions.Checkpoint; each save embeds the journal's seam so
// ResumeJournal can splice the provenance record across the crash.
type (
	// Checkpointer writes and fsyncs checkpoints into a directory.
	Checkpointer = checkpoint.Checkpointer
	// CheckpointConfig configures NewCheckpointer.
	CheckpointConfig = checkpoint.Config
	// CheckpointMeta identifies a checkpoint (tool, seed, phase, seam).
	CheckpointMeta = checkpoint.Meta
	// CheckpointFile is one decoded checkpoint with its payload.
	CheckpointFile = checkpoint.File
	// CheckpointSnapshot is every checkpoint found in a directory.
	CheckpointSnapshot = checkpoint.Snapshot
	// CoreState resumes Synthesize via Options.Resume.
	CoreState = checkpoint.CoreState
	// TrainState resumes TrainTransformer via TransformerOptions.Resume.
	TrainState = checkpoint.TrainState
	// JournalResumeData describes a resume splice for Journal.Resumed.
	JournalResumeData = journal.ResumeData
)

// ErrInterrupted is returned (wrapped) by pipeline stages stopped by
// Checkpointer.Interrupt after writing a final checkpoint.
var ErrInterrupted = checkpoint.ErrInterrupted

// NewCheckpointer opens (creating if needed) a checkpoint directory.
func NewCheckpointer(cfg CheckpointConfig) (*Checkpointer, error) { return checkpoint.New(cfg) }

// ReadCheckpointDir decodes and verifies every checkpoint in dir.
func ReadCheckpointDir(dir string) (*CheckpointSnapshot, error) { return checkpoint.ReadDir(dir) }

// ResumeJournal reopens a journal at a checkpoint's seam: it verifies the
// hash-chained prefix, truncates events the checkpoint does not cover, and
// positions the journal to append across the splice (record it with
// Journal.Resumed).
func ResumeJournal(path string, seq int, chain string, offset int64) (*Journal, error) {
	return journal.Resume(path, seq, chain, offset)
}

// NewTransformerFromState rebuilds a trained transformer bank from its
// terminal (Done) training checkpoint without retraining or recharging ε.
func NewTransformerFromState(st *TrainState, sim SimFunc, opts TransformerOptions) (*TransformerSynthesizer, error) {
	return textsynth.NewFromState(st, sim, opts)
}

// ErrBudgetExceeded is returned (wrapped) by ledger charges that would
// overspend an ε budget in BudgetAbort mode.
var ErrBudgetExceeded = journal.ErrBudgetExceeded

// NewJournal starts a journal on an open writer; CreateJournal opens (and
// truncates) a file path, creating parent directories.
func NewJournal(w io.Writer) *Journal { return journal.New(w) }

// CreateJournal opens path for appending a fresh journal.
func CreateJournal(path string) (*Journal, error) { return journal.Create(path) }

// NewPrivacyLedger returns a ledger journaling each charge to j (nil for
// an unjournaled ledger).
func NewPrivacyLedger(j *Journal) *PrivacyLedger { return journal.NewLedger(j) }

// JournalRecorder tees a metrics recorder into a journal: allowlisted
// phase spans become phase events and ε gauge updates become
// epsilon_checkpoint events, while everything still reaches inner.
func JournalRecorder(j *Journal, inner MetricsRecorder) MetricsRecorder {
	return journal.Instrument(j, inner)
}

// ReadJournal loads and decodes a journal file.
func ReadJournal(path string) ([]JournalEvent, error) { return journal.Read(path) }

// SummarizeJournal folds journal events into an AuditSummary.
func SummarizeJournal(events []JournalEvent) (*AuditSummary, error) {
	return journal.Summarize(events)
}

// AuditVerify re-verifies a recorded run: hash chain, recomputed ε per
// charge and composed, and output dataset lineage (datasetDir overrides
// the journaled output location; "" uses it).
func AuditVerify(journalPath, datasetDir string) (*AuditVerifyResult, error) {
	return journal.Verify(journalPath, datasetDir)
}

// AuditDiffRuns compares two summarized runs.
func AuditDiffRuns(a, b *AuditSummary) *AuditDiff { return journal.DiffRuns(a, b) }

// Cross-run observability (see internal/runstore): the on-disk run
// registry every journaled run registers into at finalize, keyed by the
// journal's first chain hash, and the history/compare/burn-down tooling
// behind `serd runs`. An armed registry is a hard byte-noop on dataset
// and stripped-journal bytes (pinned by the root TestByteInvariance).
type (
	// RunStore is a run registry rooted at a directory.
	RunStore = runstore.Store
	// RunEntry is one registered run.
	RunEntry = runstore.Entry
	// RunComparison is the per-axis delta between two registered runs.
	RunComparison = runstore.Comparison
	// RunCompareOptions sets the regression thresholds for CompareRuns.
	RunCompareOptions = runstore.CompareOptions
	// EpsilonBurnDown is one dataset's cumulative ε trajectory over runs.
	EpsilonBurnDown = runstore.BurnDown
)

// ErrRunRegression is wrapped by `serd runs compare` failures; the CLI
// maps it to exit code 3 so CI can distinguish regression from error.
var ErrRunRegression = runstore.ErrRegression

// DefaultRunStoreDir is the default registry location (~/.serd/runs),
// "" when no home directory is resolvable.
func DefaultRunStoreDir() string { return runstore.DefaultDir() }

// OpenRunStore opens (creating if needed) a run registry at dir.
func OpenRunStore(dir string) (*RunStore, error) { return runstore.Open(dir) }

// RunEntryFromJournal distills a finished journal's events into a
// registry entry: run id (first chain hash), config, lineage, per-stage
// wall-clock, ε spend and terminal status.
func RunEntryFromJournal(events []JournalEvent) (RunEntry, error) {
	return runstore.EntryFromJournal(events)
}

// CompareRuns diffs two registered runs axis by axis — wall-clock,
// stage times, peak RSS, ε (total and per group), summary metrics —
// flagging axes past their thresholds as regressions.
func CompareRuns(a, b RunEntry, opts RunCompareOptions) *RunComparison {
	return runstore.Compare(a, b, opts)
}

// ComputeEpsilonBurnDown folds registered runs into per-dataset
// cumulative ε trajectories, behind `serd runs burn-down`.
func ComputeEpsilonBurnDown(entries []RunEntry) []EpsilonBurnDown {
	return runstore.ComputeBurnDown(entries)
}

// NewMetricsRegistry returns an empty, concurrency-safe registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// ServeMetrics starts the live run inspector on addr (e.g. ":9090"),
// serving /metrics.json, /metrics (Prometheus text) and /debug/pprof/.
// Close the returned server when done.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return telemetry.Serve(addr, reg)
}

// ServeMetricsWith is ServeMetrics plus a live /events SSE stream of the
// bus's span and metrics events (bus may be nil to serve without it).
// Shut the server down gracefully with MetricsServer.Shutdown, which sends
// every SSE subscriber a terminal "shutdown" event before draining.
func ServeMetricsWith(addr string, reg *MetricsRegistry, bus *EventBus) (*MetricsServer, error) {
	return telemetry.ServeWith(addr, reg, bus)
}

// MetricsProgress adapts a recorder into an Options.Progress callback
// that mirrors done/total into "<prefix>.done"/"<prefix>.total" gauges.
func MetricsProgress(rec MetricsRecorder, prefix string) func(done, total int) {
	return telemetry.Progress(rec, prefix)
}

// WriteRunReport writes a run report atomically; ReadRunReport loads it.
func WriteRunReport(path string, rep *RunReport) error { return telemetry.WriteRunReport(path, rep) }

// ReadRunReport reads a report written by WriteRunReport.
func ReadRunReport(path string) (*RunReport, error) { return telemetry.ReadRunReport(path) }

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

// SampleNames lists the built-in dataset names in Table II order.
func SampleNames() []string {
	var out []string
	for _, g := range datagen.Registry() {
		out = append(out, g.Name)
	}
	return out
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

// TrainTestSplit materializes a matcher workload from a dataset and splits
// it (stratified) into train and test. Negatives are drawn uniformly; use
// MixedWorkload for the realistic regime with blocking-derived hard
// negatives.
func TrainTestSplit(e *ER, negPerPos int, testFrac float64, r *rand.Rand) (train, test []LabeledPair, err error) {
	return dataset.Split(dataset.LabeledPairs(e, negPerPos, r), testFrac, r)
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
// with the given sensitivity. Register the spend on the run's ledger with
// PrivacyLedger.ChargeLaplace before calling.
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
