// Package config is the single source of truth for the flag surface of
// the three SERD binaries (cmd/serd, cmd/experiments, cmd/datagen).
//
// Flags the tools share — -seed, -workers, -metrics-addr, -report,
// -journal, -transformer, the checkpoint and budget families — are
// defined once in the shared spec table below and bound into each tool's
// flag.FlagSet by the Register* functions, so their names, defaults and
// help text cannot drift apart (TestFlagParity in this package enforces
// it). Tool-specific flags are registered inline by each Register*
// function; the only shared names exempt from parity are -size-a/-size-b,
// whose semantics genuinely differ between serd (synthesized relation
// size) and datagen (generated relation size override).
//
// The package also owns ParseSchema, the -schema column-spec parser that
// previously lived in cmd/serd, and the tools' Validate methods, so the
// binaries' main functions reduce to: register, parse, validate, run.
package config

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"serd/internal/runstore"
)

// Spec is one canonical shared-flag definition.
type Spec struct {
	// Name is the flag name without the leading dash.
	Name string
	// Def is the default value (string, bool, int, int64 or float64 —
	// matching the flag's type).
	Def any
	// Usage is the help text, identical across every tool that binds the
	// flag.
	Usage string
}

// sharedSpecs is the canonical table. Order is cosmetic; lookup is by
// name. Every flag registered by more than one tool MUST be defined here
// (the parity test enforces it, modulo the size-a/size-b allowlist).
var sharedSpecs = []Spec{
	{Name: "seed", Def: int64(1), Usage: "random seed"},
	{Name: "out", Def: "", Usage: "output dataset directory (required)"},
	{Name: "workers", Def: int(0), Usage: "worker count for the parallel S2/S3 hot path (0 = GOMAXPROCS); outputs are bit-identical at any value"},
	{Name: "metrics-addr", Def: "", Usage: "serve the live run inspector on this address (e.g. :9090); /events streams span/metric events as SSE"},
	{Name: "trace", Def: "", Usage: "write a Chrome trace-event JSON here plus a compact .jsonl trace next to it (analyze with 'serd trace'); tracing never changes outputs"},
	{Name: "run-store", Def: "", Usage: "run-registry directory for cross-run history ('serd runs'); default ~/.serd/runs, 'off' disables registration"},
	{Name: "report", Def: "", Usage: "run-report path (with an -out directory, default <out>/run_report.json)"},
	{Name: "no-report", Def: false, Usage: "skip writing the run report"},
	{Name: "journal", Def: "", Usage: "event-journal path (default <out>/journal.jsonl)"},
	{Name: "no-journal", Def: false, Usage: "skip writing the event journal"},
	{Name: "transformer", Def: false, Usage: "synthesize textual columns with the DP-SGD transformer bank instead of the rule synthesizer (slow; spends ε)"},
	{Name: "epsilon-budget", Def: float64(0), Usage: "abort (or warn, with -budget-warn) before any DP expenditure would push the composed ε past this cap (0 = unlimited)"},
	{Name: "budget-warn", Def: false, Usage: "downgrade budget enforcement from abort to a journaled warning"},
	{Name: "checkpoint-dir", Def: "", Usage: "write crash-safe checkpoints (S1 state, per-epoch training state, periodic S2 state) to this directory; SIGINT/SIGTERM save a final checkpoint and abort cleanly (a second signal force-exits)"},
	{Name: "checkpoint-every", Def: int(25), Usage: "accepted S2 entities between periodic checkpoints"},
	{Name: "resume", Def: false, Usage: "resume from the latest checkpoint in -checkpoint-dir; the resumed run is bit-identical to an uninterrupted one"},
	{Name: "tx-buckets", Def: int(4), Usage: "transformer bank: similarity buckets"},
	{Name: "tx-pairs", Def: int(24), Usage: "transformer bank: training pairs per bucket"},
	{Name: "tx-epochs", Def: int(1), Usage: "transformer bank: epochs per bucket"},
	{Name: "tx-batch", Def: int(4), Usage: "transformer bank: DP-SGD minibatch size"},
	{Name: "tx-candidates", Def: int(10), Usage: "transformer bank: sampled decodes per synthesis call (the paper uses 10)"},
	{Name: "dp-noise", Def: float64(1.1), Usage: "transformer bank: DP-SGD noise multiplier σ"},
	{Name: "dp-clip", Def: float64(1), Usage: "transformer bank: DP-SGD clip norm"},
	{Name: "dp-delta", Def: float64(1e-5), Usage: "transformer bank: δ at which ε is reported"},
}

// SharedSpec returns the canonical definition of a shared flag.
func SharedSpec(name string) (Spec, bool) {
	for _, s := range sharedSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// SharedNames lists the names in the shared spec table.
func SharedNames() []string {
	names := make([]string, len(sharedSpecs))
	for i, s := range sharedSpecs {
		names[i] = s.Name
	}
	return names
}

// binder binds shared specs into a FlagSet; the typed methods panic on a
// name/type mismatch with the table, which is a programming error caught
// by any test that registers the tool's flags.
type binder struct{ fs *flag.FlagSet }

func (b binder) spec(name string) Spec {
	s, ok := SharedSpec(name)
	if !ok {
		panic("config: flag " + name + " is not in the shared spec table")
	}
	return s
}

func (b binder) str(p *string, name string) {
	s := b.spec(name)
	b.fs.StringVar(p, s.Name, s.Def.(string), s.Usage)
}

func (b binder) boolean(p *bool, name string) {
	s := b.spec(name)
	b.fs.BoolVar(p, s.Name, s.Def.(bool), s.Usage)
}

func (b binder) integer(p *int, name string) {
	s := b.spec(name)
	b.fs.IntVar(p, s.Name, s.Def.(int), s.Usage)
}

func (b binder) integer64(p *int64, name string) {
	s := b.spec(name)
	b.fs.Int64Var(p, s.Name, s.Def.(int64), s.Usage)
}

func (b binder) float(p *float64, name string) {
	s := b.spec(name)
	b.fs.Float64Var(p, s.Name, s.Def.(float64), s.Usage)
}

// Observe holds the observability flags all three binaries share: the
// live inspector, the trace, the run report and the run registry.
type Observe struct {
	MetricsAddr string
	TracePath   string
	ReportPath  string
	RunStore    string
}

func (o *Observe) register(b binder) {
	b.str(&o.MetricsAddr, "metrics-addr")
	b.str(&o.TracePath, "trace")
	b.str(&o.ReportPath, "report")
	b.str(&o.RunStore, "run-store")
}

// Serd holds the parsed flags of cmd/serd.
type Serd struct {
	In, Out, SchemaSpec string
	SizeA, SizeB        int
	Seed                int64
	Workers             int
	NoReject            bool
	SaveDist, LoadDist  string
	Audit               bool
	AuditEpsilon        float64
	Progress            bool
	NoReport            bool
	JournalPath         string
	NoJournal           bool
	EpsilonBudget       float64
	BudgetWarn          bool
	Transformer         bool
	TxBuckets           int
	TxPairs             int
	TxEpochs            int
	TxBatch             int
	TxCandidates        int
	DPNoise             float64
	DPClip              float64
	DPDelta             float64
	CheckpointDir       string
	CheckpointEvery     int
	Resume              bool
	Observe
	Blocking   Blocking
	Generators Generators
}

// RegisterSerd binds cmd/serd's full flag surface into fs.
func RegisterSerd(fs *flag.FlagSet) *Serd {
	c := &Serd{}
	b := binder{fs}
	fs.StringVar(&c.In, "in", "", "input dataset directory (required)")
	b.str(&c.Out, "out")
	fs.StringVar(&c.SchemaSpec, "schema", "", "column spec, e.g. 'title:text,venue:cat,year:num:1995:2005' (required)")
	fs.IntVar(&c.SizeA, "size-a", 0, "synthesized |A| (0 = same as input)")
	fs.IntVar(&c.SizeB, "size-b", 0, "synthesized |B| (0 = same as input)")
	b.integer64(&c.Seed, "seed")
	b.integer(&c.Workers, "workers")
	fs.BoolVar(&c.NoReject, "no-reject", false, "disable entity rejection (the SERD- ablation)")
	fs.StringVar(&c.SaveDist, "save-dist", "", "write the learned O-distribution (JSON) to this path")
	fs.StringVar(&c.LoadDist, "load-dist", "", "reuse a previously saved O-distribution instead of re-learning")
	fs.BoolVar(&c.Audit, "audit", false, "print privacy metrics (hitting rate, DCR, NNDR) after synthesis")
	fs.Float64Var(&c.AuditEpsilon, "audit-epsilon", 0, "release the -audit metrics through the Laplace mechanism with this total ε, charged to the privacy ledger (0 = exact, unledgered release)")
	fs.BoolVar(&c.Progress, "progress", false, "print synthesis progress")
	b.boolean(&c.NoReport, "no-report")
	b.str(&c.JournalPath, "journal")
	b.boolean(&c.NoJournal, "no-journal")
	b.float(&c.EpsilonBudget, "epsilon-budget")
	b.boolean(&c.BudgetWarn, "budget-warn")
	b.boolean(&c.Transformer, "transformer")
	b.integer(&c.TxBuckets, "tx-buckets")
	b.integer(&c.TxPairs, "tx-pairs")
	b.integer(&c.TxEpochs, "tx-epochs")
	b.integer(&c.TxBatch, "tx-batch")
	b.integer(&c.TxCandidates, "tx-candidates")
	b.float(&c.DPNoise, "dp-noise")
	b.float(&c.DPClip, "dp-clip")
	b.float(&c.DPDelta, "dp-delta")
	b.str(&c.CheckpointDir, "checkpoint-dir")
	b.integer(&c.CheckpointEvery, "checkpoint-every")
	b.boolean(&c.Resume, "resume")
	c.Observe.register(b)
	c.Blocking.register(b)
	c.Generators.register(b)
	return c
}

// Validate checks cross-flag invariants after parsing.
func (c *Serd) Validate() error {
	if c.In == "" || c.Out == "" || c.SchemaSpec == "" {
		return errors.New("-in, -out and -schema are required")
	}
	if c.Resume && c.CheckpointDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	if err := c.Blocking.Validate(); err != nil {
		return err
	}
	if err := c.Generators.Validate(); err != nil {
		return err
	}
	// -load-dist and -save-dist speak the GMM joint's JSON format. A
	// loaded joint skips S1, so another backend would never fit; a
	// non-GMM backend has no joint to save.
	if b := c.Generators.Backend(); b != "gmm" {
		if c.LoadDist != "" {
			return fmt.Errorf("-load-dist reuses a saved GMM O-distribution and skips S1, so -s1-generator %s would never run", b)
		}
		if c.SaveDist != "" {
			return fmt.Errorf("-save-dist writes a GMM O-distribution; -s1-generator %s does not fit one", b)
		}
	}
	return nil
}

// JournaledConfig is the run-parameter subset journaled at RunStart. The
// execution parameters (-workers, the checkpoint family) are deliberately
// absent: they select how the run executes, not what it computes, so runs
// at different worker counts produce identical journals.
func (c *Serd) JournaledConfig() map[string]string {
	cfg := map[string]string{
		"in":             c.In,
		"out":            c.Out,
		"schema":         c.SchemaSpec,
		"size_a":         strconv.Itoa(c.SizeA),
		"size_b":         strconv.Itoa(c.SizeB),
		"no_reject":      strconv.FormatBool(c.NoReject),
		"transformer":    strconv.FormatBool(c.Transformer),
		"epsilon_budget": strconv.FormatFloat(c.EpsilonBudget, 'g', -1, 64),
		"budget_mode":    "abort",
	}
	if c.BudgetWarn {
		cfg["budget_mode"] = "warn"
	}
	c.Blocking.JournaledConfig(cfg)
	c.Generators.JournaledConfig(cfg)
	return cfg
}

// Experiments holds the parsed flags of cmd/experiments.
type Experiments struct {
	Exp            string
	Datasets       string
	SizeCap        int
	MatchCap       int
	Seed           int64
	Workers        int
	Transformer    bool
	Bench          string
	BenchOut       string
	BenchAgainst   string
	BenchThreshold float64
	ScaleSizes     string
	DPBenchEps     string
	// BenchSizes and BenchEpsilons are ScaleSizes and DPBenchEps parsed
	// by Validate.
	BenchSizes    []int
	BenchEpsilons []float64
	Observe
	Blocking   Blocking
	Generators Generators
}

// RegisterExperiments binds cmd/experiments' flag surface into fs.
func RegisterExperiments(fs *flag.FlagSet) *Experiments {
	c := &Experiments{}
	b := binder{fs}
	fs.StringVar(&c.Exp, "exp", "all", "comma-separated experiments: t1,t2,f5,f6,f7,f8,f9,t3,t4 or all")
	fs.StringVar(&c.Datasets, "datasets", "", "comma-separated dataset names (default: all four)")
	fs.IntVar(&c.SizeCap, "sizecap", 0, "cap relation sizes (0 = scaled defaults)")
	fs.IntVar(&c.MatchCap, "matchcap", 0, "cap match counts (0 = scaled defaults)")
	b.integer64(&c.Seed, "seed")
	b.integer(&c.Workers, "workers")
	b.boolean(&c.Transformer, "transformer")
	fs.StringVar(&c.Bench, "bench", "", "run a bench suite instead of the tables: core (per-dataset S2 throughput, JSD, rejections, memory), scale (throughput, pairs scored and peak RSS per size, unblocked and blocked S3) or dp (gmm vs privbayes matcher F1, JSD, spent ε, wall and peak RSS per dataset × ε); default: the -bench-against file's suite, else core")
	fs.StringVar(&c.BenchOut, "bench-out", "", "run the bench and write its report (the BENCH_*.json format) to this path")
	fs.StringVar(&c.BenchAgainst, "bench-against", "", "run the bench and compare it against this baseline report, exiting non-zero on any gated regression; the suite is taken from the file")
	fs.Float64Var(&c.BenchThreshold, "bench-threshold", 0.30, "allowed fractional regression of each gated bench metric for -bench-against")
	fs.StringVar(&c.ScaleSizes, "bench-scale-sizes", "1000,10000", "comma-separated per-relation entity counts (each >= 2) for -bench scale, run in increasing order (VmHWM is a process-lifetime high-water mark)")
	fs.StringVar(&c.DPBenchEps, "bench-dp-eps", "0.5,2", "comma-separated ε values (each > 0) for the -bench dp matrix")
	c.Observe.register(b)
	c.Blocking.register(b)
	c.Generators.register(b)
	return c
}

// Validate checks cross-flag invariants after parsing, parses the bench
// lists into BenchSizes and BenchEpsilons, and resolves Bench: with
// -bench-against the suite defaults to the baseline file's (a disagreeing
// -bench is refused), and -bench-out alone selects core. After Validate,
// Bench is empty exactly when no bench flag asks for a bench run; a bench
// run refuses -trace, -metrics-addr and -report.
func (c *Experiments) Validate() error {
	if c.BenchThreshold < 0 {
		return fmt.Errorf("-bench-threshold must be >= 0, got %g", c.BenchThreshold)
	}
	c.BenchSizes, c.BenchEpsilons = nil, nil
	for _, s := range splitList(c.ScaleSizes) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("-bench-scale-sizes: %w", err)
		}
		if n < 2 {
			return fmt.Errorf("-bench-scale-sizes: size %d is below 2", n)
		}
		c.BenchSizes = append(c.BenchSizes, n)
	}
	for _, s := range splitList(c.DPBenchEps) {
		e, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("-bench-dp-eps: %w", err)
		}
		if !(e > 0) || math.IsInf(e, 1) {
			return fmt.Errorf("-bench-dp-eps: ε %g must be positive and finite", e)
		}
		c.BenchEpsilons = append(c.BenchEpsilons, e)
	}
	if _, ok := runstore.BenchRules[c.Bench]; c.Bench != "" && !ok {
		return fmt.Errorf("-bench: unknown suite %q (want core, scale or dp)", c.Bench)
	}
	if c.BenchAgainst != "" {
		base, err := runstore.ReadBench(c.BenchAgainst)
		if err != nil {
			return fmt.Errorf("-bench-against: %w", err)
		}
		if c.Bench != "" && c.Bench != base.Suite {
			return fmt.Errorf("-bench %s disagrees with -bench-against %s, a %s baseline", c.Bench, c.BenchAgainst, base.Suite)
		}
		c.Bench = base.Suite
	}
	if c.Bench == "" && c.BenchOut != "" {
		c.Bench = "core"
	}
	if c.Bench != "" {
		// A bench run writes only its bench report: it arms no event bus,
		// inspector or run report, so these flags would do nothing.
		for _, f := range []struct{ name, value string }{
			{"trace", c.TracePath}, {"metrics-addr", c.MetricsAddr}, {"report", c.ReportPath},
		} {
			if f.value != "" {
				return fmt.Errorf("-%s is not supported on a bench run (-bench, -bench-out or -bench-against)", f.name)
			}
		}
	}
	if c.Bench == "scale" && len(c.BenchSizes) == 0 {
		return errors.New("-bench scale needs -bench-scale-sizes")
	}
	if err := c.Blocking.Validate(); err != nil {
		return err
	}
	return c.Generators.Validate()
}

// splitList splits a comma-separated flag value into trimmed entries (none
// for an empty value).
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Datagen holds the parsed flags of cmd/datagen.
type Datagen struct {
	Out         string
	Dataset     string
	Seed        int64
	SizeA       int
	SizeB       int
	Matches     int
	NoReport    bool
	JournalPath string
	NoJournal   bool
	Observe
	Blocking   Blocking
	Generators Generators
}

// RegisterDatagen binds cmd/datagen's flag surface into fs.
func RegisterDatagen(fs *flag.FlagSet) *Datagen {
	c := &Datagen{}
	b := binder{fs}
	b.str(&c.Out, "out")
	fs.StringVar(&c.Dataset, "dataset", "all", "dataset name or all")
	b.integer64(&c.Seed, "seed")
	fs.IntVar(&c.SizeA, "size-a", 0, "override |A| (0 = scaled default)")
	fs.IntVar(&c.SizeB, "size-b", 0, "override |B| (0 = scaled default)")
	fs.IntVar(&c.Matches, "matches", 0, "override |M| (0 = scaled default)")
	b.boolean(&c.NoReport, "no-report")
	b.str(&c.JournalPath, "journal")
	b.boolean(&c.NoJournal, "no-journal")
	c.Observe.register(b)
	c.Blocking.register(b)
	c.Generators.register(b)
	return c
}

// Validate checks cross-flag invariants after parsing.
func (c *Datagen) Validate() error {
	if c.Out == "" {
		return errors.New("-out is required")
	}
	if err := c.Blocking.Validate(); err != nil {
		return err
	}
	if err := c.Generators.Validate(); err != nil {
		return err
	}
	// datagen generates surrogate data and never runs S1: the flag family
	// is bound for cross-tool parity, but a value cannot take effect here.
	if c.Generators.Enabled() {
		return errors.New("-s1-generator selects a synthesis backend; datagen never runs S1 (use serd or experiments)")
	}
	return nil
}
