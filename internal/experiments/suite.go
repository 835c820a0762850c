// Package experiments is the harness that regenerates every table and
// figure of the paper's evaluation section (§VII): Exp-1 user study
// (Figure 5), Exp-2 model evaluation (Figures 6-7), Exp-3 data evaluation
// (Figures 8-9), Exp-4 privacy evaluation (Table III), Exp-5 efficiency
// (Table IV), plus Tables I and II. It is shared by cmd/experiments and
// the repository's bench_test.go.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/embench"
	"serd/internal/gan"
	"serd/internal/generator"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// Method names a dataset-synthesis method under comparison.
type Method string

// The methods compared throughout §VII.
const (
	MethodReal      Method = "Real"
	MethodSERD      Method = "SERD"
	MethodSERDMinus Method = "SERD-"
	MethodEMBench   Method = "EMBench"
)

// SynMethods lists the synthetic methods (everything but Real).
func SynMethods() []Method { return []Method{MethodSERD, MethodSERDMinus, MethodEMBench} }

// Config controls experiment scale.
type Config struct {
	// Ctx cancels a running experiment suite cooperatively: it is threaded
	// into every core.Synthesize, transformer/GAN training and matcher fit
	// the harness performs, so a cancellation returns at the next
	// chunk/minibatch/iteration boundary. Nil means context.Background();
	// an untriggered context never changes a result.
	Ctx context.Context
	// Seed drives every random choice.
	Seed int64
	// Datasets restricts the run (default: all four Table II datasets).
	Datasets []string
	// SizeCap bounds each relation's size (0 = the generators' scaled
	// defaults). Benches use small caps to keep iterations fast.
	SizeCap int
	// MatchCap bounds the match count (0 = scaled default).
	MatchCap int
	// NegPerPos is the negative sampling ratio for matcher workloads
	// (default 3).
	NegPerPos int
	// TestFrac is the held-out fraction of the real labeled pairs
	// (default 0.3).
	TestFrac float64
	// UseTransformer switches SERD's textual synthesis from the rule
	// backend to the bucketed DP transformer bank (slow on CPU; used by
	// the quickstart-scale runs and examples).
	UseTransformer bool
	// Transformer configures the bank when UseTransformer is set.
	Transformer textsynth.TransformerOptions
	// UseGAN enables the paper's GAN path: cold start from the generator
	// and discriminator rejection at β = 0.6 (§IV-B2, §V case 1).
	UseGAN bool
	// Generator selects the pluggable S1 backend for the SERD syntheses
	// (nil = generator.GMM, the paper's GMM stack; see -s1-generator).
	Generator generator.Generator
	// Workers sets the worker count for the parallel S2/S3 hot path
	// (threaded into core.Options.Workers; 0 = GOMAXPROCS). Results are
	// bit-identical at any worker count.
	Workers int
	// Metrics receives harness telemetry — per-table/figure wall-clock
	// spans ("experiments.<id>"), row provenance counters
	// ("experiments.<id>.rows", "experiments.synth.<method>") — and is
	// threaded into core.Synthesize and matcher training so the whole
	// pipeline reports into one registry. Nil disables recording.
	Metrics telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if len(c.Datasets) == 0 {
		for _, g := range datagen.Registry() {
			c.Datasets = append(c.Datasets, g.Name)
		}
	}
	if c.NegPerPos == 0 {
		c.NegPerPos = 3
	}
	if c.TestFrac == 0 {
		c.TestFrac = 0.3
	}
	c.Metrics = telemetry.OrNop(c.Metrics)
	return c
}

// Suite generates and caches the real and synthesized datasets so the
// individual experiments can share them.
type Suite struct {
	cfg Config

	mu   sync.Mutex
	gens map[string]*datagen.Generated
	syns map[string]map[Method]*dataset.ER
	res  map[string]*core.Result // SERD result incl. O_real and JSD
}

// NewSuite returns a lazy suite; datasets are generated on first use.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		cfg:  cfg.withDefaults(),
		gens: make(map[string]*datagen.Generated),
		syns: make(map[string]map[Method]*dataset.ER),
		res:  make(map[string]*core.Result),
	}
}

// Config returns the defaulted configuration.
func (s *Suite) Config() Config { return s.cfg }

// ctx is the suite's cancellation context (Background when unset).
func (s *Suite) ctx() context.Context {
	if s.cfg.Ctx != nil {
		return s.cfg.Ctx
	}
	return context.Background()
}

// Generated returns the (cached) surrogate real dataset.
func (s *Suite) Generated(name string) (*datagen.Generated, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generatedLocked(name)
}

func (s *Suite) generatedLocked(name string) (*datagen.Generated, error) {
	if g, ok := s.gens[name]; ok {
		return g, nil
	}
	gen, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg := datagen.Config{Seed: s.cfg.Seed + 1}
	if s.cfg.SizeCap > 0 {
		cfg.SizeA = min(gen.ScaledStats.SizeA, s.cfg.SizeCap)
		cfg.SizeB = min(gen.ScaledStats.SizeB, s.cfg.SizeCap)
	}
	if s.cfg.MatchCap > 0 {
		m := min(gen.ScaledStats.Matches, s.cfg.MatchCap)
		cfg.Matches = min(m, minNonZero(cfg.SizeA, cfg.SizeB))
	}
	g, err := gen.Gen(cfg)
	if err != nil {
		return nil, err
	}
	s.gens[name] = g
	return g, nil
}

// Synthesizers builds SERD's per-column string synthesizers for a dataset
// from its background corpora.
func (s *Suite) Synthesizers(g *datagen.Generated) (map[string]textsynth.Synthesizer, error) {
	if !s.cfg.UseTransformer {
		return ruleSynthesizers(g)
	}
	out := make(map[string]textsynth.Synthesizer)
	for _, col := range g.ER.Schema().Cols {
		if col.Kind != dataset.Textual {
			continue
		}
		opts := s.cfg.Transformer
		opts.Seed = s.cfg.Seed + 7
		ts, err := textsynth.TrainTransformer(s.ctx(), g.Background[col.Name], col.Sim, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: training transformer for %s: %w", col.Name, err)
		}
		out[col.Name] = ts
	}
	return out, nil
}

// ruleSynthesizers builds the rule synthesizer every experiment and bench
// uses for each textual column of a generated dataset.
func ruleSynthesizers(g *datagen.Generated) (map[string]textsynth.Synthesizer, error) {
	out := make(map[string]textsynth.Synthesizer)
	for _, col := range g.ER.Schema().Cols {
		if col.Kind != dataset.Textual {
			continue
		}
		rs, err := textsynth.NewRuleSynthesizer(col.Sim, g.Background[col.Name])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", col.Name, err)
		}
		rs.Candidates = 6
		rs.MaxSteps = 120
		out[col.Name] = rs
	}
	return out, nil
}

// SynER returns (cached) E_syn for the dataset under the given method.
func (s *Suite) SynER(name string, m Method) (*dataset.ER, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if byM, ok := s.syns[name]; ok {
		if er, ok := byM[m]; ok {
			return er, nil
		}
	}
	g, err := s.generatedLocked(name)
	if err != nil {
		return nil, err
	}
	var er *dataset.ER
	switch m {
	case MethodReal:
		er = g.ER
	case MethodEMBench:
		er, err = embench.Synthesize(g.ER, embench.Options{Seed: s.cfg.Seed + 3})
	case MethodSERD, MethodSERDMinus:
		var res *core.Result
		res, err = s.runSERDLocked(g, m == MethodSERDMinus)
		if err == nil {
			er = res.Syn
		}
	default:
		err = fmt.Errorf("experiments: unknown method %q", m)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: synthesizing %s/%s: %w", name, m, err)
	}
	if s.syns[name] == nil {
		s.syns[name] = make(map[Method]*dataset.ER)
	}
	s.syns[name][m] = er
	// Provenance: which method produced a dataset, and how many entities it
	// contributed to downstream rows.
	s.cfg.Metrics.Add("experiments.synth."+string(m), 1)
	s.cfg.Metrics.Add("experiments.synth.entities", float64(er.A.Len()+er.B.Len()))
	return er, nil
}

// SERDResult returns the full SERD result (with O_real and final JSD).
func (s *Suite) SERDResult(name string) (*core.Result, error) {
	if _, err := s.SynER(name, MethodSERD); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res[name], nil
}

func (s *Suite) runSERDLocked(g *datagen.Generated, minus bool) (*core.Result, error) {
	synths, err := s.Synthesizers(g)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Synthesizers:     synths,
		DisableRejection: minus,
		Metrics:          s.cfg.Metrics,
		Seed:             s.cfg.Seed + 5,
		Workers:          s.cfg.Workers,
		Generator:        s.cfg.Generator,
	}
	if s.cfg.UseGAN {
		opts.GAN, opts.GANDecode, err = s.trainGAN(g)
		if err != nil {
			return nil, err
		}
	}
	res, err := core.Synthesize(s.ctx(), g.ER, opts)
	if err != nil {
		return nil, err
	}
	if !minus {
		s.res[g.Name] = res
	}
	return res, nil
}

// trainGAN fits the tabular GAN on the real entities (cold start +
// discriminator rejection, §IV-B2 / §V case 1) and assembles the decode
// candidates from the background corpora.
func (s *Suite) trainGAN(g *datagen.Generated) (*gan.GAN, gan.DecodeOptions, error) {
	enc, err := gan.NewEncoder(g.ER.Schema(), []*dataset.Relation{g.ER.A, g.ER.B}, 0)
	if err != nil {
		return nil, gan.DecodeOptions{}, err
	}
	rows := make([][]string, 0, g.ER.A.Len()+g.ER.B.Len())
	for _, e := range g.ER.A.Entities {
		rows = append(rows, e.Values)
	}
	for _, e := range g.ER.B.Entities {
		rows = append(rows, e.Values)
	}
	trained, err := gan.Train(s.ctx(), enc, rows, gan.Options{Epochs: 15, Seed: s.cfg.Seed + 23})
	if err != nil {
		return nil, gan.DecodeOptions{}, err
	}
	return trained, gan.DecodeOptions{TextCandidates: g.Background}, nil
}

// track opens the "experiments.<id>" wall-clock span for one table or
// figure; the returned func ends it and records the row count under
// "experiments.<id>.rows" — call it with len(rows) on success.
func (s *Suite) track(id string) func(rows int) {
	sp := s.cfg.Metrics.StartSpan("experiments." + id)
	return func(rows int) {
		sp.End()
		s.cfg.Metrics.Add("experiments."+id+".rows", float64(rows))
	}
}

// Rand returns a fresh deterministic RNG derived from the suite seed.
func (s *Suite) Rand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.cfg.Seed*1315423911 + salt))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minNonZero(a, b int) int {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return min(a, b)
}
