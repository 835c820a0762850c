package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/matcher"
	"serd/internal/runstore"
	"serd/internal/textsynth"
)

// DPBenchOptions shapes a DP head-to-head run.
type DPBenchOptions struct {
	// Datasets are the surrogate generators to bench (default Restaurant
	// and DBLP-ACM — two schemas, one narrow and one scholarly).
	Datasets []string
	// Epsilons are the privacy budgets of the matrix (default 0.5 and 2).
	Epsilons []float64
	// Seed drives generation, synthesis and the matcher workloads.
	Seed int64
	// Size is the per-relation entity count (default 60).
	Size int
	// NegPerPos is the matcher workload's negative sampling ratio
	// (default 3); TestFrac is the held-out fraction (default 0.3).
	NegPerPos int
	TestFrac  float64
	// Workers is the core worker count (0 = GOMAXPROCS).
	Workers int
}

// WithDefaults resolves the documented defaults, exported so callers can
// report the effective matrix (seed/size/datasets) next to the rows.
func (o DPBenchOptions) WithDefaults() DPBenchOptions {
	if len(o.Datasets) == 0 {
		o.Datasets = []string{"Restaurant", "DBLP-ACM"}
	}
	if len(o.Epsilons) == 0 {
		o.Epsilons = []float64{0.5, 2}
	}
	if o.Size == 0 {
		o.Size = 60
	}
	if o.NegPerPos == 0 {
		o.NegPerPos = 3
	}
	if o.TestFrac == 0 {
		o.TestFrac = 0.3
	}
	return o
}

// DPBench runs the same-ε head-to-head: per (backend × dataset × ε) one
// full synthesis — the gmm reference stack and the privbayes DP backend on
// an identical workload — giving the rows of the "dp" suite, keyed
// "dataset/backend/eps=ε". Each row records the requested epsilon, the
// ledger-composed epsilon_spent the fit actually charged (recomputable from
// the run journal by `serd audit verify`), the downstream-utility axis f1
// (a Magellan-style random forest trained on the synthesized dataset,
// evaluated on the real test split), the fidelity axis jsd (JSD(O_syn,
// O_real) of the synthesis run), wall_seconds and peak RSS (a lifetime
// high-water mark, so comparable only at the same position in the run
// order). The gmm backend is the paper's non-private reference fit: it
// appears at every ε so each privbayes cell has its same-workload twin,
// but spends no budget.
func DPBench(ctx context.Context, opts DPBenchOptions) ([]runstore.Row, error) {
	opts = opts.WithDefaults()
	var rows []runstore.Row
	for _, name := range opts.Datasets {
		gen, err := datagen.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := gen.Gen(datagen.Config{Seed: opts.Seed + 1, SizeA: opts.Size, SizeB: opts.Size, Matches: max(2, opts.Size/5)})
		if err != nil {
			return nil, fmt.Errorf("experiments: dp bench: generating %s: %w", name, err)
		}
		synths, err := ruleSynthesizers(g)
		if err != nil {
			return nil, err
		}
		// One real test split per dataset: every cell of the matrix is
		// evaluated against the same held-out pairs.
		testX, testY, err := dpBenchTestSplit(g.ER, opts)
		if err != nil {
			return nil, err
		}
		for _, eps := range opts.Epsilons {
			for _, backend := range []generator.Generator{generator.GMM{}, generator.PrivBayes{Epsilon: eps}} {
				row, err := dpBenchRun(ctx, g, synths, backend, eps, testX, testY, opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// dpBenchTestSplit builds the dataset's real matcher workload and returns
// the held-out test vectors.
func dpBenchTestSplit(er *dataset.ER, opts DPBenchOptions) ([][]float64, []bool, error) {
	cands, err := generator.DefaultBlocker(er.Schema()).Candidates(er.A, er.B)
	if err != nil {
		return nil, nil, err
	}
	pairs := dataset.LabeledPairsMixed(er, opts.NegPerPos, cands, rand.New(rand.NewSource(opts.Seed+101)))
	_, test, err := dataset.Split(pairs, opts.TestFrac, rand.New(rand.NewSource(opts.Seed+103)))
	if err != nil {
		return nil, nil, err
	}
	x, y := dataset.Vectors(test)
	return x, y, nil
}

// dpBenchRun is one cell: synthesize with the backend, train a matcher on
// the output, evaluate on the real split.
func dpBenchRun(ctx context.Context, g *datagen.Generated, synths map[string]textsynth.Synthesizer, backend generator.Generator, eps float64,
	testX [][]float64, testY []bool, opts DPBenchOptions) (runstore.Row, error) {
	ledger := journal.NewLedger(nil)
	start := time.Now()
	res, err := core.Synthesize(ctx, g.ER, core.Options{
		Synthesizers: synths,
		Seed:         opts.Seed,
		Workers:      opts.Workers,
		Generator:    backend,
		Privacy:      ledger,
	})
	name := backend.Name()
	if err != nil {
		return runstore.Row{}, fmt.Errorf("experiments: dp bench: %s/%s at eps=%g: %w", g.Name, name, eps, err)
	}
	wall := time.Since(start).Seconds()
	spent, _ := ledger.Total()

	cands, err := generator.DefaultBlocker(res.Syn.Schema()).Candidates(res.Syn.A, res.Syn.B)
	if err != nil {
		return runstore.Row{}, err
	}
	pairs := dataset.LabeledPairsMixed(res.Syn, opts.NegPerPos, cands, rand.New(rand.NewSource(opts.Seed+107)))
	trainX, trainY := dataset.Vectors(pairs)
	m := &matcher.RandomForest{Trees: 20, Seed: opts.Seed + 11}
	if err := matcher.FitContext(ctx, m, trainX, trainY); err != nil {
		return runstore.Row{}, fmt.Errorf("experiments: dp bench: %s/%s matcher: %w", g.Name, name, err)
	}
	met := matcher.Evaluate(m, testX, testY)
	row := runstore.Row{Key: fmt.Sprintf("%s/%s/eps=%g", g.Name, name, eps), Metrics: map[string]float64{
		"epsilon":       eps,
		"epsilon_spent": spent,
		"f1":            met.F1(),
		"jsd":           res.JSD,
		"wall_seconds":  wall,
	}}
	addPeakRSS(row.Metrics)
	return row, nil
}
