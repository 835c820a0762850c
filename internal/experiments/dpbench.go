package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/matcher"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// DPBenchSchemaVersion is the current BENCH_dpbench.json schema.
const DPBenchSchemaVersion = 1

// DPBenchRow is one (backend, dataset, ε) cell of the same-ε head-to-head
// matrix, the row format of BENCH_dpbench.json. The gmm backend is the
// paper's non-private reference fit: it appears at every ε so each privbayes
// cell has its same-workload twin, but spends no budget (EpsilonSpent 0).
type DPBenchRow struct {
	Backend string  `json:"backend"`
	Dataset string  `json:"dataset"`
	Epsilon float64 `json:"epsilon"`
	// EpsilonSpent is the ledger-composed budget the fit actually charged
	// (recomputable from the run journal by `serd audit verify`).
	EpsilonSpent float64 `json:"epsilon_spent"`
	// F1 is the downstream-utility axis: a Magellan-style random forest
	// trained on the synthesized dataset, evaluated on the real test split.
	F1 float64 `json:"f1"`
	// JSD is the fidelity axis: JSD(O_syn, O_real) of the synthesis run.
	JSD         float64 `json:"jsd"`
	WallSeconds float64 `json:"wall_seconds"`
	// PeakRSSBytes is the process high-water RSS after this run (0 where
	// the OS does not expose it); a lifetime high-water mark, so rows are
	// comparable only against the same position in the run order.
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
}

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
// an identical workload — measuring downstream matcher F1 against the real
// test split, distributional fidelity (JSD), wall-clock and peak RSS.
func DPBench(ctx context.Context, opts DPBenchOptions) ([]DPBenchRow, error) {
	opts = opts.WithDefaults()
	var rows []DPBenchRow
	for _, name := range opts.Datasets {
		gen, err := datagen.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := gen.Gen(datagen.Config{Seed: opts.Seed + 1, SizeA: opts.Size, SizeB: opts.Size, Matches: max(2, opts.Size/5)})
		if err != nil {
			return nil, fmt.Errorf("experiments: dp bench: generating %s: %w", name, err)
		}
		synths, err := scaleSynthesizers(g)
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
	cands, err := textualBlocker(er.Schema()).Candidates(er.A, er.B)
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
	testX [][]float64, testY []bool, opts DPBenchOptions) (DPBenchRow, error) {
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
		return DPBenchRow{}, fmt.Errorf("experiments: dp bench: %s/%s at eps=%g: %w", g.Name, name, eps, err)
	}
	wall := time.Since(start).Seconds()
	spent, _ := ledger.Total()

	cands, err := textualBlocker(res.Syn.Schema()).Candidates(res.Syn.A, res.Syn.B)
	if err != nil {
		return DPBenchRow{}, err
	}
	pairs := dataset.LabeledPairsMixed(res.Syn, opts.NegPerPos, cands, rand.New(rand.NewSource(opts.Seed+107)))
	trainX, trainY := dataset.Vectors(pairs)
	m := &matcher.RandomForest{Trees: 20, Seed: opts.Seed + 11}
	if err := matcher.FitContext(ctx, m, trainX, trainY); err != nil {
		return DPBenchRow{}, fmt.Errorf("experiments: dp bench: %s/%s matcher: %w", g.Name, name, err)
	}
	met := matcher.Evaluate(m, testX, testY)
	rss, _ := telemetry.ReadPeakRSS()
	return DPBenchRow{
		Backend:      name,
		Dataset:      g.Name,
		Epsilon:      eps,
		EpsilonSpent: spent,
		F1:           met.F1(),
		JSD:          res.JSD,
		WallSeconds:  wall,
		PeakRSSBytes: rss,
	}, nil
}

// DPBenchReport is the top-level BENCH_dpbench.json document.
type DPBenchReport struct {
	SchemaVersion int          `json:"schema_version"`
	Time          time.Time    `json:"time"`
	Seed          int64        `json:"seed"`
	Size          int          `json:"size"`
	Datasets      []string     `json:"datasets"`
	Epsilons      []float64    `json:"epsilons"`
	Rows          []DPBenchRow `json:"rows"`
}

// WriteDPBench writes the report atomically (temp file + rename).
func WriteDPBench(path string, rep DPBenchReport) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-dp-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadDPBench loads a BENCH_dpbench.json document.
func ReadDPBench(path string) (DPBenchReport, error) {
	var rep DPBenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return rep, nil
}

// CompareDPBench checks a fresh DP head-to-head against a baseline, one
// problem per regression: workload mismatch (seed or size), a baseline
// cell missing from the current run (matched by backend + dataset + ε),
// matcher F1 or ε-budget discipline worse than the baseline's beyond the
// threshold, JSD (fidelity) above it, wall-clock beyond the threshold on
// cells slow enough to time meaningfully, or peak RSS above the baseline's
// ceiling. Better cells and extra cells are not problems.
func CompareDPBench(baseline, current DPBenchReport, threshold float64) []string {
	var problems []string
	if baseline.Seed != current.Seed || baseline.Size != current.Size {
		problems = append(problems, fmt.Sprintf(
			"workload mismatch: baseline (seed=%d size=%d) vs current (seed=%d size=%d); regenerate the baseline with the same flags",
			baseline.Seed, baseline.Size, current.Seed, current.Size))
		return problems
	}
	type key struct {
		backend, dataset string
		eps              float64
	}
	cur := make(map[key]DPBenchRow, len(current.Rows))
	for _, r := range current.Rows {
		cur[key{r.Backend, r.Dataset, r.Epsilon}] = r
	}
	// slack absorbs benign float drift on the bounded [0,1] quality axes:
	// the larger of the relative threshold and 0.02 absolute.
	slack := func(v float64) float64 { return math.Max(v*threshold, 0.02) }
	for _, base := range baseline.Rows {
		label := fmt.Sprintf("%s/%s at eps=%g", base.Dataset, base.Backend, base.Epsilon)
		now, ok := cur[key{base.Backend, base.Dataset, base.Epsilon}]
		if !ok {
			problems = append(problems, fmt.Sprintf("cell %s present in the baseline but not benched now", label))
			continue
		}
		if floor := base.F1 - slack(base.F1); now.F1 < floor {
			problems = append(problems, fmt.Sprintf(
				"cell %s: matcher F1 %.4f below the %.4f baseline (floor %.4f at the %.0f%% threshold)",
				label, now.F1, base.F1, floor, 100*threshold))
		}
		if ceil := base.JSD + slack(base.JSD); now.JSD > ceil {
			problems = append(problems, fmt.Sprintf(
				"cell %s: JSD %.4f above the %.4f baseline (ceiling %.4f at the %.0f%% threshold)",
				label, now.JSD, base.JSD, ceil, 100*threshold))
		}
		if now.EpsilonSpent > base.Epsilon+1e-9 && base.Epsilon > 0 {
			problems = append(problems, fmt.Sprintf(
				"cell %s: spent ε=%.6f exceeds the requested budget %g — accounting regression", label, now.EpsilonSpent, base.Epsilon))
		}
		if base.WallSeconds >= 0.5 {
			if ceil := base.WallSeconds * (1 + threshold); now.WallSeconds > ceil {
				problems = append(problems, fmt.Sprintf(
					"cell %s: wall %.2fs is %.0f%% above the %.2fs baseline (ceiling %.2fs at the %.0f%% threshold)",
					label, now.WallSeconds, 100*(now.WallSeconds/base.WallSeconds-1), base.WallSeconds, ceil, 100*threshold))
			}
		}
		if base.PeakRSSBytes > 0 {
			if ceil := float64(base.PeakRSSBytes) * (1 + threshold); float64(now.PeakRSSBytes) > ceil {
				problems = append(problems, fmt.Sprintf(
					"cell %s: peak RSS %.1f MiB is %.0f%% above the %.1f MiB baseline (ceiling %.1f MiB at the %.0f%% threshold)",
					label, float64(now.PeakRSSBytes)/(1<<20), 100*(float64(now.PeakRSSBytes)/float64(base.PeakRSSBytes)-1),
					float64(base.PeakRSSBytes)/(1<<20), ceil/(1<<20), 100*threshold))
			}
		}
	}
	return problems
}
