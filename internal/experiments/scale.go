package experiments

import (
	"context"
	"fmt"
	"time"

	"serd/internal/blocking"
	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/runstore"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// ScaleBenchOptions shapes a scale-bench run.
type ScaleBenchOptions struct {
	// Dataset is the surrogate generator to scale (default "Restaurant",
	// the equal-size four-column generator).
	Dataset string
	// Seed drives generation and synthesis.
	Seed int64
	// Sizes are the per-relation entity counts, run in the given order
	// (increasing: peak RSS is VmHWM, a process-lifetime high-water mark
	// that never goes down, so rows are meaningful only when sizes run in
	// increasing order and, per size, unblocked before blocked).
	Sizes []int
	// Blocker builds the blocker of the blocked runs against the generated
	// dataset's schema; nil means QGram over the schema's first textual
	// column (column 0 when none is textual).
	Blocker func(*dataset.Schema) (blocking.Blocker, error)
	// RecallFloor is threaded into the blocked runs' journals.
	RecallFloor float64
	// UnblockedCap skips the unblocked (quadratic-S3) run at sizes above
	// it, so a 100k-entity bench does not spend hours in the O(n²) path it
	// exists to avoid; 0 means never skip.
	UnblockedCap int
	// Workers is the core worker count (0 = GOMAXPROCS).
	Workers int
}

// ScaleBench measures how synthesis scales with dataset size: at each
// size n it generates a surrogate dataset and synthesizes it twice — once
// with the paper's exact quadratic S3 (row "n/unblocked"), once with
// blocked S3 ("n/blocked") — the rows of the "scale" suite. Each row
// records the per-relation entity count, wall_seconds, S2 throughput
// (entities_per_sec), the pairs S3 actually scored (the full |A|×|B|
// product unblocked, the candidate count blocked), peak RSS and, blocked,
// the journaled blocking quality: reduction_ratio (fraction of the pair
// space pruned) and recall_bound (fraction of the held-out sampled matches
// the candidates cover). The twin rows at one size are the subquadratic
// tradeoff made measurable.
func ScaleBench(ctx context.Context, opts ScaleBenchOptions) ([]runstore.Row, error) {
	if opts.Dataset == "" {
		opts.Dataset = "Restaurant"
	}
	if len(opts.Sizes) == 0 {
		return nil, fmt.Errorf("experiments: scale bench: no sizes")
	}
	gen, err := datagen.ByName(opts.Dataset)
	if err != nil {
		return nil, err
	}
	var rows []runstore.Row
	for _, n := range opts.Sizes {
		if n < 2 {
			return nil, fmt.Errorf("experiments: scale bench: size %d too small", n)
		}
		g, err := gen.Gen(datagen.Config{Seed: opts.Seed + 1, SizeA: n, SizeB: n, Matches: max(1, n/5)})
		if err != nil {
			return nil, fmt.Errorf("experiments: scale bench: generating %s at %d: %w", opts.Dataset, n, err)
		}
		synths, err := ruleSynthesizers(g)
		if err != nil {
			return nil, err
		}
		var blocker blocking.Blocker = blocking.QGram{Column: max(0, g.ER.Schema().FirstTextual())}
		if opts.Blocker != nil {
			if blocker, err = opts.Blocker(g.ER.Schema()); err != nil {
				return nil, err
			}
		}
		if opts.UnblockedCap == 0 || n <= opts.UnblockedCap {
			row, err := scaleRun(ctx, g, synths, n, opts, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		row, err := scaleRun(ctx, g, synths, n, opts, blocker)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleRun is one synthesis at one size, blocked when blocker != nil.
func scaleRun(ctx context.Context, g *datagen.Generated, synths map[string]textsynth.Synthesizer, n int, opts ScaleBenchOptions, blocker blocking.Blocker) (runstore.Row, error) {
	reg := telemetry.NewRegistry()
	start := time.Now()
	_, err := core.Synthesize(ctx, g.ER, core.Options{
		Synthesizers:  synths,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
		Metrics:       reg,
		S3Blocker:     blocker,
		S3RecallFloor: opts.RecallFloor,
	})
	if err != nil {
		return runstore.Row{}, fmt.Errorf("experiments: scale bench at %d (blocked=%v): %w", n, blocker != nil, err)
	}
	wall := time.Since(start).Seconds()
	eps, _ := reg.Gauge("core.s2.entities_per_sec")
	row := runstore.Row{Key: fmt.Sprintf("%d/unblocked", n), Metrics: map[string]float64{
		"entities":         float64(n),
		"wall_seconds":     wall,
		"entities_per_sec": eps,
		"pairs_scored":     float64(n) * float64(n),
	}}
	addPeakRSS(row.Metrics)
	if blocker != nil {
		row.Key = fmt.Sprintf("%d/blocked", n)
		row.Metrics["pairs_scored"], _ = reg.Gauge("core.s3.candidates")
		row.Metrics["reduction_ratio"], _ = reg.Gauge("core.s3.reduction_ratio")
		row.Metrics["recall_bound"], _ = reg.Gauge("core.s3.recall_bound")
	}
	return row, nil
}
