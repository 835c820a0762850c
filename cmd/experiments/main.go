// Command experiments regenerates every table and figure of the paper's
// evaluation section (§VII) and prints them in the paper's layout.
//
// Usage:
//
//	experiments [-exp all|t1,t2,f5,f6,f7,f8,f9,t3,t4] [-datasets a,b] \
//	            [-sizecap N] [-matchcap N] [-seed S] [-transformer] \
//	            [-metrics-addr :9090] [-report path] [-trace out.json]
//	experiments [-bench core|scale|dp] [-bench-out path] \
//	            [-bench-against baseline] [-bench-threshold F] \
//	            [-bench-scale-sizes N,N] [-bench-dp-eps E,E]
//
// The default run uses the generators' CPU-scaled dataset sizes and the
// rule-based string synthesizer; -transformer switches SERD's textual
// synthesis to the DP transformer bank (much slower). -metrics-addr
// serves the live run inspector for the duration of the run (including
// the /events SSE stream), -trace writes a Chrome trace-event JSON plus
// a compact .jsonl trace for `serd trace`, and -report writes the final
// metric snapshot as a run report.
//
// Any bench flag runs one bench suite instead of the tables and prints
// its rows (key plus metrics):
//
//   - core: one synthesis per dataset — S2 throughput, JSD, rejection
//     pressure, GC pause and peak RSS (the repo pins BENCH_core.json at
//     -sizecap 40 -matchcap 12);
//   - scale: per -bench-scale-sizes entity count, an unblocked and a
//     blocked synthesis (the -s3-blocker flags) — throughput, pairs
//     scored, blocking quality and peak RSS (BENCH_scale.json);
//   - dp: the same-ε gmm vs privbayes matrix per dataset × -bench-dp-eps —
//     matcher F1, JSD, spent ε, wall and peak RSS (BENCH_dpbench.json).
//
// -bench selects the suite; it defaults to the suite of the
// -bench-against file, else core. -bench-out writes the report, and
// -bench-against compares the fresh run against a baseline report of the
// same suite and workload, exiting non-zero when any gated metric
// regresses past -bench-threshold (default 30%) — the CI perf gate. Bench
// runs register their rows in the run registry.
//
// SIGINT/SIGTERM cancels the running suite at the next synthesis chunk,
// training minibatch or fit iteration; a second signal force-exits with
// status 130. The shared flag surface is defined in internal/config.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"serd/internal/config"
	"serd/internal/datagen"
	"serd/internal/experiments"
	"serd/internal/journal"
	"serd/internal/pipeline"
	"serd/internal/runstore"
	"serd/internal/session"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags := config.RegisterExperiments(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flags.Validate(); err != nil {
		fs.Usage()
		return err
	}

	// First SIGINT/SIGTERM cancels the suite at the next cooperative
	// boundary; a second force-exits with status 130.
	ctx, stop := pipeline.SignalContext(context.Background())
	defer stop()

	cfg := experiments.Config{
		Ctx:            ctx,
		Seed:           flags.Seed,
		SizeCap:        flags.SizeCap,
		MatchCap:       flags.MatchCap,
		UseTransformer: flags.Transformer,
		Workers:        flags.Workers,
	}
	if flags.Transformer {
		cfg.Transformer = textsynth.TransformerOptions{
			Buckets:        4,
			PairsPerBucket: 24,
			Epochs:         1,
			BatchSize:      4,
			DP:             &textsynth.DPOptions{ClipNorm: 1, Noise: 1.1, Delta: 1e-5},
		}
	}
	if flags.Datasets != "" {
		cfg.Datasets = strings.Split(flags.Datasets, ",")
	}
	// -s1-generator threads through the whole suite: every SERD synthesis
	// (tables, figures, ablations) runs on the selected backend, so any
	// experiment can be rerun under a DP S1 fit.
	gen, err := flags.Generators.Build()
	if err != nil {
		return err
	}
	cfg.Generator = gen

	if flags.Bench != "" {
		return runBench(ctx, cfg, flags, stdout)
	}

	datasets := experiments.NewSuite(cfg).Config().Datasets
	return session.Run(session.Spec{
		Tool:    "experiments",
		Dataset: strings.Join(datasets, ","),
		Seed:    flags.Seed,
		Observe: flags.Observe,
		Config: map[string]string{
			"exp":         flags.Exp,
			"sizecap":     strconv.Itoa(flags.SizeCap),
			"matchcap":    strconv.Itoa(flags.MatchCap),
			"transformer": strconv.FormatBool(flags.Transformer),
		},
		Unjournaled: true,
	}, stdout, func(rec telemetry.Recorder) (session.Result, error) {
		cfg.Metrics = rec
		return session.Result{}, runTables(cfg, flags.Exp, stdout)
	})
}

// runTables regenerates the tables and figures exp names, in the paper's
// order, and stops at the first that fails.
func runTables(cfg experiments.Config, exp string, stdout io.Writer) error {
	suite := experiments.NewSuite(cfg)
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	var runErr error
	runOne := func(id, name string, fn func() error) {
		if runErr != nil || (!all && !want[id]) {
			return
		}
		start := time.Now()
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		if err := fn(); err != nil {
			runErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		fmt.Fprintf(stdout, "(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	runOne("t2", "Table II — dataset statistics", func() error {
		rows, err := suite.TableII()
		if err != nil {
			return err
		}
		experiments.PrintTableII(stdout, rows)
		return nil
	})
	runOne("t1", "Table I — synthesized string examples", func() error {
		rows, err := suite.TableI()
		if err != nil {
			return err
		}
		experiments.PrintTableI(stdout, rows)
		return nil
	})
	runOne("f5", "Figure 5 — Exp-1 user study", func() error {
		rows, err := suite.UserStudy()
		if err != nil {
			return err
		}
		experiments.PrintFigure5(stdout, rows)
		return nil
	})
	runOne("f6", "Figure 6 — Exp-2 Magellan model evaluation", func() error {
		rows, err := suite.ModelEvaluation(experiments.Magellan)
		if err != nil {
			return err
		}
		experiments.PrintEvalRows(stdout, "FIGURE 6 — MAGELLAN, TRAINED ON REAL/SYN, TESTED ON T_real", rows)
		return nil
	})
	runOne("f7", "Figure 7 — Exp-2 Deepmatcher model evaluation", func() error {
		rows, err := suite.ModelEvaluation(experiments.Deepmatcher)
		if err != nil {
			return err
		}
		experiments.PrintEvalRows(stdout, "FIGURE 7 — DEEPMATCHER, TRAINED ON REAL/SYN, TESTED ON T_real", rows)
		return nil
	})
	runOne("f8", "Figure 8 — Exp-3 Magellan data evaluation", func() error {
		rows, err := suite.DataEvaluation(experiments.Magellan)
		if err != nil {
			return err
		}
		experiments.PrintEvalRows(stdout, "FIGURE 8 — MAGELLAN M_real, TESTED ON T_real vs T_syn", rows)
		return nil
	})
	runOne("f9", "Figure 9 — Exp-3 Deepmatcher data evaluation", func() error {
		rows, err := suite.DataEvaluation(experiments.Deepmatcher)
		if err != nil {
			return err
		}
		experiments.PrintEvalRows(stdout, "FIGURE 9 — DEEPMATCHER M_real, TESTED ON T_real vs T_syn", rows)
		return nil
	})
	runOne("t3", "Table III — Exp-4 privacy evaluation", func() error {
		rows, err := suite.TableIII()
		if err != nil {
			return err
		}
		experiments.PrintTableIII(stdout, rows)
		return nil
	})
	runOne("t4", "Table IV — Exp-5 efficiency evaluation", func() error {
		rows, err := suite.TableIV()
		if err != nil {
			return err
		}
		experiments.PrintTableIV(stdout, rows)
		return nil
	})
	// Extensions and ablations beyond the paper's evaluation (not part of
	// -exp all).
	runOne("ext1", "Extension — scale-up synthesis", func() error {
		rows, err := suite.ScaleUp(2.0)
		if err != nil {
			return err
		}
		experiments.PrintScaleUp(stdout, rows)
		return nil
	})
	ablDataset := "Restaurant"
	if len(cfg.Datasets) > 0 {
		ablDataset = cfg.Datasets[0]
	}
	runOne("abl1", "Ablation — rejection alpha", func() error {
		rows, err := suite.AblationAlpha(ablDataset, []float64{0.8, 1.0, 1.5, 3.0})
		if err != nil {
			return err
		}
		experiments.PrintAblationAlpha(stdout, ablDataset, rows)
		return nil
	})
	runOne("abl2", "Ablation — discriminator beta", func() error {
		rows, err := suite.AblationBeta(ablDataset, []float64{0.2, 0.5, 0.8})
		if err != nil {
			return err
		}
		experiments.PrintAblationBeta(stdout, ablDataset, rows)
		return nil
	})
	runOne("abl3", "Ablation — similarity buckets", func() error {
		rows, err := suite.AblationBuckets(ablDataset, []int{2, 4, 8}, nil)
		if err != nil {
			return err
		}
		experiments.PrintAblationBuckets(stdout, ablDataset, rows)
		return nil
	})
	return runErr
}

// runBench is the CI perf-gate path: run the selected bench suite, print
// its rows, write the report, register the rows in the run registry (when
// armed) so `serd runs` can track the perf trajectory, and compare them
// against a pinned baseline.
func runBench(ctx context.Context, cfg experiments.Config, flags *config.Experiments, stdout io.Writer) error {
	store := session.OpenStore(flags.RunStore, "experiments")
	start := time.Now()
	workload, datasets, rows, err := produceBench(ctx, cfg, flags)
	if err != nil {
		return fmt.Errorf("%s bench: %w", flags.Bench, err)
	}
	rep := runstore.Report{Suite: flags.Bench, Time: start, Workload: workload, Rows: rows}
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if flags.BenchOut != "" {
		if err := runstore.WriteBench(flags.BenchOut, rep); err != nil {
			return fmt.Errorf("%s bench: %w", flags.Bench, err)
		}
		fmt.Fprintf(stdout, "%s bench -> %s (%s)\n", flags.Bench, flags.BenchOut, time.Since(start).Round(time.Millisecond))
	}
	if store != nil {
		entry := runstore.Entry{
			RunID:       runstore.SyntheticRunID("experiments-bench", flags.Seed, start.UnixNano()),
			Tool:        "experiments",
			Dataset:     strings.Join(datasets, ","),
			Seed:        flags.Seed,
			Status:      journal.StatusDone,
			Config:      map[string]string{"bench": flags.Bench},
			Start:       start,
			WallSeconds: time.Since(start).Seconds(),
			Bench:       rows,
			Artifacts:   runstore.Artifacts{Report: flags.BenchOut},
		}
		for k, v := range workload {
			entry.Config[k] = v
		}
		session.Register(store, entry, "experiments", stdout)
	}
	if flags.BenchAgainst != "" {
		baseline, err := runstore.ReadBench(flags.BenchAgainst)
		if err != nil {
			return fmt.Errorf("%s bench baseline: %w", flags.Bench, err)
		}
		if problems := runstore.CompareBench(baseline, rep, flags.BenchThreshold); len(problems) > 0 {
			return fmt.Errorf("%s bench regressed against %s (threshold %.0f%%):\n  %s",
				flags.Bench, flags.BenchAgainst, 100*flags.BenchThreshold, strings.Join(problems, "\n  "))
		}
		fmt.Fprintf(stdout, "%s bench holds the %s baseline (threshold %.0f%%)\n", flags.Bench, flags.BenchAgainst, 100*flags.BenchThreshold)
	}
	return nil
}

// produceBench runs the suite flags.Bench names and returns its workload
// (the parameters a baseline must share to be comparable), the datasets it
// benched and its rows.
func produceBench(ctx context.Context, cfg experiments.Config, flags *config.Experiments) (map[string]string, []string, []runstore.Row, error) {
	seed := strconv.FormatInt(flags.Seed, 10)
	switch flags.Bench {
	case "scale":
		// The unblocked (quadratic-S3) twin is skipped above 2k entities
		// per side: past that the full |A|×|B| scoring pass dominates wall
		// time — the wall the blocked rows exist to demonstrate the way
		// around.
		opts := experiments.ScaleBenchOptions{
			Dataset:      "Restaurant",
			Seed:         flags.Seed,
			Sizes:        flags.BenchSizes,
			RecallFloor:  flags.Blocking.RecallFloor,
			UnblockedCap: 2_000,
			Workers:      flags.Workers,
		}
		if len(cfg.Datasets) > 0 {
			opts.Dataset = cfg.Datasets[0]
		}
		if flags.Blocking.Enabled() {
			// Resolve the -s3-blocker flags against the generator's schema
			// (a minimal generation is the cheapest way to obtain it).
			gen, err := datagen.ByName(opts.Dataset)
			if err != nil {
				return nil, nil, nil, err
			}
			probe, err := gen.Gen(datagen.Config{Seed: flags.Seed, SizeA: 2, SizeB: 2, Matches: 1})
			if err != nil {
				return nil, nil, nil, err
			}
			if opts.Blocker, err = flags.Blocking.Build(probe.ER.Schema()); err != nil {
				return nil, nil, nil, err
			}
		}
		rows, err := experiments.ScaleBench(ctx, opts)
		return map[string]string{"seed": seed, "dataset": opts.Dataset}, []string{opts.Dataset}, rows, err
	case "dp":
		opts := experiments.DPBenchOptions{
			Datasets: cfg.Datasets,
			Epsilons: flags.BenchEpsilons,
			Seed:     flags.Seed,
			Size:     flags.SizeCap,
			Workers:  flags.Workers,
		}.WithDefaults()
		rows, err := experiments.DPBench(ctx, opts)
		return map[string]string{"seed": seed, "size": strconv.Itoa(opts.Size)}, opts.Datasets, rows, err
	default:
		rows, err := experiments.CoreBench(cfg)
		workload := map[string]string{"seed": seed, "sizecap": strconv.Itoa(flags.SizeCap), "matchcap": strconv.Itoa(flags.MatchCap)}
		return workload, experiments.NewSuite(cfg).Config().Datasets, rows, err
	}
}
