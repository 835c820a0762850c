// Command datagen writes the surrogate benchmark datasets (and their
// background corpora) to disk as CSV, in the format cmd/serd consumes.
//
// Usage:
//
//	datagen -out DIR [-dataset all|DBLP-ACM|Restaurant|Walmart-Amazon|iTunes-Amazon]
//	        [-seed S] [-size-a N] [-size-b N] [-matches N]
//	        [-metrics-addr :9090] [-report PATH|-no-report] [-journal PATH|-no-journal]
//
// Like cmd/serd, each invocation records its provenance: a run report
// (default <out>/run_report.json) and a hash-chained event journal
// (default <out>/journal.jsonl) carrying the config, a lineage event per
// generated dataset and the terminal status — so `serd audit show` works
// on generation runs too, -trace writes the same span-tree .jsonl the
// `serd trace` subcommands read, and journaled runs register in the run
// registry (default ~/.serd/runs, -run-store to move or disable) for
// `serd runs` history. SIGINT/SIGTERM cancels between datasets and
// journals a clean aborted status; a second signal force-exits with 130.
// The shared flag surface is defined in internal/config.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"serd/internal/blocking"
	"serd/internal/config"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/journal"
	"serd/internal/pipeline"
	"serd/internal/session"
	"serd/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	flags := config.RegisterDatagen(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flags.Validate(); err != nil {
		fs.Usage()
		return err
	}

	var gens []datagen.Generator
	if flags.Dataset == "all" {
		gens = datagen.Registry()
	} else {
		g, err := datagen.ByName(flags.Dataset)
		if err != nil {
			return err
		}
		gens = []datagen.Generator{g}
	}

	var jr *journal.Journal
	jPath := flags.JournalPath
	if jPath == "" {
		jPath = filepath.Join(flags.Out, journal.DefaultName)
	}
	runCfg := map[string]string{
		"out":     flags.Out,
		"dataset": flags.Dataset,
		"size_a":  strconv.Itoa(flags.SizeA),
		"size_b":  strconv.Itoa(flags.SizeB),
		"matches": strconv.Itoa(flags.Matches),
	}
	flags.Blocking.JournaledConfig(runCfg)
	if !flags.NoJournal {
		var err error
		jr, err = journal.Create(jPath)
		if err != nil {
			return err
		}
		defer jr.Close()
		jr.RunStart("datagen", flags.Seed, runCfg)
	}

	// First SIGINT/SIGTERM cancels between datasets (generation is fast;
	// per-dataset granularity keeps every written dataset whole); a second
	// signal force-exits with status 130.
	ctx, stop := pipeline.SignalContext(context.Background())
	defer stop()

	return session.Run(session.Spec{
		Tool:        "datagen",
		Dataset:     flags.Dataset,
		Seed:        flags.Seed,
		Observe:     flags.Observe,
		Out:         flags.Out,
		NoReport:    flags.NoReport,
		Journal:     jr,
		JournalPath: jPath,
		Config:      runCfg,
		OnServing:   testHookServing,
	}, stdout, func(rec telemetry.Recorder) (session.Result, error) {
		summary, err := generate(ctx, flags, gens, jr, rec, stdout)
		return session.Result{Summary: summary}, err
	})
}

// generate writes each generator's dataset and background corpora under
// -out, journals its output lineage and, with -s3-blocker, grades the
// blocker against it. The summary it returns holds the per-dataset
// counts, also on error.
func generate(ctx context.Context, flags *config.Datagen, gens []datagen.Generator, jr *journal.Journal, rec telemetry.Recorder, stdout io.Writer) (map[string]float64, error) {
	summary := map[string]float64{}
	for _, g := range gens {
		if err := ctx.Err(); err != nil {
			return summary, fmt.Errorf("datagen: canceled before %s: %w", g.Name, err)
		}
		dir := filepath.Join(flags.Out, g.Name)
		span := rec.StartSpan("datagen." + g.Name)
		gen, err := writeGenerated(g, flags, dir)
		span.End()
		if err != nil {
			return summary, fmt.Errorf("%s: %w", g.Name, err)
		}
		if jr != nil {
			if err := jr.Lineage("output", dir); err != nil {
				return summary, err
			}
		}
		st := gen.ER.Stats()
		rec.Add("datagen.entities", float64(st.SizeA+st.SizeB))
		rec.Add("datagen.matches", float64(st.Matches))
		summary[g.Name+".entities"] = float64(st.SizeA + st.SizeB)
		summary[g.Name+".matches"] = float64(st.Matches)
		fmt.Fprintf(stdout, "%-15s -> %s (|A|=%d |B|=%d |M|=%d, %d background corpora)\n",
			g.Name, dir, st.SizeA, st.SizeB, st.Matches, len(gen.Background))

		// With -s3-blocker, grade the blocker against this dataset's
		// ground truth — here recall is exact, not a held-out bound, so
		// a generation run doubles as a blocking dry-run before a long
		// synthesis commits to the same configuration.
		if flags.Blocking.Enabled() {
			if err := gradeBlocker(flags, g.Name, gen.ER, jr, summary, stdout); err != nil {
				return summary, fmt.Errorf("%s: %w", g.Name, err)
			}
		}
	}
	return summary, nil
}

// writeGenerated generates one dataset and writes it, with one
// background corpus per textual column, to dir.
func writeGenerated(g datagen.Generator, flags *config.Datagen, dir string) (*datagen.Generated, error) {
	gen, err := g.Gen(datagen.Config{Seed: flags.Seed, SizeA: flags.SizeA, SizeB: flags.SizeB, Matches: flags.Matches})
	if err != nil {
		return nil, err
	}
	if err := dataset.SaveDir(dir, gen.ER); err != nil {
		return nil, err
	}
	for col, corpus := range gen.Background {
		f, err := os.Create(filepath.Join(dir, "background_"+col+".txt"))
		if err != nil {
			return nil, err
		}
		for _, s := range corpus {
			fmt.Fprintln(f, s)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return gen, nil
}

// gradeBlocker evaluates the configured blocker against a generated
// dataset's ground-truth matches and journals the result as a blocking
// event (source "datagen"), mirroring what a blocked synthesis run would
// record — except the recall here is exact.
func gradeBlocker(flags *config.Datagen, name string, e *dataset.ER, jr *journal.Journal, summary map[string]float64, stdout io.Writer) error {
	bl, err := flags.Blocking.Build(e.Schema())
	if err != nil {
		return err
	}
	cands, err := bl.Candidates(e.A, e.B)
	if err != nil {
		return err
	}
	q := blocking.Evaluate(e, cands)
	if jr != nil {
		jr.Blocking(journal.BlockingData{
			Source:         "datagen." + name,
			Blocker:        bl.Describe(),
			Candidates:     q.Candidates,
			PairSpace:      float64(e.A.Len()) * float64(e.B.Len()),
			ReductionRatio: q.ReductionRatio,
			RecallBound:    q.Recall,
			HeldOutMatches: len(e.Matches),
			RecallFloor:    flags.Blocking.RecallFloor,
		})
		if floor := flags.Blocking.RecallFloor; floor > 0 && q.Recall < floor {
			jr.Warning("datagen."+name, "blocking recall below configured floor", map[string]string{
				"blocker": bl.Describe(),
				"recall":  strconv.FormatFloat(q.Recall, 'g', -1, 64),
				"floor":   strconv.FormatFloat(floor, 'g', -1, 64),
			})
		}
	}
	summary[name+".blocking_recall"] = q.Recall
	summary[name+".blocking_reduction"] = q.ReductionRatio
	fmt.Fprintf(stdout, "%-15s    blocking %s: candidates=%d reduction=%.4f recall=%.4f\n",
		name, bl.Describe(), q.Candidates, q.ReductionRatio, q.Recall)
	return nil
}

// testHookServing is called with the inspector's bound address once it is
// listening, so tests can hit the live endpoints mid-run.
var testHookServing = func(addr string) {}
