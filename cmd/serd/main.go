// Command serd synthesizes a privacy-preserving ER dataset from CSVs on
// disk — the end-user entry point of the library.
//
// The input directory must contain A.csv, B.csv and matches.csv (the layout
// written by cmd/datagen or serd.SaveDataset) plus one background_<col>.txt
// corpus per textual column. The schema is described on the command line:
//
//	serd -in data/Restaurant -out out/Restaurant \
//	     -schema 'name:text,address:text,city:cat,flavor:cat'
//
// Column spec syntax: <name>:text | <name>:cat | <name>:num:<min>:<max> |
// <name>:date:<min>:<max>. Text and categorical columns use 3-gram Jaccard
// (case-folded); numeric/date use min-max scaled absolute difference. The
// full flag surface is defined in internal/config, shared with the other
// binaries.
//
// Observability: -metrics-addr starts the live run inspector
// (/metrics.json, /metrics in Prometheus text format, /debug/pprof/)
// for the duration of the run, and a structured run report (per-phase
// durations, rejection counters, EM iterations, DP budget) is written to
// <out>/run_report.json unless -no-report is given.
//
// Cancellation: the first SIGINT/SIGTERM cancels the run's context, which
// is threaded through every pipeline stage — the interrupted stage writes
// a final checkpoint (when -checkpoint-dir is set), the journal records a
// clean "aborted" status, and -resume replays bit-identically. A second
// signal force-exits immediately with status 130.
//
// Provenance: every run also writes an append-only, hash-chained event
// journal to <out>/journal.jsonl (disable with -no-journal) recording the
// run config, input/output dataset lineage hashes, phase boundaries, GMM
// fit summaries, every DP expenditure and the terminal status. With
// -transformer the textual columns are synthesized by the DP-SGD
// transformer bank and each bucket's (ε, δ) is charged to the run's
// privacy ledger; -epsilon-budget caps the composed ε (abort by default,
// -budget-warn to continue with a journaled warning). Inspect recorded
// runs with the audit subcommand:
//
//	serd audit show   <run-dir>           # pretty-print journal + ledger
//	serd audit verify <run-dir>           # recompute ε, re-hash the dataset
//	serd audit diff   <run-dirA> <run-dirB>
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"serd"
	"serd/internal/checkpoint"
	"serd/internal/config"
	"serd/internal/journal"
	"serd/internal/pipeline"
	"serd/internal/runstore"
	"serd/internal/session"
	"serd/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serd:", err)
		if errors.Is(err, runstore.ErrRegression) {
			// Distinct exit code so CI can gate on cross-run drift without
			// conflating it with ordinary failures (exit 1).
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// testHookServing is called with the inspector's bound address once it is
// listening, so tests can hit the live endpoints mid-run.
var testHookServing = func(addr string) {}

// testHookCheckpointer exposes the run's checkpointer so tests can inject
// faults (kill the run at a chosen save) without a subprocess.
var testHookCheckpointer = func(cp *checkpoint.Checkpointer) {}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "audit" {
		return runAudit(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "runs" {
		return runRuns(args[1:], stdout)
	}
	fs := flag.NewFlagSet("serd", flag.ContinueOnError)
	flags := config.RegisterSerd(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := flags.Validate(); err != nil {
		fs.Usage()
		return err
	}

	schema, err := config.ParseSchema(flags.SchemaSpec)
	if err != nil {
		return err
	}
	real, err := serd.LoadDataset(flags.In, schema)
	if err != nil {
		return err
	}
	if errs := serd.ValidateDataset(real); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "invalid input:", e)
		}
		return fmt.Errorf("input dataset failed validation (%d problems)", len(errs))
	}
	fmt.Fprintf(stdout, "loaded %+v\n", real.Stats())

	// The checkpoint snapshot loads first: a resume needs its journal seam
	// before the journal can be reopened. The journaled config excludes
	// execution parameters (-workers, the checkpoint family): they select
	// how the run executes, not what it computes.
	runCfg := flags.JournaledConfig()
	var snap *checkpoint.Snapshot
	var latest *checkpoint.File
	if flags.Resume {
		snap, err = checkpoint.ReadDir(flags.CheckpointDir)
		if err != nil {
			return fmt.Errorf("reading checkpoints: %w", err)
		}
		latest = snap.Latest()
		if latest == nil {
			return fmt.Errorf("no checkpoint to resume from in %s", flags.CheckpointDir)
		}
		if latest.Meta.Tool != "serd" {
			return fmt.Errorf("checkpoint was written by %q, not serd", latest.Meta.Tool)
		}
		if latest.Meta.Seed != flags.Seed {
			return fmt.Errorf("checkpoint has seed %d, flags say %d; a resume must replay the same run", latest.Meta.Seed, flags.Seed)
		}
	}

	// The journal is the run's durable provenance record; it opens before
	// the pipeline so even failed runs leave an explainable trail. On
	// resume it is reopened at the checkpoint's seam: the hash-chained
	// prefix is verified, events past the seam (work the checkpoint does
	// not cover) are truncated away, and a "resume" event marks the splice.
	var jr *journal.Journal
	var restoredCharges []journal.Entry
	var openPhases map[string]int
	jPath := flags.JournalPath
	if jPath == "" {
		jPath = filepath.Join(flags.Out, journal.DefaultName)
	}
	switch {
	case flags.NoJournal:
		if latest != nil && latest.Meta.JournalSeq != 0 {
			return errors.New("checkpoint carries a journal seam; resume without -no-journal")
		}
	case latest != nil:
		if latest.Meta.JournalSeq == 0 {
			return errors.New("checkpoint was taken without a journal; resume with -no-journal")
		}
		jr, err = journal.Resume(jPath, latest.Meta.JournalSeq, latest.Meta.JournalChain, latest.Meta.JournalBytes)
		if err != nil {
			return fmt.Errorf("resuming journal: %w", err)
		}
		defer jr.Close()
		prefix, err := journal.Read(jPath)
		if err != nil {
			return err
		}
		sum, err := journal.Summarize(prefix)
		if err != nil {
			return err
		}
		for k, v := range sum.Config {
			if runCfg[k] != v {
				return fmt.Errorf("flag mismatch with the journaled run: %s was %q, now %q; a resume must replay the same run", k, v, runCfg[k])
			}
		}
		// And the reverse direction: run parameters journaled only when
		// their feature is on (block_*, s1_generator/generator_*) are
		// absent from an original run that ran without them, so a resume
		// that switches the feature ON appears only in runCfg.
		for k, v := range runCfg {
			if _, ok := sum.Config[k]; !ok {
				return fmt.Errorf("flag mismatch with the journaled run: %s=%q was not set on the original run; a resume must replay the same run", k, v)
			}
		}
		restoredCharges = sum.Charges
		openPhases = journal.OpenPhases(prefix)
		jr.Resumed(journal.ResumeData{
			Phase:         latest.Meta.Phase,
			Column:        latest.Meta.Column,
			Checkpoint:    filepath.Base(latest.Path),
			CheckpointSHA: latest.SHA,
			Seq:           latest.Meta.JournalSeq,
			Chain:         latest.Meta.JournalChain,
		})
	default:
		jr, err = journal.Create(jPath)
		if err != nil {
			return err
		}
		defer jr.Close()
		jr.RunStart("serd", flags.Seed, runCfg)
		if err := jr.Lineage("input", flags.In); err != nil {
			return err
		}
	}
	ledger := journal.NewLedger(jr)
	ledger.Restore(restoredCharges)
	if flags.EpsilonBudget > 0 {
		mode := journal.BudgetAbort
		if flags.BudgetWarn {
			mode = journal.BudgetWarn
		}
		ledger.SetBudget(flags.EpsilonBudget, mode)
	}
	if latest == nil {
		// On resume the journal prefix already holds this log line.
		logger := slog.New(jr.Handler(slog.LevelInfo))
		st := real.Stats()
		logger.Info("dataset loaded", "size_a", st.SizeA, "size_b", st.SizeB, "matches", st.Matches)
	}

	// The checkpointer opens after the journal so every save embeds a live
	// seam.
	var cp *checkpoint.Checkpointer
	if flags.CheckpointDir != "" {
		cp, err = checkpoint.New(checkpoint.Config{Dir: flags.CheckpointDir, Every: flags.CheckpointEvery, Tool: "serd", Seed: flags.Seed, Journal: jr})
		if err != nil {
			return err
		}
		if !flags.Resume {
			// A fresh run must not resume-match stale files from an
			// earlier one.
			if err := cp.Clear(); err != nil {
				return err
			}
		}
		testHookCheckpointer(cp)
	}

	// The first SIGINT/SIGTERM cancels this context; the cancellation
	// propagates through every stage of the pipeline, the interrupted
	// stage writes its final checkpoint, and the run journals a clean
	// aborted status below. A second signal force-exits with status 130.
	ctx, stop := pipeline.SignalContext(context.Background())
	defer stop()

	err = session.Run(session.Spec{
		Tool:        "serd",
		Dataset:     filepath.Base(filepath.Clean(flags.In)),
		Seed:        flags.Seed,
		Observe:     flags.Observe,
		Out:         flags.Out,
		NoReport:    flags.NoReport,
		Journal:     jr,
		JournalPath: jPath,
		OpenPhases:  openPhases,
		Config:      runCfg,
		Checkpoints: flags.CheckpointDir,
		OnServing:   testHookServing,
	}, stdout, func(rec telemetry.Recorder) (session.Result, error) {
		return synth(ctx, synthConfig{flags: flags, schema: schema, jr: jr, ledger: ledger, cp: cp, snap: snap}, rec, real, stdout)
	})
	if err != nil && os.Getenv("SERD_TEST_HANG_ABORT") != "" {
		// Simulates a graceful abort that wedges on the way out (a stuck
		// flush, a hung deferred resource) so the subprocess e2e test can
		// drive the double-interrupt force-exit for real.
		time.Sleep(time.Minute)
	}
	return err
}
