package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"serd/internal/journal"
)

const auditUsage = `usage: serd audit <command> [flags] <run>...

Inspect the event journal a serd run writes next to its output dataset.

commands:
  show   <run>          pretty-print a run's journal: config, lineage,
                        phases, S1 fits, privacy ledger, terminal status
  verify <run>          re-verify the journal hash chain, recompute every
                        DP expenditure's ε and the composed total, and
                        re-hash the output dataset against its lineage
  diff   <runA> <runB>  compare two runs' config, privacy cost, headline
                        metrics and output lineage

<run> is a run output directory (containing journal.jsonl) or a journal
file path.

flags:
  -journal name   journal filename inside a run directory (default journal.jsonl)
  -dataset dir    verify only: re-hash this directory instead of the
                  journal-recorded output location
`

func runAudit(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stdout, auditUsage)
		return errors.New("audit: missing command")
	}
	sub := args[0]
	fs := flag.NewFlagSet("serd audit "+sub, flag.ContinueOnError)
	journalName := fs.String("journal", journal.DefaultName, "journal filename inside a run directory")
	datasetDir := fs.String("dataset", "", "verify: re-hash this directory instead of the journaled output location")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch sub {
	case "show":
		if fs.NArg() != 1 {
			return errors.New("audit show: want exactly one run directory or journal path")
		}
		return auditShow(resolveJournal(fs.Arg(0), *journalName), stdout)
	case "verify":
		if fs.NArg() != 1 {
			return errors.New("audit verify: want exactly one run directory or journal path")
		}
		return auditVerify(resolveJournal(fs.Arg(0), *journalName), *datasetDir, stdout)
	case "diff":
		if fs.NArg() != 2 {
			return errors.New("audit diff: want exactly two run directories or journal paths")
		}
		return auditDiff(resolveJournal(fs.Arg(0), *journalName), resolveJournal(fs.Arg(1), *journalName), stdout)
	default:
		fmt.Fprint(stdout, auditUsage)
		return fmt.Errorf("audit: unknown command %q", sub)
	}
}

// resolveJournal maps a run argument to a journal file: a directory means
// <dir>/<name>, anything else is taken as the journal path itself.
func resolveJournal(arg, name string) string {
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		return filepath.Join(arg, name)
	}
	return arg
}

func loadSummary(path string) (*journal.RunSummary, error) {
	events, err := journal.Read(path)
	if err != nil {
		return nil, err
	}
	return journal.Summarize(events)
}

func auditShow(path string, stdout io.Writer) error {
	sum, err := loadSummary(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run: %s (tool=%s seed=%d, %d events)\n", path, sum.Tool, sum.Seed, sum.Events)
	status := sum.Status
	if status == "" {
		status = "(no run_end event — run still in progress or killed)"
	}
	fmt.Fprintf(stdout, "status: %s", status)
	if sum.StatusError != "" {
		fmt.Fprintf(stdout, " (%s)", sum.StatusError)
	}
	if sum.WallS > 0 {
		fmt.Fprintf(stdout, "  wall=%.2fs", sum.WallS)
	}
	fmt.Fprintln(stdout)

	if len(sum.Config) > 0 {
		fmt.Fprintln(stdout, "config:")
		for _, k := range sortedKeys(sum.Config) {
			fmt.Fprintf(stdout, "  %-16s %s\n", k, sum.Config[k])
		}
	}
	// The core.generator config event names the S1 backend that fitted
	// O_real. Journals from older builds lack it on their default path
	// (they carry gmm fit lines instead), as do -load-dist runs.
	if gen := sum.Configs["core.generator"]; gen != nil {
		fmt.Fprintf(stdout, "s1 generator: %s", gen["backend"])
		if d := gen["describe"]; d != "" {
			fmt.Fprintf(stdout, " (%s)", d)
		}
		fmt.Fprintln(stdout)
	}
	for _, lin := range sum.Lineage {
		fmt.Fprintf(stdout, "lineage %-7s %s  %s\n", lin.Role, shortHash(lin.Combined), lin.Dir)
		for _, name := range sortedKeys(lin.Files) {
			fmt.Fprintf(stdout, "  %-22s %s\n", name, shortHash(lin.Files[name]))
		}
	}
	for _, r := range sum.Resumes {
		where := r.Phase
		if r.Column != "" {
			where += "/" + r.Column
		}
		fmt.Fprintf(stdout, "resume at %-20s from %s (%s, journal seq %d)\n",
			where, r.Checkpoint, shortHash(r.CheckpointSHA), r.Seq)
	}
	for _, ph := range sum.Phases {
		fmt.Fprintf(stdout, "phase %-28s %8.3fs\n", ph.Name, ph.DurS)
	}
	for _, fit := range sum.Fits {
		fmt.Fprintf(stdout, "gmm fit %-14s dim=%d components=%d samples=%d logL=%.2f\n",
			fit.Name, fit.Dim, fit.Components, fit.Samples, fit.LogLikelihood)
	}
	for _, fit := range sum.GenFits {
		fmt.Fprintf(stdout, "generator fit %-8s backend=%s dim=%d samples=%d",
			fit.Name, fit.Backend, fit.Dim, fit.Samples)
		if fit.Detail != "" {
			fmt.Fprintf(stdout, " %s", fit.Detail)
		}
		fmt.Fprintln(stdout)
	}
	if len(sum.Charges) > 0 {
		fmt.Fprintln(stdout, "privacy ledger:")
		for _, e := range sum.Charges {
			group := e.Group
			if group == "" {
				group = "-"
			}
			fmt.Fprintf(stdout, "  %-24s %-9s group=%-16s ε=%.4f δ=%.2g\n", e.Label, e.Kind, group, e.Epsilon, e.Delta)
		}
		fmt.Fprintf(stdout, "  composed: ε=%.4f δ=%.2g\n", sum.LedgerEps, sum.LedgerDelta)
	}
	for _, b := range sum.Budget {
		fmt.Fprintf(stdout, "budget %s at %q: projected ε=%.4f > budget ε=%.4f\n", b.Action, b.Label, b.Projected, b.Budget)
	}
	if sum.Checkpoints > 0 {
		fmt.Fprintf(stdout, "ε checkpoints: %d (final ε=%.4f)\n", sum.Checkpoints, sum.FinalCheckpoint)
	}
	for _, bl := range sum.Blocking {
		fmt.Fprintf(stdout, "blocking [%s] %s: candidates=%d reduction=%.4f recall_bound=%.4f (on %d held-out matches)",
			bl.Source, bl.Blocker, bl.Candidates, bl.ReductionRatio, bl.RecallBound, bl.HeldOutMatches)
		if bl.RecallFloor > 0 {
			fmt.Fprintf(stdout, " floor=%.4f", bl.RecallFloor)
		}
		fmt.Fprintln(stdout)
	}
	if sum.Synthesis != nil {
		sy := sum.Synthesis
		fmt.Fprintf(stdout, "synthesis: entities=%d matches=%d sampled=%d rejected=%d/%d jsd=%.4f\n",
			sy.Entities, sy.Matches, sy.SampledMatches, sy.RejectedByDistribution, sy.RejectedByDiscriminator, sy.JSD)
	}
	for _, w := range sum.Warnings {
		fmt.Fprintf(stdout, "warning [%s] %s", w.Source, w.Message)
		for _, k := range sortedKeys(w.Fields) {
			fmt.Fprintf(stdout, " %s=%s", k, w.Fields[k])
		}
		fmt.Fprintln(stdout)
	}
	for _, l := range sum.Logs {
		fmt.Fprintf(stdout, "log [%s] %s", l.Level, l.Msg)
		for _, k := range sortedKeys(l.Attrs) {
			fmt.Fprintf(stdout, " %s=%v", k, l.Attrs[k])
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func auditVerify(path, datasetDir string, stdout io.Writer) error {
	res, err := journal.Verify(path, datasetDir)
	if err != nil {
		return err
	}
	check := func(name string, ok bool, detail string) {
		mark := "ok  "
		if !ok {
			mark = "FAIL"
		}
		fmt.Fprintf(stdout, "%s  %-12s %s\n", mark, name, detail)
	}
	check("chain", res.ChainOK, fmt.Sprintf("%d journal lines hash-chained", res.Events))
	check("epsilon", res.EpsilonOK, fmt.Sprintf("recorded ε=%.6g, recomputed ε=%.6g", res.RecordedEpsilon, res.RecomputedEpsilon))
	if res.LineageChecked {
		check("lineage", res.LineageOK, "output dataset re-hashed against journal")
	} else {
		fmt.Fprintln(stdout, "skip  lineage      journal records no output lineage")
	}
	if !res.OK() {
		for _, p := range res.Problems {
			fmt.Fprintf(stdout, "  problem: %s\n", p)
		}
		return fmt.Errorf("audit verify: %s failed %d check(s)", path, len(res.Problems))
	}
	fmt.Fprintf(stdout, "verified: %s\n", path)
	return nil
}

func auditDiff(pathA, pathB string, stdout io.Writer) error {
	a, err := loadSummary(pathA)
	if err != nil {
		return err
	}
	b, err := loadSummary(pathB)
	if err != nil {
		return err
	}
	d := journal.DiffRuns(a, b)
	if d.Empty() {
		fmt.Fprintln(stdout, "runs are identical under config, privacy, summary, lineage and status")
		return nil
	}
	section := func(name string, entries []journal.DiffEntry) {
		if len(entries) == 0 {
			return
		}
		fmt.Fprintf(stdout, "%s:\n", name)
		for _, e := range entries {
			fmt.Fprintf(stdout, "  %-26s %s -> %s\n", e.Key, e.A, e.B)
		}
	}
	section("config", d.Config)
	section("privacy", d.Privacy)
	section("summary", d.Summary)
	section("lineage", d.Lineage)
	section("status", d.Status)
	return nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}
