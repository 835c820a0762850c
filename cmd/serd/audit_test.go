package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serd"
	"serd/internal/journal"
)

// synthesizeRun executes one journaled rule-synthesizer run into
// <dir>/out-<name> and returns its output directory.
func synthesizeRun(t *testing.T, dir, inDir, name string, extra ...string) string {
	t.Helper()
	outDir := filepath.Join(dir, "out-"+name)
	args := append([]string{
		"-in", inDir, "-out", outDir,
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7",
	}, extra...)
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run %s: %v\noutput:\n%s", name, err, buf.String())
	}
	return outDir
}

func TestAuditVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outDir := synthesizeRun(t, dir, inDir, "clean")

	jPath := filepath.Join(outDir, journal.DefaultName)
	if _, err := os.Stat(jPath); err != nil {
		t.Fatalf("journal not written: %v", err)
	}

	var buf bytes.Buffer
	if err := run([]string{"audit", "verify", outDir}, &buf); err != nil {
		t.Fatalf("audit verify on a clean run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "verified:") {
		t.Errorf("verify output:\n%s", buf.String())
	}

	// The report links back to the journal and the journal chains cleanly.
	rep, err := serd.ReadRunReport(filepath.Join(outDir, "run_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Journal != jPath {
		t.Errorf("report journal = %q, want %q", rep.Journal, jPath)
	}
	events, err := journal.Read(jPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Status != journal.StatusDone || sum.Seed != 7 || sum.Tool != "serd" {
		t.Errorf("summary = status %q seed %d tool %q", sum.Status, sum.Seed, sum.Tool)
	}
	var roles []string
	for _, l := range sum.Lineage {
		roles = append(roles, l.Role)
	}
	if len(roles) != 2 || roles[0] != "input" || roles[1] != "output" {
		t.Errorf("lineage roles = %v", roles)
	}
	var phases []string
	for _, p := range sum.Phases {
		phases = append(phases, p.Name)
	}
	for _, want := range []string{"core.s1", "core.s2", "core.s3"} {
		found := false
		for _, p := range phases {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("journal missing phase %s (have %v)", want, phases)
		}
	}
	if len(sum.GenFits) != 2 {
		t.Errorf("journal has %d generator_fit events, want 2", len(sum.GenFits))
	}
	if sum.Synthesis == nil || sum.Synthesis.Entities == 0 {
		t.Errorf("journal synthesis summary = %+v", sum.Synthesis)
	}
}

func TestAuditVerifyDetectsDatasetTampering(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outDir := synthesizeRun(t, dir, inDir, "tamper")

	path := filepath.Join(outDir, "A.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte("zz,evil,evil,evil,evil\n")...), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = run([]string{"audit", "verify", outDir}, &buf)
	if err == nil {
		t.Fatalf("audit verify passed on a tampered dataset:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "A.csv") {
		t.Errorf("verify output does not name the tampered file:\n%s", buf.String())
	}
}

func TestAuditVerifyDetectsJournalTampering(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outDir := synthesizeRun(t, dir, inDir, "jtamper")

	jPath := filepath.Join(outDir, journal.DefaultName)
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(raw), `"seed":7`, `"seed":8`, 1)
	if edited == string(raw) {
		t.Fatal("test setup: seed not found in journal")
	}
	if err := os.WriteFile(jPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"audit", "verify", outDir}, &buf); err == nil {
		t.Fatalf("audit verify passed on an edited journal:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "chain") {
		t.Errorf("verify output does not mention the chain:\n%s", buf.String())
	}
}

func TestAuditShowAndDiff(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outA := synthesizeRun(t, dir, inDir, "a")
	outB := synthesizeRun(t, dir, inDir, "b", "-size-a", "20")

	var show bytes.Buffer
	if err := run([]string{"audit", "show", outA}, &show); err != nil {
		t.Fatalf("audit show: %v", err)
	}
	for _, want := range []string{"status: done", "lineage output", "phase core.s2", "generator fit s1.match", "synthesis:"} {
		if !strings.Contains(show.String(), want) {
			t.Errorf("audit show missing %q:\n%s", want, show.String())
		}
	}

	var diff bytes.Buffer
	if err := run([]string{"audit", "diff", outA, outB}, &diff); err != nil {
		t.Fatalf("audit diff: %v", err)
	}
	out := diff.String()
	if !strings.Contains(out, "size_a") {
		t.Errorf("diff missing the size_a config delta:\n%s", out)
	}
	if !strings.Contains(out, "lineage") {
		t.Errorf("diff missing the lineage delta:\n%s", out)
	}
}

// TestAuditShowSurfacesGenerator pins the backend-visibility contract:
// `audit show` renders the S1 backend name and backend-tagged fit lines
// for every run — the no-flag default (gmm) as well as an explicit
// privbayes run, which also shows its per-backend ε group.
func TestAuditShowSurfacesGenerator(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outPB := synthesizeRun(t, dir, inDir, "pb", "-s1-generator", "privbayes", "-gen-epsilon", "2")

	var show bytes.Buffer
	if err := run([]string{"audit", "show", outPB}, &show); err != nil {
		t.Fatalf("audit show: %v", err)
	}
	for _, want := range []string{
		"s1 generator: privbayes",
		"generator fit s1.match",
		"backend=privbayes",
		"group=s1.privbayes",
	} {
		if !strings.Contains(show.String(), want) {
			t.Errorf("audit show missing %q:\n%s", want, show.String())
		}
	}

	outDefault := synthesizeRun(t, dir, inDir, "default")
	show.Reset()
	if err := run([]string{"audit", "show", outDefault}, &show); err != nil {
		t.Fatalf("audit show (default): %v", err)
	}
	for _, want := range []string{"s1 generator: gmm", "generator fit s1.match", "backend=gmm"} {
		if !strings.Contains(show.String(), want) {
			t.Errorf("audit show (default) missing %q:\n%s", want, show.String())
		}
	}
}

// TestAuditReadsLegacyDefaultJournal pins read-side compatibility with
// journals from builds whose default S1 path wrote gmm_fit events and no
// core.generator config. testdata/legacy-default.journal.jsonl and its
// output dataset testdata/legacy-default/ were written by such a build
// (serd -in in -out legacy-default -journal legacy-default.journal.jsonl
// -seed 7 -size-a 20 -size-b 20 on a 30×30 Restaurant sample).
func TestAuditReadsLegacyDefaultJournal(t *testing.T) {
	jPath := filepath.Join("testdata", "legacy-default.journal.jsonl")
	var out bytes.Buffer
	if err := run([]string{"audit", "verify", jPath}, &out); err != nil {
		t.Fatalf("audit verify on a legacy journal: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"audit", "show", jPath}, &out); err != nil {
		t.Fatalf("audit show on a legacy journal: %v", err)
	}
	for _, want := range []string{"gmm fit s1.match", "gmm fit s1.nonmatch"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("audit show missing %q:\n%s", want, out.String())
		}
	}
	events, err := journal.Read(jPath)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := serd.RunEntryFromJournal(events)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Generator != "gmm" {
		t.Errorf("registry entry generator = %q, want gmm", entry.Generator)
	}
}

func TestAuditUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"audit"},
		{"audit", "bogus"},
		{"audit", "show"},
		{"audit", "verify", "a", "b"},
		{"audit", "diff", "only-one"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run([]string{"audit", "show", filepath.Join(t.TempDir(), "missing")}, io.Discard); err == nil {
		t.Error("audit show on a missing run accepted")
	}
}

func TestNoJournalFlag(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	writeSampleInput(t, inDir)
	outDir := synthesizeRun(t, dir, inDir, "nojournal", "-no-journal")
	if _, err := os.Stat(filepath.Join(outDir, journal.DefaultName)); !os.IsNotExist(err) {
		t.Errorf("journal written despite -no-journal (stat err = %v)", err)
	}
	rep, err := serd.ReadRunReport(filepath.Join(outDir, "run_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Journal != "" {
		t.Errorf("report journal = %q, want empty", rep.Journal)
	}
}
