package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serd"
	"serd/internal/config"
)

// TestParseSchema pins the CLI's schema parser binding — the parser itself
// lives in internal/config (with its own tests and fuzz target); this
// checks the types it hands back still satisfy the public facade aliases
// the rest of the command consumes.
func TestParseSchema(t *testing.T) {
	s, err := config.ParseSchema("title:text,venue:cat,year:num:1995:2005,released:date:0:7300")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("got %d columns", s.Len())
	}
	wantKinds := []serd.Kind{serd.Textual, serd.Categorical, serd.Numeric, serd.Date}
	for i, k := range wantKinds {
		if s.Cols[i].Kind != k {
			t.Errorf("column %d kind = %v, want %v", i, s.Cols[i].Kind, k)
		}
	}
	if s.Cols[2].Sim.(serd.NumericSim).Min != 1995 {
		t.Error("numeric range not parsed")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []string{
		"",
		"title",
		"title:blob",
		"year:num",
		"year:num:a:b",
		"year:num:1:x",
		"dup:text,dup:text",
	}
	for _, spec := range cases {
		if _, err := config.ParseSchema(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestReadLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.txt")
	if err := os.WriteFile(path, []byte("one\n\n  two  \nthree\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := readLines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || lines[1] != "two" {
		t.Fatalf("lines = %q", lines)
	}
	if _, err := readLines(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunMissingFlags(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("run with no flags accepted")
	}
	if err := run([]string{"-in", "x"}, io.Discard); err == nil {
		t.Fatal("run without -out/-schema accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// distRun runs serd on a fresh sample input with the given extra flags,
// returning the run error and the (possibly never created) output dir.
func distRun(t *testing.T, dir, name string, extra ...string) (string, error) {
	t.Helper()
	out := filepath.Join(dir, "out-"+name)
	args := append([]string{
		"-in", filepath.Join(dir, "in"), "-out", out,
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7", "-run-store", "off", "-no-report",
	}, extra...)
	return out, run(args, io.Discard)
}

// TestRunLoadDistRejectsNonGMMBackend pins that -load-dist, which skips
// S1 with a saved GMM joint, refuses another backend before any work:
// otherwise the run would journal a privbayes configuration no fit ever
// ran (and die at the first checkpoint trying to snapshot the joint).
func TestRunLoadDistRejectsNonGMMBackend(t *testing.T) {
	dir := t.TempDir()
	writeSampleInput(t, filepath.Join(dir, "in"))
	dist := filepath.Join(dir, "dist.json")
	if _, err := distRun(t, dir, "save", "-save-dist", dist); err != nil {
		t.Fatalf("saving a distribution: %v", err)
	}
	if _, err := distRun(t, dir, "load", "-load-dist", dist); err != nil {
		t.Fatalf("reusing a distribution on the default backend: %v", err)
	}
	for name, extra := range map[string][]string{
		"plain":      {},
		"checkpoint": {"-checkpoint-dir", filepath.Join(dir, "ckpt")},
	} {
		args := append([]string{"-load-dist", dist, "-s1-generator", "privbayes", "-gen-epsilon", "2"}, extra...)
		out, err := distRun(t, dir, "pb-"+name, args...)
		if err == nil || !strings.Contains(err.Error(), "-load-dist") {
			t.Errorf("%s: err = %v, want a -load-dist refusal", name, err)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("%s: refused run still created %s", name, out)
		}
	}
}

// TestRunSaveDistRejectsNonGMMBackend pins that -save-dist with a backend
// that fits no GMM joint is refused up front, not after the synthesis.
func TestRunSaveDistRejectsNonGMMBackend(t *testing.T) {
	dir := t.TempDir()
	writeSampleInput(t, filepath.Join(dir, "in"))
	dist := filepath.Join(dir, "dist.json")
	out, err := distRun(t, dir, "pb", "-save-dist", dist, "-s1-generator", "privbayes", "-gen-epsilon", "2")
	if err == nil || !strings.Contains(err.Error(), "-save-dist") {
		t.Fatalf("err = %v, want a -save-dist refusal", err)
	}
	for _, path := range []string{out, dist} {
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Errorf("refused run still created %s", path)
		}
	}
}

// writeSampleInput materializes a small Restaurant dataset plus its
// background corpora in the cmd/serd on-disk layout.
func writeSampleInput(t *testing.T, dir string) {
	t.Helper()
	writeSampleInputSized(t, dir, 30, 10)
}

// writeSampleInputSized writes a Restaurant sample of size entities per
// table with the given number of matches, plus its background corpora.
func writeSampleInputSized(t *testing.T, dir string, size, matches int) {
	t.Helper()
	g, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 1, SizeA: size, SizeB: size, Matches: matches})
	if err != nil {
		t.Fatal(err)
	}
	if err := serd.SaveDataset(dir, g.ER); err != nil {
		t.Fatal(err)
	}
	for col, corpus := range g.Background {
		path := filepath.Join(dir, "background_"+col+".txt")
		if err := os.WriteFile(path, []byte(strings.Join(corpus, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	outDir := filepath.Join(dir, "out")
	writeSampleInput(t, inDir)

	// Capture the live inspector while the run is in flight.
	var liveJSON, liveProm string
	oldHook := testHookServing
	testHookServing = func(addr string) {
		liveJSON = httpGet(t, "http://"+addr+"/metrics.json")
		liveProm = httpGet(t, "http://"+addr+"/metrics")
	}
	defer func() { testHookServing = oldHook }()

	tracePath := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	err := run([]string{
		"-in", inDir, "-out", outDir,
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7",
		"-metrics-addr", "127.0.0.1:0",
		"-trace", tracePath,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(liveJSON, "uptime_seconds") {
		t.Errorf("live /metrics.json = %q", liveJSON)
	}
	if !strings.Contains(liveProm, "serd_uptime_seconds") {
		t.Errorf("live /metrics = %q", liveProm)
	}
	if _, err := os.Stat(filepath.Join(outDir, "A.csv")); err != nil {
		t.Errorf("synthesized dataset not written: %v", err)
	}

	rep, err := serd.ReadRunReport(filepath.Join(outDir, "run_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "serd" || rep.Dataset != "in" || rep.Seed != 7 {
		t.Errorf("report header = %+v", rep)
	}
	if rep.Metrics.Counters["core.s2.accepted"] == 0 {
		t.Error("report missing core.s2.accepted counter")
	}
	if _, ok := rep.Metrics.Phases["core.s2"]; !ok {
		t.Error("report missing core.s2 phase")
	}
	if _, ok := rep.Summary["jsd"]; !ok {
		t.Error("report missing jsd summary")
	}
	if rep.Trace != tracePath {
		t.Errorf("report trace = %q, want %q", rep.Trace, tracePath)
	}
	if rep.Runtime == nil || rep.Runtime.Samples < 1 || rep.Runtime.HeapAllocBytes == 0 {
		t.Errorf("report runtime stats = %+v", rep.Runtime)
	}

	// Both trace files exist and the .jsonl analyzes cleanly through the
	// trace subcommand, with the journal's run id threaded through.
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("chrome trace not written: %v", err)
	}
	var sumOut bytes.Buffer
	if err := run([]string{"trace", "summary", tracePath}, &sumOut); err != nil {
		t.Fatalf("trace summary on the run's own trace: %v", err)
	}
	for _, want := range []string{"run ", "core.s2", "dataset in"} {
		if !strings.Contains(sumOut.String(), want) {
			t.Errorf("trace summary missing %q:\n%s", want, sumOut.String())
		}
	}
}

func TestRunNoReport(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	outDir := filepath.Join(dir, "out")
	writeSampleInput(t, inDir)
	err := run([]string{
		"-in", inDir, "-out", outDir,
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-no-report",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "run_report.json")); !os.IsNotExist(err) {
		t.Errorf("run_report.json written despite -no-report (stat err = %v)", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}
