package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"serd/internal/runstore"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// benchArgs is a toy core-bench workload: one small dataset, seconds.
func benchArgs(store string, extra ...string) []string {
	return append([]string{"-datasets", "Restaurant", "-sizecap", "24", "-matchcap", "8", "-seed", "3", "-run-store", store}, extra...)
}

// TestBenchWriteThenGate drives the bench path end to end: a core run
// writes its report and registers, a rerun holds it, and a baseline whose
// throughput is ten times the measured one fails naming the row.
func TestBenchWriteThenGate(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	out := filepath.Join(dir, "BENCH_core.json")
	var stdout bytes.Buffer
	if err := run(benchArgs(store, "-bench", "core", "-bench-out", out), &stdout); err != nil {
		t.Fatalf("bench -bench-out: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{"entities=48  entities_per_sec=", "run registered:", "core bench -> " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("bench output lacks %q:\n%s", want, stdout.String())
		}
	}
	rep, err := runstore.ReadBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != "core" || rep.Workload["sizecap"] != "24" || len(rep.Rows) != 1 {
		t.Fatalf("report = %+v", rep)
	}

	// The rerun exercises the gate's plumbing: timings of a sub-second
	// toy run swing far more than any production threshold, so the
	// threshold here is loose enough that only a broken path fails.
	stdout.Reset()
	if err := run(benchArgs(store, "-bench-against", out, "-bench-threshold", "1000"), &stdout); err != nil {
		t.Fatalf("rerun against its own baseline: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "core bench holds the") {
		t.Errorf("no hold line:\n%s", stdout.String())
	}

	fast := rep
	fast.Rows = []runstore.Row{{Key: "Restaurant", Metrics: map[string]float64{}}}
	for k, v := range rep.Rows[0].Metrics {
		fast.Rows[0].Metrics[k] = v
	}
	fast.Rows[0].Metrics["entities_per_sec"] *= 10
	fastPath := filepath.Join(dir, "BENCH_fast.json")
	if err := runstore.WriteBench(fastPath, fast); err != nil {
		t.Fatal(err)
	}
	err = run(benchArgs(store, "-bench-against", fastPath, "-bench-threshold", "0.5"), &stdout)
	if err == nil || !strings.Contains(err.Error(), "row Restaurant: entities_per_sec") {
		t.Fatalf("10x baseline: error %v, want one naming the Restaurant throughput row", err)
	}
}

// TestBenchSuiteMismatchRefused: the suite named by -bench must match the
// baseline's, and the refusal comes before any bench work.
func TestBenchSuiteMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	scale := filepath.Join(dir, "BENCH_scale.json")
	if err := runstore.WriteBench(scale, runstore.Report{Suite: "scale", Workload: map[string]string{"seed": "1", "dataset": "Restaurant"}}); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{"-bench", "dp", "-bench-against", scale, "-run-store", "off"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("dp against a scale baseline: error %v, want a suite disagreement", err)
	}
}

// TestTablesTraceReportAndRegistry drives the table path with every
// observability output armed: the trace loads, the report carries the
// runtime sampler's block, and the store holds the run with its stages.
func TestTablesTraceReportAndRegistry(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	tracePath := filepath.Join(dir, "trace.json")
	reportPath := filepath.Join(dir, "report.json")
	var stdout bytes.Buffer
	err := run([]string{"-exp", "t2", "-sizecap", "20", "-matchcap", "6",
		"-trace", tracePath, "-report", reportPath, "-run-store", store}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if _, err := trace.Load(tracePath); err != nil {
		t.Errorf("trace: %v", err)
	}
	rep, err := telemetry.ReadRunReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "experiments" || rep.Runtime == nil || rep.Runtime.Samples < 1 {
		t.Errorf("report = tool %q, runtime %+v; want experiments with a runtime block", rep.Tool, rep.Runtime)
	}
	s, err := runstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("store holds %d entries (%v), want 1", len(entries), err)
	}
	if e := entries[0]; e.Tool != "experiments" || len(e.Stages) == 0 || e.Artifacts.Report != reportPath || e.Artifacts.Trace != tracePath {
		t.Errorf("entry = %+v", e)
	}
}
