package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"serd/internal/runstore"
)

// TestScaleBenchSmall runs the real bench at toy sizes: both twins per
// size, blocked rows carrying the blocking-quality columns, and the
// report surviving a write/read round trip.
func TestScaleBenchSmall(t *testing.T) {
	rows, err := ScaleBench(context.Background(), ScaleBenchOptions{
		Seed:  5,
		Sizes: []int{40, 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (unblocked+blocked at two sizes): %+v", len(rows), rows)
	}
	for i, r := range rows {
		wantN := []int{40, 40, 60, 60}[i]
		mode := []string{"unblocked", "blocked"}[i%2]
		m := r.Metrics
		if want := fmt.Sprintf("%d/%s", wantN, mode); r.Key != want || m["entities"] != float64(wantN) {
			t.Fatalf("row %d = %s, want key %s", i, r, want)
		}
		if m["entities_per_sec"] <= 0 || m["wall_seconds"] <= 0 {
			t.Errorf("row %d: no throughput recorded: %s", i, r)
		}
		if mode == "unblocked" {
			if want := float64(wantN) * float64(wantN); m["pairs_scored"] != want {
				t.Errorf("unblocked row %d scored %v pairs, want the full product %v", i, m["pairs_scored"], want)
			}
			continue
		}
		if m["pairs_scored"] <= 0 || m["pairs_scored"] >= float64(wantN)*float64(wantN) {
			t.Errorf("blocked row %d scored %v pairs, want a strict subset of the pair space", i, m["pairs_scored"])
		}
		if m["reduction_ratio"] <= 0 || m["reduction_ratio"] >= 1 {
			t.Errorf("blocked row %d reduction ratio %v outside (0,1)", i, m["reduction_ratio"])
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	rep := runstore.Report{Suite: "scale", Workload: map[string]string{"seed": "5", "dataset": "Restaurant"}, Rows: rows}
	if err := runstore.WriteBench(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := runstore.ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if p := runstore.CompareBench(back, rep); len(p) != 0 {
		t.Errorf("round-tripped report does not hold itself: %v", p)
	}

	// The UnblockedCap skips the quadratic twin above the cap.
	capped, err := ScaleBench(context.Background(), ScaleBenchOptions{
		Seed: 5, Sizes: []int{40, 60}, UnblockedCap: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Fatalf("capped bench: got %d rows, want 3", len(capped))
	}
	if capped[2].Key != "60/blocked" {
		t.Errorf("capped bench row 2 = %+v, want blocked-only at 60", capped[2])
	}
}

// scaleBenchReport is a scale-suite report in the shape ScaleBench rows
// take: the unblocked and blocked twin at one size.
func scaleBenchReport(eps float64) runstore.Report {
	return runstore.Report{
		Suite:    "scale",
		Workload: map[string]string{"seed": "1", "dataset": "Restaurant"},
		Rows: []runstore.Row{
			{Key: "100/unblocked", Metrics: map[string]float64{"entities": 100, "entities_per_sec": eps, "pairs_scored": 10000, "peak_rss_bytes": 1 << 25}},
			{Key: "100/blocked", Metrics: map[string]float64{"entities": 100, "entities_per_sec": eps, "pairs_scored": 800, "peak_rss_bytes": 1 << 25}},
		},
	}
}

// TestCompareScaleBench holds the scale suite's gate: throughput and peak
// RSS per (size, blocking mode) row, rows matched by that key, and the
// dataset part of the workload.
func TestCompareScaleBench(t *testing.T) {
	base := scaleBenchReport(100)

	if p := runstore.CompareBench(base, scaleBenchReport(100)); len(p) != 0 {
		t.Errorf("identical runs flagged: %v", p)
	}
	if p := runstore.CompareBench(base, scaleBenchReport(500)); len(p) != 0 {
		t.Errorf("speedup flagged: %v", p)
	}
	if p := runstore.CompareBench(base, scaleBenchReport(60)); len(p) != 0 {
		t.Errorf("40%% drop within the 50%% slack flagged: %v", p)
	}
	if p := runstore.CompareBench(base, scaleBenchReport(40)); len(p) != 2 {
		t.Errorf("60%% drop: got %v, want 2 problems", p)
	}

	// Dropping the blocked twin is a regression even though the unblocked
	// row of the same size is still present.
	missing := scaleBenchReport(100)
	missing.Rows = missing.Rows[:1]
	p := runstore.CompareBench(base, missing)
	if len(p) != 1 || !strings.Contains(p[0], "100/blocked") {
		t.Errorf("missing blocked row: %v", p)
	}

	// The memory axis: RSS blowup past the threshold fails the gate.
	fat := scaleBenchReport(100)
	fat.Rows[1].Metrics["peak_rss_bytes"] = 1 << 28
	p = runstore.CompareBench(base, fat)
	if len(p) != 1 || !strings.Contains(p[0], "peak_rss_bytes") {
		t.Errorf("RSS blowup: %v", p)
	}
	// ...but only where the baseline measured it.
	noRSS := scaleBenchReport(100)
	for _, r := range noRSS.Rows {
		delete(r.Metrics, "peak_rss_bytes")
	}
	if p := runstore.CompareBench(noRSS, fat); len(p) != 0 {
		t.Errorf("RSS held against a baseline that never measured it: %v", p)
	}

	other := scaleBenchReport(100)
	other.Workload = map[string]string{"seed": "1", "dataset": "DBLP-ACM"}
	p = runstore.CompareBench(base, other)
	if len(p) != 1 || !strings.Contains(p[0], "workload mismatch") {
		t.Errorf("dataset mismatch: %v", p)
	}
}
