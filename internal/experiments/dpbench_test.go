package experiments

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serd/internal/runstore"
)

func TestDPBenchMatrixAndRoundTrip(t *testing.T) {
	opts := DPBenchOptions{
		Datasets: []string{"Restaurant"},
		Epsilons: []float64{0.5, 2},
		Seed:     7,
		Size:     30,
	}
	rows, err := DPBench(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 ε × 2 backends.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	seen := map[string]int{}
	for _, r := range rows {
		m := r.Metrics
		backend := strings.Split(r.Key, "/")[1]
		seen[backend]++
		if m["f1"] < 0 || m["f1"] > 1 {
			t.Errorf("%s: F1=%v outside [0,1]", r.Key, m["f1"])
		}
		if m["jsd"] < 0 || m["jsd"] > 1 {
			t.Errorf("%s: JSD=%v outside [0,1]", r.Key, m["jsd"])
		}
		switch backend {
		case "gmm":
			if m["epsilon_spent"] != 0 {
				t.Errorf("%s spent ε=%v, want 0 (non-private reference)", r.Key, m["epsilon_spent"])
			}
		case "privbayes":
			if m["epsilon_spent"] <= 0 || m["epsilon_spent"] > m["epsilon"]+1e-9 {
				t.Errorf("%s spent ε=%v, want in (0, %g]", r.Key, m["epsilon_spent"], m["epsilon"])
			}
		default:
			t.Errorf("unexpected backend in %q", r.Key)
		}
	}
	if seen["gmm"] != 2 || seen["privbayes"] != 2 {
		t.Errorf("backend row counts = %v, want 2 each", seen)
	}

	rep := runstore.Report{Suite: "dp", Time: time.Now(), Workload: map[string]string{"seed": "7", "size": "30"}, Rows: rows}
	path := filepath.Join(t.TempDir(), "BENCH_dpbench.json")
	if err := runstore.WriteBench(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := runstore.ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(rep.Rows) || back.Workload["seed"] != "7" {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
	if problems := runstore.CompareBench(back, rep); len(problems) != 0 {
		t.Errorf("self-compare found problems: %v", problems)
	}
}

// dpBenchReport is a dp-suite report in the shape DPBench rows take: one
// privbayes cell at ε=2.
func dpBenchReport(seed string, spent, f1, jsd, wall, rss float64) runstore.Report {
	return runstore.Report{
		Suite:    "dp",
		Workload: map[string]string{"seed": seed, "size": "30"},
		Rows: []runstore.Row{{Key: "Restaurant/privbayes/eps=2", Metrics: map[string]float64{
			"epsilon": 2, "epsilon_spent": spent, "f1": f1, "jsd": jsd, "wall_seconds": wall, "peak_rss_bytes": rss}}},
	}
}

func TestCompareDPBenchFlagsRegressions(t *testing.T) {
	base := dpBenchReport("7", 1.99, 0.8, 0.1, 2, 100<<20)

	if p := runstore.CompareBench(base, dpBenchReport("7", 1.99, 0.4, 0.1, 2, 100<<20)); len(p) != 1 {
		t.Errorf("F1 collapse: got %d problems (%v), want 1", len(p), p)
	}
	if p := runstore.CompareBench(base, dpBenchReport("7", 2.5, 0.8, 0.1, 2, 100<<20)); len(p) != 1 {
		t.Errorf("budget overshoot: got %d problems (%v), want 1", len(p), p)
	}
	if p := runstore.CompareBench(base, dpBenchReport("7", 1.99, 0.8, 0.5, 2, 100<<20)); len(p) != 1 {
		t.Errorf("JSD blowup: got %d problems (%v), want 1", len(p), p)
	}

	empty := dpBenchReport("7", 1.99, 0.8, 0.1, 2, 100<<20)
	empty.Rows = nil
	if p := runstore.CompareBench(base, empty); len(p) != 1 {
		t.Errorf("missing cell: got %d problems (%v), want 1", len(p), p)
	}

	if p := runstore.CompareBench(base, dpBenchReport("8", 1.99, 0.8, 0.1, 2, 100<<20)); len(p) != 1 {
		t.Errorf("workload mismatch: got %d problems (%v), want 1", len(p), p)
	}

	// Better cells are not regressions.
	if p := runstore.CompareBench(base, dpBenchReport("7", 1.9, 0.9, 0.05, 1, 90<<20)); len(p) != 0 {
		t.Errorf("improvement flagged as regression: %v", p)
	}
}
