package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serd/internal/runstore"
)

// TestCoreBenchReportRoundTrip runs the core bench at a toy cap: one row
// per dataset carrying the tracked metrics, and the report surviving a
// write/read round trip that holds itself.
func TestCoreBenchReportRoundTrip(t *testing.T) {
	rows, err := CoreBench(Config{Seed: 3, Datasets: []string{"Restaurant"}, SizeCap: 24, MatchCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != "Restaurant" {
		t.Fatalf("rows = %+v, want one Restaurant row", rows)
	}
	m := rows[0].Metrics
	for _, name := range []string{"entities", "wall_seconds", "entities_per_sec", "jsd", "attempts",
		"rejected_discriminator", "rejected_distribution", "em_iterations", "gc_pause_seconds"} {
		if _, ok := m[name]; !ok {
			t.Errorf("row lacks %s: %v", name, m)
		}
	}
	if m["entities"] != 48 || m["entities_per_sec"] <= 0 || m["attempts"] < 24 {
		t.Errorf("implausible row: %v", m)
	}

	path := filepath.Join(t.TempDir(), "bench", "BENCH_core.json")
	rep := runstore.Report{Suite: "core", Workload: map[string]string{"seed": "3"}, Rows: rows}
	if err := runstore.WriteBench(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := runstore.ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows[0].Metrics["entities_per_sec"] != m["entities_per_sec"] {
		t.Errorf("round trip changed the row: %v vs %v", back.Rows[0], rows[0])
	}
	if p := runstore.CompareBench(back, rep); len(p) != 0 {
		t.Errorf("round-tripped report does not hold itself: %v", p)
	}
}

// coreBenchReport is a core-suite report in the shape CoreBench rows and
// the experiments CLI workload take: two datasets, the second twice as
// fast, with extra merged into every row's metrics.
func coreBenchReport(eps float64, extra map[string]float64) runstore.Report {
	row := func(key string, eps float64) runstore.Row {
		m := map[string]float64{"entities": 80, "entities_per_sec": eps, "jsd": 0.05}
		for k, v := range extra {
			m[k] = v
		}
		return runstore.Row{Key: key, Metrics: m}
	}
	return runstore.Report{
		Suite:    "core",
		Workload: map[string]string{"seed": "1", "sizecap": "40", "matchcap": "12"},
		Rows:     []runstore.Row{row("Restaurant", eps), row("DBLP-ACM", 2*eps)},
	}
}

// TestCompareCoreBench holds the core suite's throughput gate: drops within
// the threshold and speedups pass, a drop past it is named per dataset, and
// a missing dataset or a differing workload is reported.
func TestCompareCoreBench(t *testing.T) {
	base := coreBenchReport(100, nil)

	if p := runstore.CompareBench(base, coreBenchReport(100, nil)); len(p) != 0 {
		t.Errorf("identical runs flagged: %v", p)
	}
	if p := runstore.CompareBench(base, coreBenchReport(80, nil)); len(p) != 0 {
		t.Errorf("20%% drop within the 30%% threshold flagged: %v", p)
	}
	if p := runstore.CompareBench(base, coreBenchReport(500, nil)); len(p) != 0 {
		t.Errorf("speedup flagged: %v", p)
	}

	p := runstore.CompareBench(base, coreBenchReport(60, nil)) // 40% drop on every dataset
	if len(p) != 2 {
		t.Fatalf("40%% drop: got %d problems, want 2: %v", len(p), p)
	}
	if !strings.Contains(p[0], "Restaurant") && !strings.Contains(p[1], "Restaurant") {
		t.Errorf("problems don't name the dataset: %v", p)
	}

	missing := coreBenchReport(100, nil)
	missing.Rows = missing.Rows[:1]
	if p := runstore.CompareBench(base, missing); len(p) != 1 || !strings.Contains(p[0], "DBLP-ACM") {
		t.Errorf("missing dataset: %v", p)
	}

	otherWorkload := coreBenchReport(100, nil)
	otherWorkload.Workload = map[string]string{"seed": "1", "sizecap": "999", "matchcap": "12"}
	p = runstore.CompareBench(base, otherWorkload)
	if len(p) != 1 || !strings.Contains(p[0], "workload mismatch") {
		t.Errorf("cap mismatch: %v", p)
	}
}

// TestCompareCoreBenchOldSchema pins the cross-version contract: a baseline
// without the memory axis holds a run that has it to throughput alone, and
// the reverse — a run that lost the memory axis its baseline measured —
// regresses on each lost metric. A document written before the shared
// schema is refused by ReadBench, while its flat rows still decode with the
// memory axis absent rather than invented.
func TestCompareCoreBenchOldSchema(t *testing.T) {
	oldBase := coreBenchReport(100, nil)
	current := coreBenchReport(100, map[string]float64{"peak_rss_bytes": 1 << 28, "gc_pause_seconds": 0.012})
	if p := runstore.CompareBench(oldBase, current); len(p) != 0 {
		t.Errorf("baseline without memory axis vs run with it flagged: %v", p)
	}
	if p := runstore.CompareBench(current, oldBase); len(p) != 4 || !strings.Contains(strings.Join(p, "\n"), "row Restaurant: peak_rss_bytes measured") {
		t.Errorf("baseline with memory axis vs run without it: %v, want the lost peak_rss_bytes and gc_pause_seconds of both rows", p)
	}

	data := []byte(`{"seed":1,"size_cap":40,"match_cap":12,"rows":[{"dataset":"Restaurant","entities":80,"entities_per_sec":100}]}`)
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.ReadBench(path); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Errorf("old document: err = %v, want a refusal asking to regenerate", err)
	}

	var old struct {
		Rows []runstore.Row `json:"rows"`
	}
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Rows) != 1 || old.Rows[0].Key != "Restaurant" || old.Rows[0].Metrics["entities_per_sec"] != 100 {
		t.Fatalf("old rows decoded as %+v", old.Rows)
	}
	for _, name := range []string{"peak_rss_bytes", "gc_pause_seconds"} {
		if _, ok := old.Rows[0].Metrics[name]; ok {
			t.Errorf("old row invented %s: %v", name, old.Rows[0].Metrics)
		}
	}
	decoded := runstore.Report{Suite: "core", Workload: current.Workload, Rows: old.Rows}
	if p := runstore.CompareBench(decoded, current); len(p) != 0 {
		t.Errorf("decoded old baseline flagged: %v", p)
	}
}

// TestCompareCoreBenchMemoryAxis exercises the memory columns: runs blowing
// past the baseline's peak RSS or GC pause beyond the threshold are
// reported, within-threshold growth and improvements are not.
func TestCompareCoreBenchMemoryAxis(t *testing.T) {
	mem := func(eps, rss, gc float64) runstore.Report {
		return coreBenchReport(eps, map[string]float64{"peak_rss_bytes": rss, "gc_pause_seconds": gc})
	}
	base := mem(100, 100<<20, 0.010)

	if p := runstore.CompareBench(base, mem(100, 100<<20, 0.010)); len(p) != 0 {
		t.Errorf("identical memory profile flagged: %v", p)
	}
	if p := runstore.CompareBench(base, mem(100, 120<<20, 0.012)); len(p) != 0 {
		t.Errorf("20%% growth within the 30%% threshold flagged: %v", p)
	}
	if p := runstore.CompareBench(base, mem(100, 50<<20, 0.002)); len(p) != 0 {
		t.Errorf("memory improvement flagged: %v", p)
	}

	p := runstore.CompareBench(base, mem(100, 200<<20, 0.010)) // 2x RSS on both datasets
	if len(p) != 2 {
		t.Fatalf("RSS blowup: got %d problems, want 2: %v", len(p), p)
	}
	if !strings.Contains(p[0], "peak_rss_bytes") || !strings.Contains(p[0], "Restaurant") {
		t.Errorf("RSS problem text: %q", p[0])
	}

	p = runstore.CompareBench(base, mem(100, 100<<20, 0.025)) // 2.5x GC pause
	if len(p) != 2 || !strings.Contains(p[0], "gc_pause_seconds") {
		t.Errorf("GC pause blowup: %v", p)
	}

	// Both axes regressing on both datasets stack with the throughput gate.
	if p := runstore.CompareBench(base, mem(10, 200<<20, 0.025)); len(p) != 6 {
		t.Errorf("full regression: got %d problems, want 6: %v", len(p), p)
	}
}
