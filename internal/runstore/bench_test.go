package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchReport builds a report of one suite and workload from its rows.
func benchReport(suite string, workload map[string]string, rows ...Row) Report {
	return Report{Suite: suite, Workload: workload, Rows: rows}
}

func coreReport(eps float64, extra map[string]float64) Report {
	row := func(key string, eps float64) Row {
		m := map[string]float64{"entities": 80, "entities_per_sec": eps, "jsd": 0.05}
		for k, v := range extra {
			m[k] = v
		}
		return Row{Key: key, Metrics: m}
	}
	return benchReport("core", map[string]string{"seed": "1", "sizecap": "40", "matchcap": "12"},
		row("Restaurant", eps), row("DBLP-ACM", 2*eps))
}

func scaleReport(eps, rss float64) Report {
	return benchReport("scale", map[string]string{"seed": "1", "dataset": "Restaurant"},
		Row{Key: "100/unblocked", Metrics: map[string]float64{"entities_per_sec": eps, "pairs_scored": 10000, "peak_rss_bytes": rss}},
		Row{Key: "100/blocked", Metrics: map[string]float64{"entities_per_sec": eps, "pairs_scored": 800, "peak_rss_bytes": rss}})
}

func dpReport(spent, f1, jsd, wall, rss float64) Report {
	return benchReport("dp", map[string]string{"seed": "7", "size": "30"},
		Row{Key: "Restaurant/privbayes/eps=2", Metrics: map[string]float64{
			"epsilon": 2, "epsilon_spent": spent, "f1": f1, "jsd": jsd, "wall_seconds": wall, "peak_rss_bytes": rss}})
}

// TestCompareBench is the gate table: every suite's verdicts under the one
// comparator and BenchRules.
func TestCompareBench(t *testing.T) {
	mem := func(rss, gc float64) map[string]float64 {
		return map[string]float64{"peak_rss_bytes": rss, "gc_pause_seconds": gc}
	}
	coreMissing := coreReport(100, nil)
	coreMissing.Rows = coreMissing.Rows[:1]
	coreOtherCaps := coreReport(100, nil)
	coreOtherCaps.Workload = map[string]string{"seed": "1", "sizecap": "999", "matchcap": "12"}
	coreFullRegression := coreReport(10, mem(200<<20, 0.025))
	coreNoisyUngated := coreReport(100, map[string]float64{"attempts": 1000})
	coreNoThroughput := coreReport(100, nil)
	delete(coreNoThroughput.Rows[1].Metrics, "entities_per_sec")
	coreAsScale := coreReport(100, nil)
	coreAsScale.Suite = "scale"
	scaleMissing := scaleReport(100, 1<<25)
	scaleMissing.Rows = scaleMissing.Rows[:1]
	scaleFat := scaleReport(100, 1<<25)
	scaleFat.Rows[1].Metrics["peak_rss_bytes"] = 1 << 28
	scaleNoRSS := scaleReport(100, 1<<25)
	for _, r := range scaleNoRSS.Rows {
		delete(r.Metrics, "peak_rss_bytes")
	}
	scaleOtherDataset := scaleReport(100, 1<<25)
	scaleOtherDataset.Workload = map[string]string{"seed": "1", "dataset": "DBLP-ACM"}
	dpBase := dpReport(1.99, 0.8, 0.1, 2, 100<<20)
	dpMissing := dpReport(1.99, 0.8, 0.1, 2, 100<<20)
	dpMissing.Rows = nil
	dpOtherSeed := dpReport(1.99, 0.8, 0.1, 2, 100<<20)
	dpOtherSeed.Workload = map[string]string{"seed": "8", "size": "30"}
	gmmRow := func(spent float64) Report {
		return benchReport("dp", map[string]string{"seed": "7", "size": "30"},
			Row{Key: "Restaurant/gmm/eps=2", Metrics: map[string]float64{"epsilon": 2, "epsilon_spent": spent}})
	}

	cases := []struct {
		name      string
		base, cur Report
		// want lists one substring per expected problem (each must
		// appear in some problem; the problem count must match).
		want []string
	}{
		{name: "core identical", base: coreReport(100, nil), cur: coreReport(100, nil)},
		{name: "core 20% drop within threshold", base: coreReport(100, nil), cur: coreReport(80, nil)},
		{name: "core 30% drop", base: coreReport(100, nil), cur: coreReport(70, nil),
			want: []string{"row Restaurant: entities_per_sec 70 is below the 100 baseline (floor 75 at the 25% threshold)", "row DBLP-ACM: entities_per_sec"}},
		{name: "core speedup", base: coreReport(100, nil), cur: coreReport(500, nil)},
		{name: "core 40% drop", base: coreReport(100, nil), cur: coreReport(60, nil),
			want: []string{"row Restaurant: entities_per_sec", "row DBLP-ACM: entities_per_sec"}},
		{name: "core missing dataset", base: coreReport(100, nil), cur: coreMissing,
			want: []string{"DBLP-ACM present in the baseline"}},
		{name: "core cap mismatch", base: coreReport(100, nil), cur: coreOtherCaps,
			want: []string{"workload mismatch"}},
		{name: "metric absent from the baseline gates nothing", base: coreReport(100, nil), cur: coreReport(100, mem(1<<28, 0.012))},
		{name: "gated metric absent from the current run regresses", base: coreReport(100, mem(1<<28, 0.012)), cur: coreReport(100, nil),
			want: []string{"row Restaurant: gc_pause_seconds measured 0.012 in the baseline but is absent now",
				"row Restaurant: peak_rss_bytes measured 2.68435e+08 in the baseline but is absent now",
				"row DBLP-ACM: gc_pause_seconds", "row DBLP-ACM: peak_rss_bytes"}},
		{name: "throughput absent from the current run regresses", base: coreReport(100, nil), cur: coreNoThroughput,
			want: []string{"row DBLP-ACM: entities_per_sec measured 200 in the baseline but is absent now"}},
		{name: "ungated metric absent from the current run gates nothing", base: coreReport(100, map[string]float64{"attempts": 80}), cur: coreReport(100, nil)},
		{name: "core memory identical", base: coreReport(100, mem(100<<20, 0.010)), cur: coreReport(100, mem(100<<20, 0.010))},
		{name: "core memory 20% growth", base: coreReport(100, mem(100<<20, 0.010)), cur: coreReport(100, mem(120<<20, 0.012))},
		{name: "core memory improvement", base: coreReport(100, mem(100<<20, 0.010)), cur: coreReport(100, mem(50<<20, 0.002))},
		{name: "core RSS blowup", base: coreReport(100, mem(100<<20, 0.010)), cur: coreReport(100, mem(200<<20, 0.010)),
			want: []string{"row Restaurant: peak_rss_bytes", "row DBLP-ACM: peak_rss_bytes"}},
		{name: "core GC pause blowup", base: coreReport(100, mem(100<<20, 0.010)), cur: coreReport(100, mem(100<<20, 0.025)),
			want: []string{"row Restaurant: gc_pause_seconds", "row DBLP-ACM: gc_pause_seconds"}},
		{name: "core full regression", base: coreReport(100, mem(100<<20, 0.010)), cur: coreFullRegression,
			want: []string{"entities_per_sec", "entities_per_sec", "peak_rss_bytes", "peak_rss_bytes", "gc_pause_seconds", "gc_pause_seconds"}},
		{name: "metric outside the table never gates", base: coreReport(100, map[string]float64{"attempts": 80}), cur: coreNoisyUngated},
		{name: "suite mismatch", base: coreReport(100, nil), cur: coreAsScale,
			want: []string{"workload mismatch"}},

		{name: "scale identical", base: scaleReport(100, 1<<25), cur: scaleReport(100, 1<<25)},
		{name: "scale speedup", base: scaleReport(100, 1<<25), cur: scaleReport(500, 1<<25)},
		{name: "scale 40% drop within threshold", base: scaleReport(100, 1<<25), cur: scaleReport(60, 1<<25)},
		{name: "scale 60% drop", base: scaleReport(100, 1<<25), cur: scaleReport(40, 1<<25),
			want: []string{"row 100/unblocked: entities_per_sec", "row 100/blocked: entities_per_sec"}},
		{name: "scale missing blocked twin", base: scaleReport(100, 1<<25), cur: scaleMissing,
			want: []string{"row 100/blocked present in the baseline"}},
		{name: "scale RSS blowup", base: scaleReport(100, 1<<25), cur: scaleFat,
			want: []string{"row 100/blocked: peak_rss_bytes"}},
		{name: "scale RSS absent from the baseline", base: scaleNoRSS, cur: scaleFat},
		{name: "scale dataset mismatch", base: scaleReport(100, 1<<25), cur: scaleOtherDataset,
			want: []string{"workload mismatch"}},

		{name: "dp F1 collapse", base: dpBase, cur: dpReport(1.99, 0.4, 0.1, 2, 100<<20),
			want: []string{"f1 0.4 is below"}},
		{name: "dp budget overshoot", base: dpBase, cur: dpReport(2.5, 0.8, 0.1, 2, 100<<20),
			want: []string{"epsilon_spent 2.5 is above"}},
		{name: "dp JSD blowup", base: dpBase, cur: dpReport(1.99, 0.8, 0.5, 2, 100<<20),
			want: []string{"jsd 0.5 is above"}},
		{name: "dp missing cell", base: dpBase, cur: dpMissing,
			want: []string{"Restaurant/privbayes/eps=2 present in the baseline"}},
		{name: "dp workload mismatch", base: dpBase, cur: dpOtherSeed,
			want: []string{"workload mismatch"}},
		{name: "dp improvement", base: dpBase, cur: dpReport(1.9, 0.9, 0.05, 1, 90<<20)},
		{name: "dp 20% wall growth within threshold", base: dpBase, cur: dpReport(1.99, 0.8, 0.1, 2.4, 100<<20)},
		{name: "dp wall and RSS blowup", base: dpBase, cur: dpReport(1.99, 0.8, 0.1, 3, 200<<20),
			want: []string{"wall_seconds 3 is above", "peak_rss_bytes"}},
		{name: "dp fast cell wall never gates", base: dpReport(1.99, 0.8, 0.1, 0.4, 100<<20), cur: dpReport(1.99, 0.8, 0.1, 4, 100<<20)},
		{name: "dp JSD slack on a zero baseline", base: dpReport(1.99, 0.8, 0, 2, 100<<20), cur: dpReport(1.99, 0.8, 0.019, 2, 100<<20)},
		{name: "dp spent ε gets no relative slack", base: dpReport(2, 0.8, 0.1, 2, 100<<20), cur: dpReport(2.1, 0.8, 0.1, 2, 100<<20),
			want: []string{"epsilon_spent 2.1 is above"}},
		{name: "dp gmm must keep spending nothing", base: gmmRow(0), cur: gmmRow(0.5),
			want: []string{"row Restaurant/gmm/eps=2: epsilon_spent"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := CompareBench(tc.base, tc.cur)
			if len(p) != len(tc.want) {
				t.Fatalf("got %d problems, want %d: %v", len(p), len(tc.want), p)
			}
			for _, w := range tc.want {
				found := false
				for _, line := range p {
					found = found || strings.Contains(line, w)
				}
				if !found {
					t.Errorf("no problem mentions %q: %v", w, p)
				}
			}
		})
	}
}

// TestBenchRulesSlack pins each suite's relative slack: every gated metric
// of core at 25%, scale at 50% and dp at 30%, except the spent ε, which may
// not grow at all.
func TestBenchRulesSlack(t *testing.T) {
	want := map[string]float64{"core": 0.25, "scale": 0.5, "dp": 0.3}
	for suite, rules := range BenchRules {
		for name, r := range rules {
			rel := want[suite]
			if name == "epsilon_spent" {
				rel = 0
			}
			if r.Rel != rel {
				t.Errorf("%s %s: Rel %g, want %g", suite, name, r.Rel, rel)
			}
		}
	}
}

func TestReadBenchRefusesOldSchema(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"seed":1,"size_cap":40,"match_cap":12,"rows":[{"dataset":"Restaurant","entities_per_sec":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(old); err == nil || !strings.Contains(err.Error(), `"suite"`) {
		t.Errorf("pre-schema file: error %v, want one naming the missing suite field", err)
	}
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"suite":"nope","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(unknown); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown suite: error %v", err)
	}
	if _, err := ReadBench(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing baseline accepted")
	}
}

// TestWriteBenchFailureLeavesNoTemp pins the durability contract: a write
// that cannot land (the target is a directory) fails and cleans up.
func TestWriteBenchFailureLeavesNoTemp(t *testing.T) {
	parent := t.TempDir()
	target := filepath.Join(parent, "BENCH_core.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(target, coreReport(100, nil)); err == nil {
		t.Fatal("writing over a directory succeeded")
	}
	des, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "BENCH_core.json" {
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Errorf("parent holds %v, want only the target directory", names)
	}
}

// TestPinnedBaselinesLoad reads the three baselines the CI bench job gates
// on: each parses under the shared schema, carries the workload the CI
// flags reproduce, and holds itself.
func TestPinnedBaselinesLoad(t *testing.T) {
	cases := []struct {
		file, suite string
		rows        int
		workload    map[string]string
	}{
		{"BENCH_core.json", "core", 4, map[string]string{"seed": "1", "sizecap": "40", "matchcap": "12"}},
		{"BENCH_scale.json", "scale", 3, map[string]string{"seed": "1", "dataset": "Restaurant"}},
		{"BENCH_dpbench.json", "dp", 8, map[string]string{"seed": "1", "size": "60"}},
	}
	for _, tc := range cases {
		rep, err := ReadBench(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if rep.Suite != tc.suite || len(rep.Rows) != tc.rows {
			t.Errorf("%s: suite %q with %d rows, want %q with %d", tc.file, rep.Suite, len(rep.Rows), tc.suite, tc.rows)
		}
		if len(rep.Workload) != len(tc.workload) {
			t.Errorf("%s: workload %v, want %v", tc.file, rep.Workload, tc.workload)
		}
		for k, v := range tc.workload {
			if rep.Workload[k] != v {
				t.Errorf("%s: workload[%s] = %q, want %q", tc.file, k, rep.Workload[k], v)
			}
		}
		if p := CompareBench(rep, rep); len(p) != 0 {
			t.Errorf("%s does not hold itself: %v", tc.file, p)
		}
	}
}
