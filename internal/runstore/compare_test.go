package runstore

import (
	"strings"
	"testing"

	"serd/internal/telemetry"
)

func baseEntry() Entry {
	return Entry{
		RunID:       "aaaa11112222",
		Tool:        "serd",
		Dataset:     "Restaurant",
		Status:      "done",
		WallSeconds: 10,
		Stages: []StageTime{
			{Name: "core.s1", Count: 1, Seconds: 4},
			{Name: "core.s2", Count: 1, Seconds: 6},
		},
		Runtime: &telemetry.RuntimeStats{PeakRSSBytes: 100 << 20},
		Privacy: &Privacy{Epsilon: 1.0, Charges: 2, Groups: []GroupSpend{
			{Group: "name", Charges: 1, Epsilon: 0.6},
			{Group: "addr", Charges: 1, Epsilon: 0.4},
		}},
		Summary: map[string]float64{"jsd": 0.05, "entities": 200},
		Config:  map[string]string{"seed": "1"},
	}
}

// gate holds run b to run a the way `serd runs compare` does.
func gate(a, b Entry) map[string]string {
	return Gate(a.Row(), b.Row(), RunRules)
}

func TestCompareIdenticalHolds(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	if p := gate(a, b); len(p) != 0 {
		t.Fatalf("identical runs regressed: %v", p)
	}
	row := a.Row()
	for _, name := range []string{"wall_seconds", "stage:core.s1", "stage:core.s2", "peak_rss_bytes", "epsilon", "epsilon:name", "epsilon:addr", "jsd", "entities"} {
		if _, ok := row.Metrics[name]; !ok {
			t.Errorf("run row lacks %s: %v", name, row.Metrics)
		}
	}
	if len(row.Metrics) != 9 {
		t.Fatalf("run row holds %d metrics, want 9: %v", len(row.Metrics), row.Metrics)
	}
}

func TestCompareImprovementHolds(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.WallSeconds = 5
	b.Stages[1].Seconds = 2
	b.Summary["jsd"] = 0.02
	b.Runtime = &telemetry.RuntimeStats{PeakRSSBytes: 50 << 20}
	if p := gate(a, b); len(p) != 0 {
		t.Fatalf("improvement flagged as regression: %v", p)
	}
}

func TestCompareWallRegression(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.WallSeconds = 20
	p := gate(a, b)
	if len(p) != 1 || !strings.Contains(p["wall_seconds"], "wall_seconds 20 is above") {
		t.Fatalf("2x wall-clock not flagged alone: %v", p)
	}
}

func TestCompareMinSecondsFloor(t *testing.T) {
	// Millisecond-scale growth far past the fraction must not gate: the
	// absolute floor filters scheduler jitter.
	a, b := baseEntry(), baseEntry()
	a.WallSeconds, b.WallSeconds = 0.010, 0.040
	a.Stages, b.Stages = nil, nil
	a.Runtime, b.Runtime = nil, nil
	if p := gate(a, b); len(p) != 0 {
		t.Fatalf("sub-0.05s jitter flagged: %v", p)
	}
}

func TestCompareStageRegression(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.Stages = []StageTime{
		{Name: "core.s1", Count: 1, Seconds: 4},
		{Name: "core.s2", Count: 1, Seconds: 12}, // 2x
	}
	p := gate(a, b)
	if len(p) != 1 || p["stage:core.s2"] == "" {
		t.Fatalf("core.s2 slowdown not flagged alone: %v", p)
	}
	// A brand-new expensive stage (A side 0) regresses too.
	b.Stages = []StageTime{a.Stages[0], a.Stages[1], {Name: "core.s4", Count: 1, Seconds: 1}}
	if p := gate(a, b); len(p) != 1 || p["stage:core.s4"] == "" {
		t.Fatalf("new expensive stage not flagged alone: %v", p)
	}
}

func TestCompareEpsilonRegression(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.Privacy = &Privacy{Epsilon: 1.2, Charges: 2, Groups: []GroupSpend{
		{Group: "name", Charges: 1, Epsilon: 0.8},
		{Group: "addr", Charges: 1, Epsilon: 0.4},
	}}
	p := gate(a, b)
	if p["epsilon"] == "" {
		t.Fatalf("ε growth 1.0 -> 1.2 not flagged: %v", p)
	}
	if p["epsilon:name"] == "" || p["epsilon:addr"] != "" {
		t.Fatalf("per-group ε growth not flagged on name alone: %v", p)
	}
	// ε within 1% holds.
	b.Privacy.Epsilon = 1.005
	b.Privacy.Groups = a.Privacy.Groups
	if p := gate(a, b); len(p) != 0 {
		t.Fatalf("ε within threshold flagged: %v", p)
	}
	// A run that spends ε where the baseline kept no ledger regresses.
	a.Privacy = nil
	b.Privacy = &Privacy{Epsilon: 0.5}
	if p := gate(a, b); p["epsilon"] == "" {
		t.Fatalf("ε spent over a ledger-less baseline not flagged: %v", p)
	}
}

func TestCompareRSSAndJSD(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.Runtime = &telemetry.RuntimeStats{PeakRSSBytes: 250 << 20} // 2.5x
	b.Summary = map[string]float64{"jsd": 0.10, "entities": 100}
	p := gate(a, b)
	if p["peak_rss_bytes"] == "" {
		t.Fatalf("2.5x RSS not flagged: %v", p)
	}
	if p["jsd"] == "" {
		t.Fatalf("jsd doubling not flagged: %v", p)
	}
	if p["entities"] != "" {
		t.Fatal("entities count must never gate (no known direction)")
	}
	// Missing baseline RSS asserts nothing.
	a.Runtime = nil
	if p := gate(a, b); p["peak_rss_bytes"] != "" {
		t.Fatal("RSS without baseline flagged")
	}
}

// TestCompareAbsentMetricRegresses: a gated metric the baseline run
// measured but the current run lacks is a regression that names it.
func TestCompareAbsentMetricRegresses(t *testing.T) {
	a, b := baseEntry(), baseEntry()
	b.Runtime = nil
	p := gate(a, b)
	if len(p) != 1 || !strings.Contains(p["peak_rss_bytes"], "peak_rss_bytes measured 1.04858e+08 in the baseline but is absent now") {
		t.Fatalf("RSS lost by the current run not flagged alone: %v", p)
	}
	delete(b.Summary, "jsd")
	delete(b.Summary, "entities")
	if p := gate(a, b); len(p) != 2 || p["jsd"] == "" {
		t.Fatalf("jsd lost by the current run not flagged: %v", p)
	}
}

func TestComputeBurnDown(t *testing.T) {
	mk := func(id, ds string, eps float64, status string) Entry {
		e := Entry{RunID: id, Dataset: ds, Status: status}
		if eps > 0 {
			e.Privacy = &Privacy{Epsilon: eps, Charges: 1}
		}
		return e
	}
	entries := []Entry{
		mk("r1", "Restaurant", 0.5, "done"),
		mk("r2", "DBLP-ACM", 1.0, "done"),
		mk("r3", "Restaurant", 0.25, "aborted"), // spent ε counts even aborted
		mk("r4", "Restaurant", 0, "done"),       // no spend: skipped
		mk("r5", "", 0.1, "done"),               // unknown dataset bucket
	}
	bd := ComputeBurnDown(entries)
	if len(bd) != 3 {
		t.Fatalf("burn-down groups = %d, want 3", len(bd))
	}
	byDS := map[string]BurnDown{}
	for _, b := range bd {
		byDS[b.Dataset] = b
	}
	rest := byDS["Restaurant"]
	if rest.Total != 0.75 || len(rest.Points) != 2 {
		t.Fatalf("Restaurant burn-down = %+v", rest)
	}
	if rest.Points[1].Cumulative != 0.75 {
		t.Fatalf("cumulative = %v, want 0.75", rest.Points[1].Cumulative)
	}
	if _, ok := byDS["(unknown)"]; !ok {
		t.Fatal("missing (unknown) bucket for dataset-less run")
	}
}
