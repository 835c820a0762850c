package runstore

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Report is one bench-suite run, the document format of BENCH_core.json,
// BENCH_scale.json and BENCH_dpbench.json. Workload holds the parameters a
// fresh run must reproduce for its rows to be comparable (seed, caps,
// dataset, size); CompareBench refuses a run whose suite or workload
// differs from the baseline's.
type Report struct {
	Suite    string            `json:"suite"`
	Time     time.Time         `json:"time"`
	Workload map[string]string `json:"workload"`
	Rows     []Row             `json:"rows"`
}

// Row is one measured cell of a bench suite: a key naming the cell within
// the workload (a dataset, a size and blocking mode, a dataset/backend/ε
// triple) and its metrics. A metric that was not measured is absent.
type Row struct {
	Key     string             `json:"key"`
	Metrics map[string]float64 `json:"metrics"`
}

// UnmarshalJSON also reads the flat row shape registry entries carried
// before rows had a metrics map ({"dataset": "Restaurant", "entities": 80,
// ...}): the dataset becomes the key and every number a metric.
func (r *Row) UnmarshalJSON(data []byte) error {
	type row Row
	if err := json.Unmarshal(data, (*row)(r)); err != nil || r.Key != "" || r.Metrics != nil {
		return err
	}
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		return err
	}
	r.Metrics = map[string]float64{}
	for k, v := range flat {
		switch v := v.(type) {
		case float64:
			r.Metrics[k] = v
		case string:
			if k == "dataset" {
				r.Key = v
			}
		}
	}
	return nil
}

// String renders the row as its key followed by its metrics in name order:
// whole numbers (counts, bytes) in full, the rest to six significant digits.
func (r Row) String() string {
	var b strings.Builder
	b.WriteString(r.Key)
	for _, name := range sortedKeys(r.Metrics) {
		v := r.Metrics[name]
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			fmt.Fprintf(&b, "  %s=%.0f", name, v)
		} else {
			fmt.Fprintf(&b, "  %s=%.6g", name, v)
		}
	}
	return b.String()
}

// Better is the direction in which a gated value improves.
type Better int

const (
	// Higher gates a drop below the baseline by more than the slack.
	Higher Better = iota + 1
	// Lower gates a rise above the baseline by more than the slack.
	Lower
	// AtMost gates a rise above the baseline by more than Abs alone: the
	// relative threshold does not apply.
	AtMost
)

// Rule is how one metric is held to its baseline value. The slack is the
// larger of the relative threshold times the baseline and Abs, so Abs is
// the absolute floor that keeps a small baseline from gating noise. A
// baseline below MinBase gates nothing.
type Rule struct {
	Better  Better
	Abs     float64
	MinBase float64
}

// positive as a MinBase gates a non-negative metric only where the baseline
// measured it: no float64 lies strictly between 0 and it, so base >= positive
// is base > 0.
const positive = math.SmallestNonzeroFloat64

// Check holds cur to base at relative threshold rel. It returns the floor
// (Higher) or ceiling (Lower, AtMost) cur was held to and whether cur is
// past it; a baseline below MinBase is never regressed.
func (r Rule) Check(base, cur, rel float64) (bound float64, regressed bool) {
	if r.Better == AtMost {
		rel = 0
	}
	slack := math.Max(rel*base, r.Abs)
	if r.Better == Higher {
		bound = base - slack
		return bound, base >= r.MinBase && cur < bound
	}
	bound = base + slack
	return bound, base >= r.MinBase && cur > bound
}

// BenchRules is the gate table of CompareBench: per suite, the rule for
// each gated metric. Metrics a suite records beyond these are kept and
// printed but never gated.
var BenchRules = map[string]map[string]Rule{
	"core": {
		"entities_per_sec": {Better: Higher, MinBase: positive},
		"peak_rss_bytes":   {Better: Lower, MinBase: positive},
		"gc_pause_seconds": {Better: Lower, MinBase: positive},
	},
	"scale": {
		"entities_per_sec": {Better: Higher, MinBase: positive},
		"peak_rss_bytes":   {Better: Lower, MinBase: positive},
	},
	// The [0,1] quality axes get an absolute slack so benign float drift
	// on a near-zero baseline does not gate; wall-clock gates only cells
	// slow enough to time; the spent ε may not grow at all.
	"dp": {
		"f1":             {Better: Higher, Abs: 0.02},
		"jsd":            {Better: Lower, Abs: 0.02},
		"wall_seconds":   {Better: Lower, MinBase: 0.5},
		"peak_rss_bytes": {Better: Lower, MinBase: positive},
		"epsilon_spent":  {Better: AtMost, Abs: 1e-9},
	},
}

// CompareBench checks a fresh bench run against a baseline of the same
// suite and returns one human-readable problem per regression: a differing
// suite or workload (reported alone — the rows would not be comparable),
// a baseline row missing from the current run, or a metric past its
// BenchRules bound at the relative threshold. A metric absent from the
// baseline gates nothing; one absent from the current run counts as 0.
// Better values and extra rows are not problems. An empty result means the
// run holds the baseline.
func CompareBench(baseline, current Report, threshold float64) []string {
	if baseline.Suite != current.Suite || !maps.Equal(baseline.Workload, current.Workload) {
		return []string{fmt.Sprintf(
			"workload mismatch: baseline %s %v vs current %s %v; regenerate the baseline with the same flags",
			baseline.Suite, baseline.Workload, current.Suite, current.Workload)}
	}
	rules := BenchRules[baseline.Suite]
	cur := make(map[string]Row, len(current.Rows))
	for _, r := range current.Rows {
		cur[r.Key] = r
	}
	var problems []string
	for _, base := range baseline.Rows {
		now, ok := cur[base.Key]
		if !ok {
			problems = append(problems, fmt.Sprintf("row %s present in the baseline but not benched now", base.Key))
			continue
		}
		for _, name := range sortedKeys(base.Metrics) {
			rule, gated := rules[name]
			if !gated {
				continue
			}
			b, c := base.Metrics[name], now.Metrics[name]
			if bound, regressed := rule.Check(b, c, threshold); regressed {
				side, limit := "above", "ceiling"
				if rule.Better == Higher {
					side, limit = "below", "floor"
				}
				problems = append(problems, fmt.Sprintf(
					"row %s: %s %.6g is %s the %.6g baseline (%s %.6g at the %.0f%% threshold)",
					base.Key, name, c, side, b, limit, bound, 100*threshold))
			}
		}
	}
	return problems
}

// WriteBench writes the report through the registry's crash-safe
// temp + fsync + rename path, creating the parent directory if needed.
func WriteBench(path string, rep Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return atomicWrite(path, append(data, '\n'))
}

// ReadBench loads a bench report, refusing documents that name no known
// suite (including every file written before the shared schema).
func ReadBench(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("runstore: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("runstore: %s: %w", path, err)
	}
	if rep.Suite == "" {
		return rep, fmt.Errorf("runstore: %s has no \"suite\" field (a bench file from before the shared schema; regenerate it)", path)
	}
	if _, ok := BenchRules[rep.Suite]; !ok {
		return rep, fmt.Errorf("runstore: %s: unknown bench suite %q", path, rep.Suite)
	}
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
