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

// String renders the row as its key followed by its metrics in name order,
// each as FormatMetric renders it.
func (r Row) String() string {
	var b strings.Builder
	b.WriteString(r.Key)
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Fprintf(&b, "  %s=%s", name, FormatMetric(r.Metrics[name]))
	}
	return b.String()
}

// FormatMetric renders a metric value: whole numbers (counts, bytes) in
// full, the rest to six significant digits.
func FormatMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// Better is the direction in which a gated value improves.
type Better int

const (
	// Higher gates a drop below the baseline by more than the slack.
	Higher Better = iota + 1
	// Lower gates a rise above the baseline by more than the slack.
	Lower
)

// Rule is how one metric is held to its baseline value. The slack is the
// larger of Rel times the baseline and Abs, so Abs is the absolute floor
// that keeps a small baseline from gating noise. A baseline below MinBase
// gates nothing.
type Rule struct {
	Better  Better
	Rel     float64
	Abs     float64
	MinBase float64
}

// positive as a MinBase gates a non-negative metric only where the baseline
// measured it: no float64 lies strictly between 0 and it, so base >= positive
// is base > 0.
const positive = math.SmallestNonzeroFloat64

// Check holds cur to base. It returns the floor (Higher) or ceiling (Lower)
// cur was held to and whether cur is past it; a baseline below MinBase is
// never regressed.
func (r Rule) Check(base, cur float64) (bound float64, regressed bool) {
	slack := math.Max(r.Rel*base, r.Abs)
	if r.Better == Higher {
		bound = base - slack
		return bound, base >= r.MinBase && cur < bound
	}
	bound = base + slack
	return bound, base >= r.MinBase && cur > bound
}

// BenchRules is the gate table of CompareBench: per suite, the rule for
// each gated metric. Metrics a suite records beyond these are kept and
// printed but never gated. Each suite's relative slack fits its run
// length: a 5 s core run on shared hardware swings less than a minutes-long
// scale ladder.
var BenchRules = map[string]map[string]Rule{
	"core": {
		"entities_per_sec": {Better: Higher, Rel: 0.25, MinBase: positive},
		"peak_rss_bytes":   {Better: Lower, Rel: 0.25, MinBase: positive},
		"gc_pause_seconds": {Better: Lower, Rel: 0.25, MinBase: positive},
	},
	"scale": {
		"entities_per_sec": {Better: Higher, Rel: 0.5, MinBase: positive},
		"peak_rss_bytes":   {Better: Lower, Rel: 0.5, MinBase: positive},
	},
	// The [0,1] quality axes get an absolute slack so benign float drift
	// on a near-zero baseline does not gate; wall-clock gates only cells
	// slow enough to time; the spent ε may not grow at all.
	"dp": {
		"f1":             {Better: Higher, Rel: 0.3, Abs: 0.02},
		"jsd":            {Better: Lower, Rel: 0.3, Abs: 0.02},
		"wall_seconds":   {Better: Lower, Rel: 0.3, MinBase: 0.5},
		"peak_rss_bytes": {Better: Lower, Rel: 0.3, MinBase: positive},
		"epsilon_spent":  {Better: Lower, Abs: 1e-9},
	},
}

// RunRules is the gate table of `serd runs compare`, over the metrics
// Entry.Row flattens a run into. A stage needs an absolute growth of
// 0.05 s to count, since millisecond stages jitter far beyond any
// fraction; so does the total wall, which gates only against a measured
// baseline, as do peak RSS and jsd. ε is recomputed, not measured, so any
// growth past 1% means the run's mechanisms changed.
var RunRules = map[string]Rule{
	"wall_seconds":   {Better: Lower, Rel: 0.25, Abs: 0.05, MinBase: positive},
	"stage":          {Better: Lower, Rel: 0.25, Abs: 0.05},
	"peak_rss_bytes": {Better: Lower, Rel: 0.5, MinBase: positive},
	"epsilon":        {Better: Lower, Rel: 0.01},
	"jsd":            {Better: Lower, Rel: 0.25, MinBase: positive},
}

// Gate holds a current row to a baseline row under a rule table and
// returns one problem per regressed metric, keyed by the metric's name. A
// metric's rule is its exact name's, else its family's: the prefix before
// ":" ("stage" for "stage:core.s2"). A metric absent from the baseline is
// held against 0, so its rule's MinBase decides whether it gates; a gated
// metric the baseline measured but the current row lacks is a regression.
// Ungated metrics never gate.
func Gate(base, cur Row, rules map[string]Rule) map[string]string {
	problems := map[string]string{}
	check := func(name string) {
		rule, gated := rules[name]
		if !gated {
			family, _, _ := strings.Cut(name, ":")
			rule, gated = rules[family]
		}
		if !gated {
			return
		}
		b, measured := base.Metrics[name]
		c, present := cur.Metrics[name]
		if measured && !present {
			problems[name] = fmt.Sprintf("%s measured %.6g in the baseline but is absent now", name, b)
			return
		}
		if bound, regressed := rule.Check(b, c); regressed {
			side, limit := "above", "ceiling"
			if rule.Better == Higher {
				side, limit = "below", "floor"
			}
			problems[name] = fmt.Sprintf("%s %.6g is %s the %.6g baseline (%s %.6g at the %.0f%% threshold)",
				name, c, side, b, limit, bound, 100*rule.Rel)
		}
	}
	for name := range base.Metrics {
		check(name)
	}
	for name := range cur.Metrics {
		if _, seen := base.Metrics[name]; !seen {
			check(name)
		}
	}
	return problems
}

// CompareBench checks a fresh bench run against a baseline of the same
// suite and returns one human-readable problem per regression: a differing
// suite or workload (reported alone — the rows would not be comparable),
// a baseline row missing from the current run, or a metric of a matched
// row that Gate flags under the suite's BenchRules. Better values and
// extra rows are not problems. An empty result means the run holds the
// baseline.
func CompareBench(baseline, current Report) []string {
	if baseline.Suite != current.Suite || !maps.Equal(baseline.Workload, current.Workload) {
		return []string{fmt.Sprintf(
			"workload mismatch: baseline %s %v vs current %s %v; regenerate the baseline with the same flags",
			baseline.Suite, baseline.Workload, current.Suite, current.Workload)}
	}
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
		gate := Gate(base, now, BenchRules[baseline.Suite])
		for _, name := range sortedKeys(gate) {
			problems = append(problems, fmt.Sprintf("row %s: %s", base.Key, gate[name]))
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
