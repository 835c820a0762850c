package runstore

import (
	"errors"
	"fmt"
	"sort"
)

// ErrRegression is wrapped into the error `serd runs compare` returns
// when any delta exceeds its threshold; cmd/serd maps it to exit code 3
// so CI can gate on cross-run drift distinctly from ordinary failures.
var ErrRegression = errors.New("runstore: regression detected")

// CompareOptions are the drift thresholds of Compare. Zero values
// select the defaults.
type CompareOptions struct {
	// WallThreshold is the allowed fractional wall-clock growth, per
	// stage and in total (default 0.25). A stage also needs an absolute
	// growth of at least MinSeconds (default 0.05s) to count — millisecond
	// stages jitter far beyond any fraction.
	WallThreshold float64
	MinSeconds    float64
	// EpsThreshold is the allowed fractional ε growth, per group and in
	// total (default 0.01 — ε is recomputed, not measured, so any real
	// drift means the run's mechanisms changed).
	EpsThreshold float64
	// MetricThreshold is the allowed fractional fidelity drift on the
	// "jsd" summary metric, where higher is worse (default 0.25).
	MetricThreshold float64
	// RSSThreshold is the allowed fractional peak-RSS growth (default
	// 0.50; RSS on shared hardware swings more than wall-clock).
	RSSThreshold float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.WallThreshold == 0 {
		o.WallThreshold = 0.25
	}
	if o.MinSeconds == 0 {
		o.MinSeconds = 0.05
	}
	if o.EpsThreshold == 0 {
		o.EpsThreshold = 0.01
	}
	if o.MetricThreshold == 0 {
		o.MetricThreshold = 0.25
	}
	if o.RSSThreshold == 0 {
		o.RSSThreshold = 0.50
	}
	return o
}

// Delta is one compared axis: a value in run A, the value in run B, and
// whether the growth breached the threshold.
type Delta struct {
	Name      string  `json:"name"`
	A         float64 `json:"a"`
	B         float64 `json:"b"`
	Regressed bool    `json:"regressed,omitempty"`
}

// Diff is B−A.
func (d Delta) Diff() float64 { return d.B - d.A }

// Frac is the fractional growth of B over A (0 when A is 0).
func (d Delta) Frac() float64 {
	if d.A == 0 {
		return 0
	}
	return (d.B - d.A) / d.A
}

// Comparison is the joined cross-run delta `serd runs compare` prints:
// per-stage wall-clock (from the runs' stage/trace summaries), peak
// RSS, per-group ε (from the ledger totals), and fidelity metrics.
type Comparison struct {
	A, B       Entry                `json:"-"`
	Wall       Delta                `json:"wall"`
	Stages     []Delta              `json:"stages,omitempty"`
	PeakRSS    Delta                `json:"peak_rss"`
	Epsilon    Delta                `json:"epsilon"`
	Groups     []Delta              `json:"groups,omitempty"`
	Metrics    []Delta              `json:"metrics,omitempty"`
	ConfigDiff map[string][2]string `json:"config_diff,omitempty"`
	// Regressions lists one human-readable line per threshold breach;
	// empty means B holds A.
	Regressions []string `json:"regressions,omitempty"`
}

// Regressed reports whether any axis breached its threshold.
func (c *Comparison) Regressed() bool { return len(c.Regressions) > 0 }

// Compare joins two registered runs and flags every axis where B drifts
// beyond opts past A. Every axis is a Lower rule — B slower, bigger, more
// ε-hungry or less faithful than A regresses — evaluated exactly as the
// bench comparator evaluates BenchRules.
func Compare(a, b Entry, opts CompareOptions) *Comparison {
	opts = opts.withDefaults()
	c := &Comparison{A: a, B: b}
	// A stage needs an absolute growth of MinSeconds; so does the total
	// wall, which moreover gates only against a measured (non-zero) A. RSS
	// and jsd gate only where A measured them; ε gates from zero up.
	var (
		wallRule  = Rule{Better: Lower, Abs: opts.MinSeconds, MinBase: positive}
		stageRule = Rule{Better: Lower, Abs: opts.MinSeconds}
		rssRule   = Rule{Better: Lower, MinBase: positive}
		epsRule   = Rule{Better: Lower}
		jsdRule   = Rule{Better: Lower, MinBase: positive}
	)
	regressed := func(r Rule, d Delta, rel float64) bool {
		_, bad := r.Check(d.A, d.B, rel)
		return bad
	}

	c.Wall = Delta{Name: "wall", A: a.WallSeconds, B: b.WallSeconds}
	if regressed(wallRule, c.Wall, opts.WallThreshold) {
		c.Wall.Regressed = true
		c.Regressions = append(c.Regressions, fmt.Sprintf(
			"wall-clock %.2fs -> %.2fs (+%.0f%%, threshold %.0f%%)",
			c.Wall.A, c.Wall.B, 100*c.Wall.Frac(), 100*opts.WallThreshold))
	}

	for _, d := range joinDeltas(stageMap(a.Stages), stageMap(b.Stages)) {
		if regressed(stageRule, d, opts.WallThreshold) {
			d.Regressed = true
			c.Regressions = append(c.Regressions, fmt.Sprintf(
				"stage %s: %.3fs -> %.3fs (+%.0f%% wall, threshold %.0f%%)",
				d.Name, d.A, d.B, 100*d.Frac(), 100*opts.WallThreshold))
		}
		c.Stages = append(c.Stages, d)
	}

	var rssA, rssB float64
	if a.Runtime != nil {
		rssA = float64(a.Runtime.PeakRSSBytes)
	}
	if b.Runtime != nil {
		rssB = float64(b.Runtime.PeakRSSBytes)
	}
	c.PeakRSS = Delta{Name: "peak_rss_bytes", A: rssA, B: rssB}
	if regressed(rssRule, c.PeakRSS, opts.RSSThreshold) {
		c.PeakRSS.Regressed = true
		c.Regressions = append(c.Regressions, fmt.Sprintf(
			"peak RSS %.1f MiB -> %.1f MiB (+%.0f%%, threshold %.0f%%)",
			rssA/(1<<20), rssB/(1<<20), 100*c.PeakRSS.Frac(), 100*opts.RSSThreshold))
	}

	var epsA, epsB float64
	groupsA, groupsB := map[string]float64{}, map[string]float64{}
	if a.Privacy != nil {
		epsA = a.Privacy.Epsilon
		for _, g := range a.Privacy.Groups {
			groupsA[g.Group] = g.Epsilon
		}
	}
	if b.Privacy != nil {
		epsB = b.Privacy.Epsilon
		for _, g := range b.Privacy.Groups {
			groupsB[g.Group] = g.Epsilon
		}
	}
	c.Epsilon = Delta{Name: "epsilon", A: epsA, B: epsB}
	if regressed(epsRule, c.Epsilon, opts.EpsThreshold) {
		c.Epsilon.Regressed = true
		c.Regressions = append(c.Regressions, fmt.Sprintf(
			"composed ε %.6g -> %.6g (+%.2f%%, threshold %.2f%%)",
			epsA, epsB, 100*c.Epsilon.Frac(), 100*opts.EpsThreshold))
	}
	for _, d := range joinDeltas(groupsA, groupsB) {
		if regressed(epsRule, d, opts.EpsThreshold) {
			d.Regressed = true
			c.Regressions = append(c.Regressions, fmt.Sprintf(
				"ε group %s: %.6g -> %.6g (threshold %.2f%%)",
				d.Name, d.A, d.B, 100*opts.EpsThreshold))
		}
		c.Groups = append(c.Groups, d)
	}

	for _, d := range joinDeltas(a.Summary, b.Summary) {
		// Only jsd has a known "higher is worse" direction; the rest of
		// the summary map (entity counts, rejection tallies) is printed
		// for context but never gates.
		if d.Name == "jsd" && regressed(jsdRule, d, opts.MetricThreshold) {
			d.Regressed = true
			c.Regressions = append(c.Regressions, fmt.Sprintf(
				"fidelity drift: jsd %.4f -> %.4f (+%.0f%%, threshold %.0f%%)",
				d.A, d.B, 100*d.Frac(), 100*opts.MetricThreshold))
		}
		c.Metrics = append(c.Metrics, d)
	}

	c.ConfigDiff = map[string][2]string{}
	for k, va := range a.Config {
		if vb, ok := b.Config[k]; !ok || vb != va {
			c.ConfigDiff[k] = [2]string{va, b.Config[k]}
		}
	}
	for k, vb := range b.Config {
		if _, ok := a.Config[k]; !ok {
			c.ConfigDiff[k] = [2]string{"", vb}
		}
	}
	if len(c.ConfigDiff) == 0 {
		c.ConfigDiff = nil
	}
	return c
}

func stageMap(stages []StageTime) map[string]float64 {
	m := make(map[string]float64, len(stages))
	for _, s := range stages {
		m[s.Name] = s.Seconds
	}
	return m
}

// joinDeltas outer-joins two name→value maps into sorted deltas.
func joinDeltas(a, b map[string]float64) []Delta {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out := make([]Delta, 0, len(sorted))
	for _, k := range sorted {
		out = append(out, Delta{Name: k, A: a[k], B: b[k]})
	}
	return out
}

// BurnPoint is one run's contribution to a group's ε burn-down.
type BurnPoint struct {
	RunID      string  `json:"run_id"`
	Status     string  `json:"status"`
	Epsilon    float64 `json:"epsilon"`
	Cumulative float64 `json:"cumulative"`
}

// BurnDown is the cumulative ε spend of one dataset group across its
// registered runs, oldest first — the precursor of the multi-tenant
// accountant (ROADMAP item 1): replace "dataset" with "tenant" and this
// is the per-tenant budget line.
type BurnDown struct {
	Dataset string      `json:"dataset"`
	Total   float64     `json:"total"`
	Points  []BurnPoint `json:"points"`
}

// ComputeBurnDown aggregates cumulative ε per dataset group over
// entries (which must be in List order, oldest first). Runs that spent
// nothing are skipped; failed/aborted runs count — the ledger records
// what was spent before the stop, and spent ε never comes back.
func ComputeBurnDown(entries []Entry) []BurnDown {
	idx := map[string]int{}
	var out []BurnDown
	for _, e := range entries {
		if e.Privacy == nil || e.Privacy.Epsilon == 0 {
			continue
		}
		ds := e.Dataset
		if ds == "" {
			ds = "(unknown)"
		}
		i, ok := idx[ds]
		if !ok {
			i = len(out)
			idx[ds] = i
			out = append(out, BurnDown{Dataset: ds})
		}
		b := &out[i]
		b.Total += e.Privacy.Epsilon
		b.Points = append(b.Points, BurnPoint{
			RunID: e.RunID, Status: e.Status,
			Epsilon: e.Privacy.Epsilon, Cumulative: b.Total,
		})
	}
	return out
}
