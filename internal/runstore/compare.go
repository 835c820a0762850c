package runstore

import (
	"errors"
	"maps"
)

// ErrRegression is wrapped into the error `serd runs compare` returns
// when any metric breaks its RunRules rule; cmd/serd maps it to exit code 3
// so CI can gate on cross-run drift distinctly from ordinary failures.
var ErrRegression = errors.New("runstore: regression detected")

// Row flattens the run into the one metric row RunRules gate: the total
// wall-clock (wall_seconds), each stage's wall-clock (stage:<name>), peak
// RSS where the run sampled it (peak_rss_bytes), the composed ε (epsilon,
// 0 when the run kept no ledger), each privacy group's ε
// (epsilon:<group>) and the summary map's scalars under their own names.
func (e *Entry) Row() Row {
	m := make(map[string]float64, len(e.Summary)+len(e.Stages)+3)
	maps.Copy(m, e.Summary)
	m["wall_seconds"] = e.WallSeconds
	for _, s := range e.Stages {
		m["stage:"+s.Name] = s.Seconds
	}
	if e.Runtime != nil && e.Runtime.PeakRSSBytes > 0 {
		m["peak_rss_bytes"] = float64(e.Runtime.PeakRSSBytes)
	}
	m["epsilon"] = 0
	if e.Privacy != nil {
		m["epsilon"] = e.Privacy.Epsilon
		for _, g := range e.Privacy.Groups {
			m["epsilon:"+g.Group] = g.Epsilon
		}
	}
	return Row{Key: e.RunID, Metrics: m}
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
