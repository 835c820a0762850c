package journal

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// EpsilonTolerance is the maximum |recorded − recomputed| composed-ε drift
// `serd audit verify` accepts. Recomputation runs the same accountant on
// the same recorded parameters, so anything above float slop means the
// journal and the maths disagree.
const EpsilonTolerance = 1e-9

// PhaseSummary is one journaled phase with its (volatile) duration.
type PhaseSummary struct {
	Name string
	DurS float64
}

// RunSummary is a journal distilled for display and diffing.
type RunSummary struct {
	Tool    string
	Seed    int64
	Config  map[string]string
	Configs map[string]map[string]string // named config events (e.g. core.options)
	Lineage []LineageData
	Phases  []PhaseSummary
	// Fits holds the gmm_fit summaries of journals from older builds,
	// whose default S1 path wrote them; current runs never do.
	Fits []GMMFitData
	// GenFits holds the generator_fit summaries current builds write (one
	// per fitted distribution).
	GenFits     []GeneratorFitData
	Charges     []Entry
	LedgerEps   float64
	LedgerDelta float64
	// LedgerTotalRecorded reports whether a ledger_total event was present
	// (LedgerEps/LedgerDelta come from it; otherwise they are recomposed
	// from the charges).
	LedgerTotalRecorded bool
	Checkpoints         int
	FinalCheckpoint     float64
	Synthesis           *SynthesisData
	Blocking            []BlockingData
	Logs                []LogData
	Warnings            []WarningData
	Status              string
	StatusError         string
	Summary             map[string]float64
	WallS               float64
	Budget              []BudgetData
	Resumes             []ResumeData
	Events              int
}

// Summarize folds a journal's events into a RunSummary. Unknown event
// types are counted but otherwise ignored, so older tooling can read newer
// journals.
func Summarize(events []Event) (*RunSummary, error) {
	s := &RunSummary{Configs: map[string]map[string]string{}, Events: len(events)}
	for _, ev := range events {
		switch ev.Type {
		case "run_start":
			var d RunStartData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Tool, s.Seed, s.Config = d.Tool, d.Seed, d.Config
		case "config":
			var d ConfigData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Configs[d.Name] = d.Values
		case "lineage":
			var d LineageData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Lineage = append(s.Lineage, d)
		case "phase_end":
			var d PhaseData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Phases = append(s.Phases, PhaseSummary{Name: d.Name, DurS: ev.DurS})
		case "gmm_fit":
			var d GMMFitData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Fits = append(s.Fits, d)
		case "generator_fit":
			var d GeneratorFitData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.GenFits = append(s.GenFits, d)
		case "ledger_charge":
			var d Entry
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Charges = append(s.Charges, d)
		case "ledger_total":
			var d TotalData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.LedgerEps, s.LedgerDelta, s.LedgerTotalRecorded = d.Epsilon, d.Delta, true
		case "epsilon_checkpoint":
			var d CheckpointData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Checkpoints++
			s.FinalCheckpoint = d.Epsilon
		case "budget":
			var d BudgetData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Budget = append(s.Budget, d)
		case "synthesis":
			var d SynthesisData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Synthesis = &d
		case "blocking":
			var d BlockingData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Blocking = append(s.Blocking, d)
		case "warning":
			var d WarningData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Warnings = append(s.Warnings, d)
		case "log":
			var d LogData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Logs = append(s.Logs, d)
		case "resume":
			var d ResumeData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Resumes = append(s.Resumes, d)
		case "run_end":
			var d RunEndData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				return nil, fmt.Errorf("journal: event %d (%s): %w", ev.Seq, ev.Type, err)
			}
			s.Status, s.StatusError, s.Summary, s.WallS = d.Status, d.Error, d.Summary, ev.DurS
		}
	}
	if !s.LedgerTotalRecorded {
		s.LedgerEps, s.LedgerDelta = Compose(s.Charges)
	}
	return s, nil
}

// OpenPhases returns, per phase name, how many phase_start events in the
// event stream have no matching phase_end — the phases a crashed run was
// inside when its journal stopped. A resumed run re-enters those phases;
// InstrumentResumed uses these counts to suppress the duplicate
// phase_starts it would otherwise journal.
func OpenPhases(events []Event) map[string]int {
	open := map[string]int{}
	for _, ev := range events {
		var d PhaseData
		switch ev.Type {
		case "phase_start":
			if json.Unmarshal(ev.Data, &d) == nil {
				open[d.Name]++
			}
		case "phase_end":
			if json.Unmarshal(ev.Data, &d) == nil && open[d.Name] > 0 {
				open[d.Name]--
			}
		}
	}
	for name, n := range open {
		if n == 0 {
			delete(open, name)
		}
	}
	return open
}

// VerifyResult is the outcome of Verify: a list of independent checks with
// any problems found.
type VerifyResult struct {
	JournalPath string
	Events      int
	// Problems lists every failed check; an empty list means the run
	// verifies.
	Problems []string
	// ChainOK: the hash chain over every journal line is intact.
	ChainOK bool
	// EpsilonOK: every dp_sgd charge's ε re-derives from its recorded
	// mechanism parameters and the recomposed total matches the recorded
	// ledger_total within EpsilonTolerance.
	EpsilonOK         bool
	RecordedEpsilon   float64
	RecomputedEpsilon float64
	// LineageOK: every output lineage entry re-hashes to the recorded
	// per-file hashes. LineageChecked is false when the journal carries no
	// output lineage (nothing to check).
	LineageOK      bool
	LineageChecked bool
}

// OK reports whether every check passed.
func (r *VerifyResult) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Verify audits a recorded run: it re-verifies the journal's hash chain,
// recomputes every DP-SGD expenditure's ε from its recorded mechanism
// parameters plus the composed total, and re-hashes the output dataset
// against the journal's lineage entries. datasetDir overrides where output
// lineage is re-hashed (empty = the directory recorded in the journal,
// resolved relative to the journal file when not absolute).
func Verify(journalPath, datasetDir string) (*VerifyResult, error) {
	events, err := Read(journalPath)
	if err != nil {
		return nil, err
	}
	res := &VerifyResult{JournalPath: journalPath, Events: len(events), ChainOK: true, EpsilonOK: true, LineageOK: true}
	if len(events) == 0 {
		res.problemf("journal is empty")
		return res, nil
	}

	if i := VerifyChain(events); i >= 0 {
		res.ChainOK = false
		res.problemf("hash chain broken at line %d (type %s): the journal was modified after writing", i+1, events[i].Type)
	}

	sum, err := Summarize(events)
	if err != nil {
		res.problemf("unreadable event payload: %v", err)
		return res, nil
	}

	// Privacy: recompute each charge, then the composition.
	recomputed := make([]Entry, 0, len(sum.Charges))
	for _, e := range sum.Charges {
		re := e.Recompute()
		if math.Abs(re-e.Epsilon) > EpsilonTolerance {
			res.EpsilonOK = false
			res.problemf("ledger entry %q: recorded ε=%.12g but parameters (q=%g σ=%g steps=%d δ=%g) give ε=%.12g",
				e.Label, e.Epsilon, e.Q, e.Noise, e.Steps, e.Delta, re)
		}
		e.Epsilon = re
		recomputed = append(recomputed, e)
	}
	res.RecordedEpsilon = sum.LedgerEps
	res.RecomputedEpsilon, _ = Compose(recomputed)
	if sum.LedgerTotalRecorded && math.Abs(res.RecomputedEpsilon-res.RecordedEpsilon) > EpsilonTolerance {
		res.EpsilonOK = false
		res.problemf("composed ε mismatch: ledger_total records %.12g, recomposition from %d charges gives %.12g",
			res.RecordedEpsilon, len(sum.Charges), res.RecomputedEpsilon)
	}

	// Lineage: re-hash every output dataset.
	for _, lin := range sum.Lineage {
		if lin.Role != "output" {
			continue
		}
		res.LineageChecked = true
		dir := datasetDir
		if dir == "" {
			dir = lin.Dir
			if !filepath.IsAbs(dir) {
				if _, err := os.Stat(dir); err != nil {
					dir = filepath.Join(filepath.Dir(journalPath), filepath.Base(lin.Dir))
				}
			}
		}
		files, combined, err := HashDataset(dir)
		if err != nil {
			res.LineageOK = false
			res.problemf("re-hashing output dataset %s: %v", dir, err)
			continue
		}
		if combined != lin.Combined {
			res.LineageOK = false
			for _, name := range sortedKeys(lin.Files) {
				if files[name] != lin.Files[name] {
					res.problemf("output dataset %s: %s hash %.12s… does not match journaled %.12s… (dataset modified after the run)",
						dir, name, files[name], lin.Files[name])
				}
			}
			for _, name := range sortedKeys(files) {
				if _, ok := lin.Files[name]; !ok {
					res.problemf("output dataset %s: %s present on disk but not in the journal", dir, name)
				}
			}
		}
	}
	return res, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DiffEntry is one changed value between two runs.
type DiffEntry struct {
	Key  string
	A, B string
}

// Diff compares two run summaries: configuration, composed privacy cost,
// headline metrics and output lineage. Identical values are omitted.
type Diff struct {
	Config  []DiffEntry
	Privacy []DiffEntry
	Summary []DiffEntry
	Lineage []DiffEntry
	Status  []DiffEntry
}

// Empty reports whether the runs are indistinguishable under the diffed
// dimensions.
func (d *Diff) Empty() bool {
	return len(d.Config) == 0 && len(d.Privacy) == 0 && len(d.Summary) == 0 &&
		len(d.Lineage) == 0 && len(d.Status) == 0
}

// DiffRuns computes the delta between two summarized runs.
func DiffRuns(a, b *RunSummary) *Diff {
	d := &Diff{}
	d.Config = diffStringMaps(a.Config, b.Config)
	if a.Seed != b.Seed {
		d.Config = append(d.Config, DiffEntry{Key: "seed", A: fmt.Sprint(a.Seed), B: fmt.Sprint(b.Seed)})
	}
	if a.Tool != b.Tool {
		d.Config = append(d.Config, DiffEntry{Key: "tool", A: a.Tool, B: b.Tool})
	}
	if a.LedgerEps != b.LedgerEps {
		d.Privacy = append(d.Privacy, DiffEntry{Key: "epsilon", A: fmtF(a.LedgerEps), B: fmtF(b.LedgerEps)})
	}
	if a.LedgerDelta != b.LedgerDelta {
		d.Privacy = append(d.Privacy, DiffEntry{Key: "delta", A: fmtF(a.LedgerDelta), B: fmtF(b.LedgerDelta)})
	}
	if la, lb := len(a.Charges), len(b.Charges); la != lb {
		d.Privacy = append(d.Privacy, DiffEntry{Key: "charges", A: fmt.Sprint(la), B: fmt.Sprint(lb)})
	}
	d.Summary = diffFloatMaps(a.Summary, b.Summary)
	d.Lineage = diffLineage(a.Lineage, b.Lineage)
	if a.Status != b.Status {
		d.Status = append(d.Status, DiffEntry{Key: "status", A: a.Status, B: b.Status})
	}
	return d
}

func fmtF(v float64) string { return fmt.Sprintf("%g", v) }

func diffStringMaps(a, b map[string]string) []DiffEntry {
	var out []DiffEntry
	for _, k := range unionKeys(a, b) {
		va, okA := a[k]
		vb, okB := b[k]
		if va == vb && okA == okB {
			continue
		}
		if !okA {
			va = "(unset)"
		}
		if !okB {
			vb = "(unset)"
		}
		out = append(out, DiffEntry{Key: k, A: va, B: vb})
	}
	return out
}

func diffFloatMaps(a, b map[string]float64) []DiffEntry {
	var out []DiffEntry
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		va, okA := a[k]
		vb, okB := b[k]
		if va == vb && okA == okB {
			continue
		}
		sa, sb := fmtF(va), fmtF(vb)
		if !okA {
			sa = "(unset)"
		}
		if !okB {
			sb = "(unset)"
		}
		out = append(out, DiffEntry{Key: k, A: sa, B: sb})
	}
	return out
}

func diffLineage(a, b []LineageData) []DiffEntry {
	index := func(lins []LineageData) map[string]string {
		m := map[string]string{}
		for _, l := range lins {
			m[l.Role] = l.Combined
		}
		return m
	}
	ma, mb := index(a), index(b)
	var out []DiffEntry
	for _, role := range unionKeys(ma, mb) {
		if ma[role] != mb[role] {
			out = append(out, DiffEntry{Key: role, A: short(ma[role]), B: short(mb[role])})
		}
	}
	return out
}

func short(h string) string {
	if h == "" {
		return "(none)"
	}
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}

func unionKeys(a, b map[string]string) []string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
