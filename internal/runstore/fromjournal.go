package runstore

import (
	"errors"
	"path/filepath"
	"sort"
	"time"

	"serd/internal/journal"
	"serd/internal/telemetry"
)

// EntryFromJournal distills a run's journal into a registry entry: run
// id (the first chain hash), tool, seed, journaled config, lineage,
// per-stage wall-clock from the phase events, the ledger's per-group ε
// spend, and the terminal status. Callers add what the journal does not
// carry — artifact paths, the runtime sampler block, bench rows.
func EntryFromJournal(events []journal.Event) (Entry, error) {
	var e Entry
	if len(events) == 0 {
		return e, errors.New("runstore: journal has no events")
	}
	sum, err := journal.Summarize(events)
	if err != nil {
		return e, err
	}
	e.RunID = events[0].Chain
	e.Tool = sum.Tool
	e.Seed = sum.Seed
	e.Config = sum.Config
	e.Status = sum.Status
	e.Error = sum.StatusError
	e.Summary = sum.Summary
	e.WallSeconds = sum.WallS
	// Backend name: the core.generator config event wins; a journal from
	// an older build whose default path wrote gmm_fit events ran gmm.
	if gen := sum.Configs["core.generator"]; gen != nil {
		e.Generator = gen["backend"]
	} else if len(sum.Fits) > 0 {
		e.Generator = "gmm"
	} else if len(sum.GenFits) > 0 {
		e.Generator = sum.GenFits[0].Backend
	}
	if ts := events[0].TS; ts != "" {
		if t, err := time.Parse(time.RFC3339Nano, ts); err == nil {
			e.Start = t
		}
	}
	if ds, ok := sum.Config["dataset"]; ok {
		e.Dataset = ds
	} else if in, ok := sum.Config["in"]; ok {
		e.Dataset = filepath.Base(filepath.Clean(in))
	}
	for _, l := range sum.Lineage {
		e.Lineage = append(e.Lineage, LineageRef{Role: l.Role, Dir: l.Dir, SHA: l.Combined})
	}
	e.Stages = stagesFromPhases(sum.Phases)
	if len(sum.Charges) > 0 {
		e.Privacy = PrivacyFromCharges(sum.Charges)
	}
	return e, nil
}

// stagesFromPhases aggregates journaled phase_end durations by name,
// preserving first-occurrence order.
func stagesFromPhases(phases []journal.PhaseSummary) []StageTime {
	idx := map[string]int{}
	var out []StageTime
	for _, p := range phases {
		i, ok := idx[p.Name]
		if !ok {
			i = len(out)
			idx[p.Name] = i
			out = append(out, StageTime{Name: p.Name})
		}
		out[i].Count++
		out[i].Seconds += p.DurS
	}
	return out
}

// StagesFromSnapshot derives per-stage times from a telemetry snapshot's
// phase aggregates — the journal-less path (experiments).
func StagesFromSnapshot(snap telemetry.Snapshot) []StageTime {
	names := make([]string, 0, len(snap.Phases))
	for name := range snap.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]StageTime, 0, len(names))
	for _, name := range names {
		p := snap.Phases[name]
		out = append(out, StageTime{Name: name, Count: p.Count, Seconds: p.TotalSeconds})
	}
	return out
}

// PrivacyFromCharges folds ledger charges into the registry's privacy
// block: the composed total (journal.Compose semantics — parallel max
// within a named group, sequential sum across groups and ungrouped
// charges) plus the per-group spends the burn-down view aggregates.
func PrivacyFromCharges(charges []journal.Entry) *Privacy {
	p := &Privacy{Charges: len(charges)}
	p.Epsilon, p.Delta = journal.Compose(charges)

	idx := map[string]int{}
	for _, c := range charges {
		key := c.Group
		grouped := key != ""
		if !grouped {
			key = c.Label
		}
		i, ok := idx[key]
		if !ok {
			i = len(p.Groups)
			idx[key] = i
			p.Groups = append(p.Groups, GroupSpend{Group: key})
		}
		g := &p.Groups[i]
		g.Charges++
		if grouped {
			// Parallel composition inside a group: max ε / max δ.
			if c.Epsilon > g.Epsilon {
				g.Epsilon = c.Epsilon
			}
			if c.Delta > g.Delta {
				g.Delta = c.Delta
			}
		} else {
			// Ungrouped charges compose sequentially.
			g.Epsilon += c.Epsilon
			if c.Delta > g.Delta {
				g.Delta = c.Delta
			}
		}
	}
	return p
}
