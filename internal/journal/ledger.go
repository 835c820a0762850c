package journal

import (
	"errors"
	"fmt"
	"sync"

	"serd/internal/dp"
	"serd/internal/telemetry"
)

// ErrBudgetExceeded is returned (wrapped) by a Charge* call that would push
// the composed ε past the configured budget while the ledger is in
// BudgetAbort mode. The offending expenditure is NOT recorded: enforcement
// happens before the mechanism runs, so an aborted pipeline has spent only
// what the ledger shows.
var ErrBudgetExceeded = errors.New("privacy budget exceeded")

// BudgetMode selects what happens when a charge would exceed the budget.
type BudgetMode int

const (
	// BudgetAbort rejects the charge: the Charge* call returns
	// ErrBudgetExceeded and the mechanism must not run.
	BudgetAbort BudgetMode = iota
	// BudgetWarn records the charge anyway, emitting a budget event with
	// action "warn".
	BudgetWarn
)

func (m BudgetMode) String() string {
	if m == BudgetWarn {
		return "warn"
	}
	return "abort"
}

// Entry is one DP mechanism expenditure, carrying enough parameters for
// `serd audit verify` to recompute its ε from scratch.
type Entry struct {
	// Label names the component ("textsynth.bucket03", "privacy_audit.dcr").
	Label string `json:"label"`
	// Kind is the mechanism: "dp_sgd" or "laplace". Journals written by
	// older versions may also hold "gaussian"; Recompute treats every
	// kind but "dp_sgd" alike, so they still verify.
	Kind string `json:"kind"`
	// Group, when non-empty, marks entries that compose in parallel
	// (disjoint training sets — e.g. the transformer bank's buckets): the
	// group's cost is its max ε / max δ, not the sum.
	Group string `json:"group,omitempty"`
	// Q, Noise, Steps are the DP-SGD accountant inputs (dp_sgd only).
	Q     float64 `json:"q,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// TailQ and TailSteps describe the partial final minibatch of each
	// epoch when the dataset size is not divisible by the batch size:
	// TailSteps additional updates at the smaller sampling ratio TailQ.
	// Zero for runs whose lots all share Q (and for pre-fix journals,
	// which recompute exactly as before).
	TailQ     float64 `json:"tail_q,omitempty"`
	TailSteps int     `json:"tail_steps,omitempty"`
	// Epsilon and Delta are the recorded cost of this entry alone.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
}

// Recompute returns the entry's ε re-derived from its mechanism parameters:
// the RDP accountant for dp_sgd, the stated ε for scalar mechanisms (their
// ε IS the parameter). For tail-free dp_sgd entries the computation is
// bit-identical to the fixed-q accountant, so journals written before
// partial-lot accounting verify unchanged.
func (e Entry) Recompute() float64 {
	if e.Kind == "dp_sgd" {
		return dp.EpsilonForLots(e.Noise, e.Steps, e.Q, e.TailSteps, e.TailQ, e.Delta)
	}
	return e.Epsilon
}

// Ledger accumulates the privacy cost of every DP mechanism invocation of a
// run, journals each expenditure, and optionally enforces an ε budget.
// The zero value is usable (no journal, no budget); a nil *Ledger is a
// no-op on every method, so call sites need no nil checks.
type Ledger struct {
	mu      sync.Mutex
	journal *Journal // optional
	budget  float64  // 0 = unlimited
	mode    BudgetMode
	entries []Entry
}

// NewLedger returns a ledger journaling to j (nil for none).
func NewLedger(j *Journal) *Ledger { return &Ledger{journal: j} }

// SetBudget caps the composed ε. A run whose next charge would push the
// composed total past eps is aborted (BudgetAbort) or recorded with a
// warning event (BudgetWarn). eps <= 0 removes the cap.
func (l *Ledger) SetBudget(eps float64, mode BudgetMode) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.budget = eps
	l.mode = mode
	l.mu.Unlock()
}

// ChargeSGD registers a DP-SGD training run: sampling ratio q, noise
// multiplier, step count and the δ at which ε is reported. The ε is
// computed by the RDP accountant; the parameters are journaled so audits
// can recompute it.
func (l *Ledger) ChargeSGD(label, group string, q, noise float64, steps int, delta float64) error {
	if l == nil {
		return nil
	}
	if q <= 0 || q > 1 {
		return fmt.Errorf("journal: ledger %s: sampling ratio %v outside (0, 1]", label, q)
	}
	eps := dp.Accountant{Q: q, Noise: noise}.Epsilon(steps, delta)
	return l.charge(Entry{
		Label: label, Kind: "dp_sgd", Group: group,
		Q: q, Noise: noise, Steps: steps,
		Epsilon: eps, Delta: delta,
	})
}

// ChargeSGDLots is ChargeSGD for epoch-wise training whose final minibatch
// per epoch is smaller than the rest: steps full lots at sampling ratio q
// plus tailSteps partial lots at tailQ, each accounted at its true ratio.
// tailSteps == 0 degenerates to ChargeSGD exactly.
func (l *Ledger) ChargeSGDLots(label, group string, noise float64, steps int, q float64, tailSteps int, tailQ, delta float64) error {
	if l == nil {
		return nil
	}
	if q <= 0 || q > 1 {
		return fmt.Errorf("journal: ledger %s: sampling ratio %v outside (0, 1]", label, q)
	}
	if tailSteps > 0 && (tailQ <= 0 || tailQ > 1) {
		return fmt.Errorf("journal: ledger %s: tail sampling ratio %v outside (0, 1]", label, tailQ)
	}
	if tailSteps == 0 {
		tailQ = 0
	}
	eps := dp.EpsilonForLots(noise, steps, q, tailSteps, tailQ, delta)
	return l.charge(Entry{
		Label: label, Kind: "dp_sgd", Group: group,
		Q: q, Noise: noise, Steps: steps,
		TailQ: tailQ, TailSteps: tailSteps,
		Epsilon: eps, Delta: delta,
	})
}

// Restore refills the ledger with entries recovered from a resumed run's
// journal prefix, without re-journaling or budget-checking them: they were
// checked and journaled before the crash, and the surviving prefix is the
// record. Call once, before any new charges.
func (l *Ledger) Restore(entries []Entry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries = append(append([]Entry(nil), entries...), l.entries...)
	l.mu.Unlock()
}

// ChargeLaplace registers a scalar Laplace release of the given ε.
func (l *Ledger) ChargeLaplace(label string, epsilon float64) error {
	if l == nil {
		return nil
	}
	return l.charge(Entry{Label: label, Kind: "laplace", Epsilon: epsilon})
}

// BudgetData is the payload of a budget enforcement event.
type BudgetData struct {
	Action    string  `json:"action"` // "warn" or "abort"
	Label     string  `json:"label"`
	Projected float64 `json:"projected_epsilon"`
	Budget    float64 `json:"budget_epsilon"`
}

func (l *Ledger) charge(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.budget > 0 {
		projected, _ := Compose(append(append([]Entry(nil), l.entries...), e))
		if projected > l.budget {
			action := "warn"
			if l.mode == BudgetAbort {
				action = "abort"
			}
			l.journal.emit("budget", BudgetData{
				Action: action, Label: e.Label,
				Projected: projected, Budget: l.budget,
			}, 0)
			if l.mode == BudgetAbort {
				return fmt.Errorf("journal: charging %s (ε=%.6g) would raise the composed ε to %.6g, over the %.6g budget: %w",
					e.Label, e.Epsilon, projected, l.budget, ErrBudgetExceeded)
			}
		}
	}
	l.entries = append(l.entries, e)
	l.journal.emit("ledger_charge", e, 0)
	return nil
}

// Entries returns a copy of everything charged so far.
func (l *Ledger) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// Total returns the composed (ε, δ) of everything charged so far.
func (l *Ledger) Total() (epsilon, delta float64) {
	return Compose(l.Entries())
}

// TotalData is the payload of the ledger_total event.
type TotalData struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Entries int     `json:"entries"`
}

// Finish journals the composed total — call once, at the end of the run —
// and returns it.
func (l *Ledger) Finish() (epsilon, delta float64) {
	if l == nil {
		return 0, 0
	}
	entries := l.Entries()
	epsilon, delta = Compose(entries)
	l.mu.Lock()
	j := l.journal
	l.mu.Unlock()
	j.emit("ledger_total", TotalData{Epsilon: epsilon, Delta: delta, Entries: len(entries)}, 0)
	return epsilon, delta
}

// Summary converts the ledger into the run-report form.
func (l *Ledger) Summary() *telemetry.LedgerSummary {
	if l == nil {
		return nil
	}
	entries := l.Entries()
	eps, delta := Compose(entries)
	s := &telemetry.LedgerSummary{Epsilon: eps, Delta: delta}
	for _, e := range entries {
		s.Charges = append(s.Charges, telemetry.LedgerCharge{
			Label: e.Label, Kind: e.Kind, Group: e.Group,
			Epsilon: e.Epsilon, Delta: e.Delta,
		})
	}
	return s
}

// Compose returns the composed (ε, δ) over a set of entries. Entries
// sharing a non-empty Group were produced on disjoint data partitions and
// compose in parallel (max ε, max δ within the group — e.g. the
// transformer bank's per-bucket models); across groups and for ungrouped
// entries, basic sequential composition applies (ε and δ both add —
// conservative but always valid).
func Compose(entries []Entry) (epsilon, delta float64) {
	type groupMax struct{ eps, delta float64 }
	groups := make(map[string]*groupMax)
	order := []string{} // deterministic iteration is irrelevant for sums, but cheap
	for _, e := range entries {
		if e.Group == "" {
			epsilon += e.Epsilon
			delta += e.Delta
			continue
		}
		g := groups[e.Group]
		if g == nil {
			g = &groupMax{}
			groups[e.Group] = g
			order = append(order, e.Group)
		}
		if e.Epsilon > g.eps {
			g.eps = e.Epsilon
		}
		if e.Delta > g.delta {
			g.delta = e.Delta
		}
	}
	for _, name := range order {
		epsilon += groups[name].eps
		delta += groups[name].delta
	}
	return epsilon, delta
}
