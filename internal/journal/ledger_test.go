package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"serd/internal/dp"
)

func TestComposeSequentialAndParallel(t *testing.T) {
	entries := []Entry{
		{Label: "a", Kind: "laplace", Epsilon: 0.5},
		{Label: "b", Kind: "gaussian", Epsilon: 0.25, Delta: 1e-6},
		{Label: "bk0", Kind: "dp_sgd", Group: "bank", Epsilon: 1.0, Delta: 1e-5},
		{Label: "bk1", Kind: "dp_sgd", Group: "bank", Epsilon: 3.0, Delta: 1e-5},
		{Label: "bk2", Kind: "dp_sgd", Group: "bank", Epsilon: 2.0, Delta: 1e-5},
	}
	eps, delta := Compose(entries)
	// Ungrouped sum (0.75) + the bank group's max (3.0).
	if want := 3.75; math.Abs(eps-want) > 1e-12 {
		t.Errorf("ε = %v, want %v", eps, want)
	}
	if want := 1e-6 + 1e-5; math.Abs(delta-want) > 1e-18 {
		t.Errorf("δ = %v, want %v", delta, want)
	}
	if eps, delta := Compose(nil); eps != 0 || delta != 0 {
		t.Errorf("empty composition = (%v, %v)", eps, delta)
	}
}

func TestChargeSGDMatchesAccountant(t *testing.T) {
	l := NewLedger(nil)
	if err := l.ChargeSGD("m", "", 0.1, 1.2, 300, 1e-5); err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	if len(entries) != 1 {
		t.Fatalf("got %d entries", len(entries))
	}
	want := dp.Accountant{Q: 0.1, Noise: 1.2}.Epsilon(300, 1e-5)
	if e := entries[0]; e.Epsilon != want {
		t.Errorf("recorded ε = %v, accountant says %v", e.Epsilon, want)
	}
	if got := entries[0].Recompute(); math.Abs(got-want) > 1e-15 {
		t.Errorf("Recompute = %v, want %v", got, want)
	}
	if err := l.ChargeSGD("bad", "", 0, 1.2, 10, 1e-5); err == nil {
		t.Error("q=0 accepted")
	}
	if err := l.ChargeSGD("bad", "", 1.5, 1.2, 10, 1e-5); err == nil {
		t.Error("q>1 accepted")
	}
}

func TestBudgetAbort(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	l := NewLedger(j)
	l.SetBudget(1.0, BudgetAbort)
	if err := l.ChargeLaplace("first", 0.6); err != nil {
		t.Fatalf("first charge within budget: %v", err)
	}
	err := l.ChargeLaplace("second", 0.6)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget charge: err = %v, want ErrBudgetExceeded", err)
	}
	// The rejected expenditure must NOT be recorded.
	if n := len(l.Entries()); n != 1 {
		t.Errorf("entries after abort = %d, want 1", n)
	}
	if eps, _ := l.Total(); eps != 0.6 {
		t.Errorf("total after abort = %v, want 0.6", eps)
	}
	// The enforcement decision is journaled.
	events, perr := Parse(buf.Bytes())
	if perr != nil {
		t.Fatal(perr)
	}
	var budget *BudgetData
	for _, ev := range events {
		if ev.Type == "budget" {
			budget = &BudgetData{}
			if err := json.Unmarshal(ev.Data, budget); err != nil {
				t.Fatal(err)
			}
		}
	}
	if budget == nil {
		t.Fatal("no budget event journaled")
	}
	if budget.Action != "abort" || budget.Label != "second" {
		t.Errorf("budget event = %+v", budget)
	}
	if math.Abs(budget.Projected-1.2) > 1e-12 || budget.Budget != 1.0 {
		t.Errorf("budget event ε fields = %+v", budget)
	}
}

func TestBudgetWarn(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	l := NewLedger(j)
	l.SetBudget(1.0, BudgetWarn)
	if err := l.ChargeLaplace("first", 0.6); err != nil {
		t.Fatal(err)
	}
	if err := l.ChargeLaplace("second", 0.6); err != nil {
		t.Fatalf("warn mode must not abort: %v", err)
	}
	if n := len(l.Entries()); n != 2 {
		t.Errorf("entries = %d, want 2 (warn records the charge)", n)
	}
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	warned := false
	for _, ev := range events {
		if ev.Type == "budget" {
			var d BudgetData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatal(err)
			}
			warned = d.Action == "warn"
		}
	}
	if !warned {
		t.Error("no warn budget event journaled")
	}
}

func TestFinishAndSummary(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	l := NewLedger(j)
	if err := l.ChargeSGD("bk0", "bank", 0.25, 1.1, 12, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l.ChargeSGD("release", "", 0.3, 1.5, 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	eps, delta := l.Finish()
	wantEps, wantDelta := Compose(l.Entries())
	if eps != wantEps || delta != wantDelta {
		t.Errorf("Finish = (%v, %v), Compose = (%v, %v)", eps, delta, wantEps, wantDelta)
	}
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Type != "ledger_total" {
		t.Fatalf("last event = %s, want ledger_total", last.Type)
	}
	var tot TotalData
	if err := json.Unmarshal(last.Data, &tot); err != nil {
		t.Fatal(err)
	}
	if tot.Epsilon != eps || tot.Entries != 2 {
		t.Errorf("ledger_total = %+v", tot)
	}
	s := l.Summary()
	if s == nil || s.Epsilon != eps || s.Delta != delta || len(s.Charges) != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Charges[0].Label != "bk0" || s.Charges[0].Group != "bank" {
		t.Errorf("Summary charge = %+v", s.Charges[0])
	}
}
