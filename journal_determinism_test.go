package serd_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serd"
)

// TestJournaledSynthesisDeterministic extends the determinism guarantee to
// the provenance layer: two same-seed journaled runs must produce (a)
// datasets byte-identical to an unjournaled run — journaling never touches
// the RNG stream — and (b) journals byte-identical once the two documented
// volatile fields are stripped, including every chain hash.
func TestJournaledSynthesisDeterministic(t *testing.T) {
	base := t.TempDir()
	dirPlain := filepath.Join(base, "plain")
	dirJ1 := filepath.Join(base, "j1")
	dirJ2 := filepath.Join(base, "j2")

	synthesizeTo(t, dirPlain, nil)
	journal1 := synthesizeRow(t, dirJ1, invarianceRow{})
	journal2 := synthesizeRow(t, dirJ2, invarianceRow{})

	want := readDataset(t, dirPlain)
	for _, dir := range []string{dirJ1, dirJ2} {
		got := readDataset(t, dir)
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s/%s differs from the unjournaled run: journaling perturbed the RNG stream", filepath.Base(dir), name)
			}
		}
	}

	n1, n2 := stripVolatile(t, journal1), stripVolatile(t, journal2)
	if n1 != n2 {
		t.Errorf("same-seed journals differ beyond ts/dur_s:\n%s\n---- vs ----\n%s", n1, n2)
	}
	if !strings.Contains(n1, `"type":"ledger_charge"`) || !strings.Contains(n1, `"type":"phase_end"`) {
		t.Errorf("journal missing expected event types:\n%s", n1)
	}

	// The chain is part of the determinism contract: identical payloads
	// must chain identically across runs.
	ev1, err := parseEvents(journal1)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := parseEvents(journal2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].Chain != ev2[i].Chain {
			t.Errorf("chain hash %d differs between same-seed runs", i)
		}
	}
}

func parseEvents(data []byte) ([]serd.JournalEvent, error) {
	var events []serd.JournalEvent
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev serd.JournalEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// TestJournalFileRoundTripFromLibrary drives the public journal surface
// end to end: create on disk, record a run, read back, verify.
func TestJournalFileRoundTripFromLibrary(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	jPath := filepath.Join(dir, "journal.jsonl")

	g, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 3, SizeA: 30, SizeB: 30, Matches: 10})
	if err != nil {
		t.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(g)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := serd.CreateJournal(jPath)
	if err != nil {
		t.Fatal(err)
	}
	jr.RunStart("test", 9, nil)
	res, err := serd.Synthesize(g.ER, serd.Options{Synthesizers: synths, Seed: 9, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if err := serd.SaveDataset(out, res.Syn); err != nil {
		t.Fatal(err)
	}
	if err := jr.Lineage("output", out); err != nil {
		t.Fatal(err)
	}
	jr.RunEnd("done", "", nil, 1)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(jPath); err != nil {
		t.Fatal(err)
	}

	vr, err := serd.AuditVerify(jPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() {
		t.Fatalf("library round trip failed verify: %v", vr.Problems)
	}
	events, err := serd.ReadJournal(jPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := serd.SummarizeJournal(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Synthesis == nil || len(sum.GenFits) != 2 || len(sum.Lineage) != 1 {
		t.Errorf("summary = synthesis %v, %d generator fits, %d lineage", sum.Synthesis, len(sum.GenFits), len(sum.Lineage))
	}
}
