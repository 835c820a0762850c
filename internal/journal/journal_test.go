package journal

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fixedClock returns a deterministic now func advancing 1s per call.
func fixedClock() func() time.Time {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func sampleRun(j *Journal) {
	j.RunStart("test", 42, map[string]string{"in": "x", "out": "y"})
	j.PhaseStart("core.s1")
	j.GeneratorFit(GeneratorFitData{Backend: "gmm", Name: "s1.match", Dim: 3, Samples: 100, Detail: "components=2 loglik=-12.5"})
	j.PhaseEnd("core.s1", 1.25)
	j.EpsilonCheckpoint("dp.sgd", 0.8, 1e-5)
	j.Synthesis(SynthesisData{Entities: 40, Matches: 10, SampledMatches: 12, JSD: 0.03})
	j.RunEnd(StatusDone, "", map[string]float64{"jsd": 0.03}, 9.9)
}

func TestChainRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	j.now = fixedClock()
	sampleRun(j)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	if i := VerifyChain(events); i != -1 {
		t.Fatalf("VerifyChain broke at %d on an untampered journal", i)
	}
	if events[0].Type != "run_start" || events[len(events)-1].Type != "run_end" {
		t.Errorf("unexpected event bracket: %s … %s", events[0].Type, events[len(events)-1].Type)
	}
	// Volatile fields present but outside the chain.
	if events[3].DurS != 1.25 {
		t.Errorf("phase_end dur_s = %v, want 1.25", events[3].DurS)
	}
	if events[0].TS == "" {
		t.Error("ts missing")
	}
}

func TestVerifyChainDetectsTampering(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	j.now = fixedClock()
	sampleRun(j)
	pristine, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("payload edit", func(t *testing.T) {
		events := append([]Event(nil), pristine...)
		events[2].Data = json.RawMessage(strings.Replace(string(events[2].Data), `"samples":100`, `"samples":99`, 1))
		if i := VerifyChain(events); i != 2 {
			t.Errorf("VerifyChain = %d, want 2", i)
		}
	})
	t.Run("dropped line", func(t *testing.T) {
		events := append(append([]Event(nil), pristine[:2]...), pristine[3:]...)
		if i := VerifyChain(events); i != 2 {
			t.Errorf("VerifyChain = %d, want 2", i)
		}
	})
	t.Run("volatile ts edit passes", func(t *testing.T) {
		events := append([]Event(nil), pristine...)
		events[4].TS = "1999-01-01T00:00:00Z"
		events[4].DurS = 77
		if i := VerifyChain(events); i != -1 {
			t.Errorf("VerifyChain = %d on a timestamp-only edit, want -1", i)
		}
	})
}

// TestDeterministicModuloTimestamps is the journal half of the repo's
// determinism guarantee: two same-seed runs differ only in ts/dur_s.
func TestDeterministicModuloTimestamps(t *testing.T) {
	emit := func(clockSkew time.Duration) []byte {
		var buf bytes.Buffer
		j := New(&buf)
		base := fixedClock()
		j.now = func() time.Time { return base().Add(clockSkew) }
		sampleRun(j)
		return buf.Bytes()
	}
	a, b := emit(0), emit(3*time.Hour)
	if bytes.Equal(a, b) {
		t.Fatal("clock skew did not change the raw bytes; ts is not being written")
	}
	if na, nb := normalizeJournal(t, a), normalizeJournal(t, b); na != nb {
		t.Errorf("journals differ beyond volatile fields:\n%s\n----\n%s", na, nb)
	}
}

// normalizeJournal strips the volatile ts/dur_s fields and re-marshals.
func normalizeJournal(t *testing.T, data []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		delete(m, "ts")
		delete(m, "dur_s")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	sampleRun(j) // all emitters must be no-ops
	j.Config("x", nil)
	j.PhaseStart("p")
	logger := slog.New(j.Handler(slog.LevelInfo))
	logger.Info("into the void", "k", "v")
	var l *Ledger
	if err := l.ChargeSGD("x", "", 0.5, 1.1, 10, 1e-5); err != nil {
		t.Errorf("nil ledger ChargeSGD: %v", err)
	}
	l.SetBudget(1, BudgetAbort)
	l.Finish()
	if s := l.Summary(); s != nil {
		t.Errorf("nil ledger Summary = %v, want nil", s)
	}
}

func TestSlogHandler(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	j.now = fixedClock()
	logger := slog.New(j.Handler(slog.LevelInfo))
	logger.Debug("dropped")
	logger.With("run", "r1").WithGroup("s2").Info("rejected", "count", 3)
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 (debug below level)", len(events))
	}
	var d LogData
	if err := json.Unmarshal(events[0].Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Level != "INFO" || d.Msg != "rejected" {
		t.Errorf("got %+v", d)
	}
	if d.Attrs["run"] != "r1" {
		t.Errorf("With attr lost: %v", d.Attrs)
	}
	if v, ok := d.Attrs["s2.count"]; !ok || v != float64(3) {
		t.Errorf("group-prefixed attr = %v (%v)", v, d.Attrs)
	}
	if i := VerifyChain(events); i != -1 {
		t.Errorf("log events broke the chain at %d", i)
	}
}

func TestJournalConcurrency(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				j.PhaseStart("p")
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 200 {
		t.Fatalf("got %d events, want 200", len(events))
	}
	if i := VerifyChain(events); i != -1 {
		t.Errorf("concurrent writes broke the chain at %d", i)
	}
}

// TestFirstChainHash pins the run-registry identity contract: First is
// the first event's chain hash, stable across later appends, and a
// resumed journal keeps the id of the run it replays.
func TestFirstChainHash(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf)
	j.now = fixedClock()
	if j.First() != "" {
		t.Fatal("First non-empty before any event")
	}
	j.RunStart("serd", 7, map[string]string{"size_a": "10"})
	first := j.First()
	if first == "" {
		t.Fatal("First empty after run_start")
	}
	j.PhaseStart("core.s1")
	j.PhaseEnd("core.s1", 0.5)
	if j.First() != first {
		t.Fatal("First drifted across appends")
	}
	j.RunEnd(StatusDone, "", nil, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Chain != first {
		t.Fatalf("First = %s, events[0].Chain = %s", first, events[0].Chain)
	}
	var nilJ *Journal
	if nilJ.First() != "" {
		t.Fatal("nil Journal First should be empty")
	}
}

// TestFirstSurvivesResume: a resumed journal re-derives First from the
// verified prefix, so the run keeps its registry id across a crash.
func TestFirstSurvivesResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.RunStart("serd", 7, nil)
	first := j.First()
	j.PhaseStart("core.s1")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	seq, chain, offset := j.Seam()
	j.Close()

	r, err := Resume(path, seq, chain, offset)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.First() != first {
		t.Fatalf("resumed First = %s, want %s", r.First(), first)
	}
}
