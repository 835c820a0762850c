package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"serd/internal/telemetry"
)

// emitRun drives a bus+tracer through a small synthetic pipeline shape —
// two sequential stages, the second fanned over two workers — and exports
// it, returning the -trace path (the Chrome .json).
func emitRun(t *testing.T, dir string, slow bool) string {
	t.Helper()
	bus := telemetry.NewBus(1024)
	tr := New(bus)
	path := filepath.Join(dir, "run.json")
	exp, err := NewExporter(bus, path, Header{RunID: "abc123", Tool: "serd", Dataset: "Restaurant", Seed: 7, StartNS: time.Now().UnixNano()})
	if err != nil {
		t.Fatal(err)
	}

	nap := time.Millisecond
	if slow {
		nap = 5 * time.Millisecond
	}
	s1 := tr.StartPhase("core.s1")
	it := tr.Child("gmm.em.iter", Int("iter", 0))
	time.Sleep(nap)
	it.End(Float("loglik", -12.5))
	s1.End()

	s2 := tr.StartPhase("core.s2")
	for w := 0; w < 2; w++ {
		c := tr.Child("core.s2.chunk", Int("worker", w), Int("lo", w*50), Int("hi", (w+1)*50))
		time.Sleep(nap)
		c.End()
	}
	s2.End()

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExporterRoundTrip(t *testing.T) {
	path := emitRun(t, t.TempDir(), false)
	chromePath, jsonlPath := Paths(path)

	// The compact stream loads back into the same tree.
	tr, err := Load(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.RunID != "abc123" || tr.Header.Tool != "serd" || tr.Header.Seed != 7 {
		t.Errorf("header = %+v", tr.Header)
	}
	if len(tr.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 stages", len(tr.Roots))
	}
	if tr.Roots[0].Name != "core.s1" || tr.Roots[1].Name != "core.s2" {
		t.Errorf("root order = %s, %s", tr.Roots[0].Name, tr.Roots[1].Name)
	}
	if n := len(tr.Roots[1].Children); n != 2 {
		t.Errorf("s2 children = %d, want 2 chunks", n)
	}
	if tr.Events == 0 || tr.Dropped != 0 {
		t.Errorf("footer: events=%d dropped=%d", tr.Events, tr.Dropped)
	}
	for _, s := range tr.ByID {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	// Passing the Chrome .json path transparently loads the sibling
	// .jsonl; without the sibling, the Chrome file itself is rejected
	// with an explanation instead of being silently misparsed.
	if _, err := Load(chromePath); err != nil {
		t.Errorf("Chrome path should load the sibling .jsonl: %v", err)
	}
	if err := os.Rename(jsonlPath, jsonlPath+".gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(chromePath); err == nil || !strings.Contains(err.Error(), "Chrome-format") {
		t.Errorf("loading the Chrome file should explain itself, got %v", err)
	}
	if err := os.Rename(jsonlPath+".gone", jsonlPath); err != nil {
		t.Fatal(err)
	}

	// The Chrome export (rewrite it) is valid JSON in trace-event shape.
	path2 := emitRun(t, t.TempDir(), false)
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if chrome.Metadata["run"] != "abc123" {
		t.Errorf("chrome metadata = %v", chrome.Metadata)
	}
	var sawProcessName, sawWorkerTrack, sawComplete bool
	for _, ev := range chrome.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			sawProcessName = true
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.TID == 2:
			sawWorkerTrack = true // worker 1 renders on tid 2
		case ev.Ph == "X":
			sawComplete = true
		}
	}
	if !sawProcessName || !sawWorkerTrack || !sawComplete {
		t.Errorf("chrome export missing events: process=%v worker=%v complete=%v",
			sawProcessName, sawWorkerTrack, sawComplete)
	}
}

func TestSummarizeAndCriticalPath(t *testing.T) {
	path := emitRun(t, t.TempDir(), false)
	_, jsonlPath := Paths(path)
	tr, err := Load(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}

	s := Summarize(tr)
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %+v", s.Stages)
	}
	// The two stages are strictly sequential and cover the whole tree, so
	// coverage must be essentially total.
	if s.Coverage < 0.95 || s.Coverage > 1.0001 {
		t.Errorf("coverage = %v", s.Coverage)
	}
	if s.Stages[0].Name != "core.s1" || len(s.Stages[0].Children) != 1 || s.Stages[0].Children[0].Name != "gmm.em.iter" {
		t.Errorf("s1 summary = %+v", s.Stages[0])
	}
	if len(s.Workers) != 2 || s.Workers[0].Worker != "0" || s.Workers[1].Spans != 1 {
		t.Errorf("workers = %+v", s.Workers)
	}

	cp := FindCriticalPath(tr)
	if len(cp.Steps) != 2 {
		t.Fatalf("critical path = %+v", cp)
	}
	if cp.Coverage < 0.95 {
		t.Errorf("critical-path coverage = %v", cp.Coverage)
	}
	if !strings.HasPrefix(cp.Steps[1].Detail, "core.s2.chunk worker ") {
		t.Errorf("s2 dominant track = %q", cp.Steps[1].Detail)
	}
	if cp.Steps[1].DetailSeconds <= 0 || cp.Steps[1].DetailSeconds > cp.Steps[1].Seconds*1.5 {
		t.Errorf("dominant track seconds = %v vs stage %v", cp.Steps[1].DetailSeconds, cp.Steps[1].Seconds)
	}
}

func TestDiffTraces(t *testing.T) {
	base, err := Load(mustJSONL(t, emitRun(t, t.TempDir(), false)))
	if err != nil {
		t.Fatal(err)
	}
	other, err := Load(mustJSONL(t, emitRun(t, t.TempDir(), true)))
	if err != nil {
		t.Fatal(err)
	}

	d := DiffTraces(base, other)
	if d.Delta <= 0 {
		t.Fatalf("slow run should be slower: %+v", d)
	}
	if len(d.Stages) != 2 {
		t.Fatalf("diff stages = %+v", d.Stages)
	}
	// Sorted by |delta| descending; s2 holds two slow chunks vs s1's one
	// iteration, so it must lead.
	if d.Stages[0].Key != "core.s2" {
		t.Errorf("largest delta = %+v", d.Stages[0])
	}
	if d.Stages[0].Delta <= 0 || d.Stages[0].Share <= 0 {
		t.Errorf("s2 row = %+v", d.Stages[0])
	}
	var chunkRow *DiffRow
	for i := range d.Children {
		if d.Children[i].Key == "core.s2/core.s2.chunk" {
			chunkRow = &d.Children[i]
		}
	}
	if chunkRow == nil || chunkRow.Delta <= 0 {
		t.Errorf("chunk group missing or wrong: %+v", d.Children)
	}
}

// TestLoadTruncatedTrace simulates a crashed run: no footer, an unended
// phase. The loader must still produce a usable tree.
func TestLoadTruncatedTrace(t *testing.T) {
	lines := []string{
		`{"k":"h","run":"dead","tool":"serd","seed":1,"start":1000}`,
		`{"k":"ps","id":1,"name":"core.s1","t":1000}`,
		`{"k":"ps","id":2,"par":1,"name":"core.s1.fit","t":2000}`,
		`{"k":"s","id":3,"par":2,"name":"gmm.em.iter","t":2500,"dur":500}`,
	}
	path := filepath.Join(t.TempDir(), "dead.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events != 0 {
		t.Errorf("truncated trace claims a footer: %+v", tr)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "core.s1" {
		t.Fatalf("roots = %+v", tr.Roots)
	}
	// Unended phases truncate at the last observed timestamp (2500).
	if got := tr.Roots[0].EndNS; got != 2500 {
		t.Errorf("unended root EndNS = %d, want 2500", got)
	}
	fit := tr.Roots[0].Children[0]
	if fit.Name != "core.s1.fit" || fit.EndNS != 2500 || len(fit.Children) != 1 {
		t.Errorf("fit span = %+v", fit)
	}

	if _, err := Load(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, []byte(`{"k":"h","seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Errorf("span-less trace: %v", err)
	}
}

// TestLoadTornTailAndEmpty covers the mid-record truncation cases: a
// tail record cut mid-write is skipped (Truncated set), a torn record
// mid-file is corruption and errors, and an empty file explains itself.
func TestLoadTornTailAndEmpty(t *testing.T) {
	good := []string{
		`{"k":"h","run":"dead","tool":"serd","seed":1,"start":1000}`,
		`{"k":"ps","id":1,"name":"core.s1","t":1000}`,
		`{"k":"pe","id":1,"t":2000,"dur":1000}`,
	}

	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, []byte(strings.Join(good, "\n")+"\n"+`{"k":"ps","id":2,"name":"core.`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(torn)
	if err != nil {
		t.Fatalf("torn tail should load: %v", err)
	}
	if !tr.Truncated {
		t.Error("Truncated flag not set on torn tail")
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "core.s1" {
		t.Errorf("intact prefix lost: %+v", tr.Roots)
	}

	// The same torn record anywhere but the tail is corruption.
	mid := filepath.Join(t.TempDir(), "mid.jsonl")
	body := good[0] + "\n" + `{"k":"ps","id":1,"name":"core.` + "\n" + good[2] + "\n"
	if err := os.WriteFile(mid, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(mid); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption: %v", err)
	}

	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil || !strings.Contains(err.Error(), "is empty") {
		t.Errorf("empty trace: %v", err)
	}
	blank := filepath.Join(t.TempDir(), "blank.jsonl")
	if err := os.WriteFile(blank, []byte("\n\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(blank); err == nil || !strings.Contains(err.Error(), "is empty") {
		t.Errorf("blank-lines trace: %v", err)
	}

	// A complete, healthy trace must not be flagged.
	ok := filepath.Join(t.TempDir(), "ok.jsonl")
	if err := os.WriteFile(ok, []byte(strings.Join(good, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err := Load(ok); err != nil || tr.Truncated {
		t.Errorf("healthy trace: err=%v truncated=%v", err, tr != nil && tr.Truncated)
	}
}

func mustJSONL(t *testing.T, chromePath string) string {
	t.Helper()
	_, jsonl := Paths(chromePath)
	return jsonl
}
