package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"serd/internal/journal"
	"serd/internal/runstore"
	"serd/internal/telemetry"
)

func httpGetAccept(t *testing.T, url, accept string) string {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// interruptSelf delivers SIGINT to the test process — the same signal
// Ctrl-C sends — so blocking serve loops unwind through their signal
// context.
func interruptSelf(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-interrupt: %v", err)
	}
}

// synthArgs builds a minimal registered serd run over the sample input.
func synthArgs(inDir, outDir, storeDir string, seed int64) []string {
	return []string{
		"-in", inDir, "-out", outDir,
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", fmt.Sprint(seed),
		"-run-store", storeDir,
		"-no-report",
	}
}

// TestRunsEndToEnd drives the full cross-run story in process: two
// registered runs, list, show, compare (hold and regress), gc.
func TestRunsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)

	var out bytes.Buffer
	if err := run(synthArgs(inDir, filepath.Join(dir, "outA"), storeDir, 7), &out); err != nil {
		t.Fatalf("run A: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "run registered: ") {
		t.Fatalf("run A did not announce registration:\n%s", out.String())
	}

	// A slower twin: twenty times the input and ten times the entities,
	// so every stage — S1's fit included — does real extra work that
	// lands in the journaled phase durations the registry distills, far
	// beyond the timing noise of a race-instrumented run. At this seed
	// and size its jsd is no better than run A's (which synthesizes too
	// few entities to estimate O_syn and reports 0), so the reverse
	// compare below stays an improvement on every axis.
	out.Reset()
	inB := filepath.Join(dir, "inB")
	writeSampleInputSized(t, inB, 600, 200)
	bArgs := append(synthArgs(inB, filepath.Join(dir, "outB"), storeDir, 8), "-size-a", "300", "-size-b", "300")
	if err := run(bArgs, &out); err != nil {
		t.Fatalf("run B: %v\n%s", err, out.String())
	}

	// list: both runs, oldest first; -q emits bare ids for scripting.
	out.Reset()
	if err := run([]string{"runs", "list", "-store", storeDir}, &out); err != nil {
		t.Fatalf("runs list: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "serd") || !strings.Contains(out.String(), "done") {
		t.Fatalf("runs list output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"runs", "list", "-store", storeDir, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(out.String())
	if len(ids) != 2 {
		t.Fatalf("runs list -q = %q, want 2 ids", ids)
	}
	idA, idB := ids[0], ids[1]

	// Tool filter excludes everything here but the status filter keeps both.
	out.Reset()
	if err := run([]string{"runs", "list", "-store", storeDir, "-tool", "datagen", "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Fatalf("tool filter leaked: %q", out.String())
	}

	// show: full entry by unique prefix, stages and lineage included.
	out.Reset()
	if err := run([]string{"runs", "show", "-store", storeDir, idA[:12]}, &out); err != nil {
		t.Fatalf("runs show: %v\n%s", err, out.String())
	}
	for _, want := range []string{"run " + idA, "core.s2", "stages:", "lineage:", "seed 7"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("runs show missing %q:\n%s", want, out.String())
		}
	}

	// compare a run against itself: every axis holds, exit is clean.
	out.Reset()
	if err := run([]string{"runs", "compare", "-store", storeDir, idA, idA}, &out); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("self-compare output:\n%s", out.String())
	}

	// compare fast vs slower: the per-stage wall growth must trip the gate
	// and surface as the sentinel the CLI maps to exit code 3.
	out.Reset()
	err := run([]string{"runs", "compare", "-store", storeDir, idA, idB}, &out)
	if !errors.Is(err, runstore.ErrRegression) {
		t.Fatalf("slowed compare err = %v, want ErrRegression\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSIONS:") {
		t.Fatalf("slowed compare output:\n%s", out.String())
	}

	// The reverse direction (slow -> fast) is an improvement and holds.
	out.Reset()
	if err := run([]string{"runs", "compare", "-store", storeDir, idB, idA}, &out); err != nil {
		t.Fatalf("improvement compare: %v\n%s", err, out.String())
	}

	// burn-down: these runs spent no ε (rule synthesizer, no audit).
	out.Reset()
	if err := run([]string{"runs", "burn-down", "-store", storeDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no ε spent") {
		t.Fatalf("burn-down output:\n%s", out.String())
	}

	// gc to one entry: the newest (B) survives.
	out.Reset()
	if err := run([]string{"runs", "gc", "-store", storeDir, "-keep", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "removed 1") {
		t.Fatalf("gc output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"runs", "list", "-store", storeDir, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != idB {
		t.Fatalf("after gc kept %q, want newest %q", got, idB)
	}
}

// TestRunsSurfaceGeneratorBackend pins satellite visibility for S1
// backends: `runs show` names the backend for both the default stack and
// an explicit -s1-generator run, and a cross-backend `runs compare`
// leads with the backend pair plus the s1_generator config delta so the
// ε gate it trips reads as a deliberate trade-off, not silent drift.
func TestRunsSurfaceGeneratorBackend(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)

	var out bytes.Buffer
	if err := run(synthArgs(inDir, filepath.Join(dir, "outGMM"), storeDir, 7), &out); err != nil {
		t.Fatalf("gmm run: %v\n%s", err, out.String())
	}
	out.Reset()
	pbArgs := append(synthArgs(inDir, filepath.Join(dir, "outPB"), storeDir, 7),
		"-s1-generator", "privbayes", "-gen-epsilon", "2")
	if err := run(pbArgs, &out); err != nil {
		t.Fatalf("privbayes run: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := run([]string{"runs", "list", "-store", storeDir, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(out.String())
	if len(ids) != 2 {
		t.Fatalf("runs list -q = %q, want 2 ids", ids)
	}
	idGMM, idPB := ids[0], ids[1]

	out.Reset()
	if err := run([]string{"runs", "show", "-store", storeDir, idGMM}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "generator gmm") {
		t.Errorf("runs show (default) missing the gmm backend:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"runs", "show", "-store", storeDir, idPB}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"generator privbayes", "group s1.privbayes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("runs show (privbayes) missing %q:\n%s", want, out.String())
		}
	}

	// Cross-backend compare: privbayes spends ε the gmm run never did, so
	// the ε axis regresses by design — the output must say WHY up front.
	out.Reset()
	err := run([]string{"runs", "compare", "-store", storeDir, idGMM, idPB}, &out)
	if !errors.Is(err, runstore.ErrRegression) {
		t.Fatalf("cross-backend compare err = %v, want ErrRegression\n%s", err, out.String())
	}
	for _, want := range []string{"generator: gmm -> privbayes", "s1_generator"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("cross-backend compare missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunsRunIDIsJournalFirstChain pins the content-addressing contract:
// the registered id equals the journal's first chain hash and re-running
// the identical config re-registers under the same id.
func TestRunsRunIDIsJournalFirstChain(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)

	outDir := filepath.Join(dir, "out")
	var out bytes.Buffer
	if err := run(synthArgs(inDir, outDir, storeDir, 7), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	events, err := journal.Read(filepath.Join(outDir, journal.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	s, err := runstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("List = %d entries, %v", len(entries), err)
	}
	if entries[0].RunID != events[0].Chain {
		t.Fatalf("registered id %s != journal first chain %s", entries[0].RunID, events[0].Chain)
	}
	if entries[0].Artifacts.Journal == "" || entries[0].LineageSHA("output") == "" {
		t.Fatalf("entry missing artifacts/lineage: %+v", entries[0])
	}

	// Same config, fresh output dir: same journal prefix, same id —
	// re-registration overwrites instead of duplicating.
	out.Reset()
	if err := run(synthArgs(inDir, filepath.Join(dir, "out2"), storeDir, 7), &out); err != nil {
		t.Fatalf("rerun: %v\n%s", err, out.String())
	}
	entries, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		// The journaled config includes -out, so a different output dir
		// is a different run id; with identical -out it would collapse to
		// one. Either way no torn state: every entry loads.
		t.Logf("note: %d entries after rerun", len(entries))
	}
	for _, e := range entries {
		if e.Status == "" || e.RunID == "" {
			t.Fatalf("torn entry after rerun: %+v", e)
		}
	}
}

// TestRunsEntryCarriesSummary pins that a serd run's registry entry holds
// the run's summary, read back from the journal's run_end event — the
// jsd there is what `serd runs compare` gates fidelity drift on.
func TestRunsEntryCarriesSummary(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)
	var out bytes.Buffer
	if err := run(synthArgs(inDir, filepath.Join(dir, "out"), storeDir, 7), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	ids, err := filepath.Glob(filepath.Join(storeDir, "runs", "*.json"))
	if err != nil || len(ids) != 1 {
		t.Fatalf("registered entries = %v, %v; want one", ids, err)
	}
	raw, err := os.ReadFile(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Summary map[string]*float64 `json:"summary"`
	}
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jsd", "entities", "matches"} {
		if entry.Summary[key] == nil {
			t.Fatalf("%s: summary lacks %q: %s", filepath.Base(ids[0]), key, raw)
		}
	}
}

// TestRunsRecordOnlyWrittenReport pins that a registry entry points at
// a run report only when the run wrote one: a budget-aborted run writes
// none and registers none, a successful run registers the report it wrote.
func TestRunsRecordOnlyWrittenReport(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)
	s, err := runstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	entryFor := func(outDir string) runstore.Entry {
		t.Helper()
		events, err := journal.Read(filepath.Join(outDir, journal.DefaultName))
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.Get(events[0].Chain)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := []string{"-in", inDir, "-schema", "name:text,address:text,city:cat,flavor:cat", "-seed", "7", "-run-store", storeDir}

	aborted := filepath.Join(dir, "aborted")
	err = run(append(base, "-out", aborted,
		"-transformer", "-tx-buckets", "2", "-tx-pairs", "8", "-tx-epochs", "1", "-tx-batch", "4",
		"-epsilon-budget", "0.001"), io.Discard)
	if !errors.Is(err, journal.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if e := entryFor(aborted); e.Status != journal.StatusAborted || e.Artifacts.Report != "" {
		t.Errorf("aborted run registered status %q, report %q; want aborted and no report", e.Status, e.Artifacts.Report)
	}

	done := filepath.Join(dir, "done")
	if err := run(append(base, "-out", done), io.Discard); err != nil {
		t.Fatal(err)
	}
	e := entryFor(done)
	if want := filepath.Join(done, "run_report.json"); e.Status != journal.StatusDone || e.Artifacts.Report != want {
		t.Errorf("successful run registered status %q, report %q; want done and %q", e.Status, e.Artifacts.Report, want)
	}
	if _, err := os.Stat(e.Artifacts.Report); err != nil {
		t.Errorf("registered report is not on disk: %v", err)
	}
}

// TestRunsServe boots the standalone dashboard and checks JSON and HTML
// content negotiation on the same endpoint.
func TestRunsServe(t *testing.T) {
	dir := t.TempDir()
	inDir := filepath.Join(dir, "in")
	storeDir := filepath.Join(dir, "store")
	writeSampleInput(t, inDir)
	var out bytes.Buffer
	if err := run(synthArgs(inDir, filepath.Join(dir, "out"), storeDir, 7), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	oldHook := testHookRunsServing
	defer func() { testHookRunsServing = oldHook }()
	var gotJSON, gotHTML, gotRoot string
	testHookRunsServing = func(addr string) {
		gotJSON = httpGet(t, "http://"+addr+"/runs")
		gotHTML = httpGetAccept(t, "http://"+addr+"/runs", "text/html")
		gotRoot = httpGet(t, "http://"+addr+"/")
		// Serve blocks on signals; interrupt ourselves like Ctrl-C.
		interruptSelf(t)
	}
	if err := run([]string{"runs", "serve", "-store", storeDir, "-addr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatalf("runs serve: %v\n%s", err, out.String())
	}
	if !strings.Contains(gotJSON, `"run_id"`) || !strings.Contains(gotJSON, `"runs"`) {
		t.Errorf("dashboard JSON = %q", gotJSON)
	}
	if !strings.Contains(gotHTML, "<html") || !strings.Contains(gotHTML, "serd runs") {
		t.Errorf("dashboard HTML = %q", gotHTML)
	}
	if !strings.Contains(gotRoot, `"run_id"`) {
		t.Errorf("root redirect did not land on the list: %q", gotRoot)
	}
}

// TestRunsCLIErrors covers the friendly-failure surface.
func TestRunsCLIErrors(t *testing.T) {
	storeDir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"runs"}, &out); err == nil {
		t.Fatal("bare `serd runs` should fail with usage")
	}
	if !strings.Contains(out.String(), "usage: serd runs") {
		t.Fatalf("usage not printed:\n%s", out.String())
	}
	if err := run([]string{"runs", "bogus"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"runs", "show", "-store", storeDir}, &out); err == nil {
		t.Fatal("show without id accepted")
	}
	if err := run([]string{"runs", "show", "-store", storeDir, "ffffffffffff"}, &out); err == nil {
		t.Fatal("show of unknown id accepted")
	}
	if err := run([]string{"runs", "compare", "-store", storeDir, "one"}, &out); err == nil {
		t.Fatal("compare with one id accepted")
	}
	if err := run([]string{"runs", "list", "-store", "off"}, &out); err == nil {
		t.Fatal("-store off accepted by the CLI")
	}
}

func TestCompareConfigDiff(t *testing.T) {
	a := map[string]string{"seed": "1"}
	diff := configDiff(a, map[string]string{"seed": "2", "workers": "4"})
	if diff["seed"] != [2]string{"1", "2"} {
		t.Fatalf("seed diff = %v", diff["seed"])
	}
	if diff["workers"] != [2]string{"", "4"} {
		t.Fatalf("workers diff = %v", diff["workers"])
	}
	if configDiff(a, a) != nil {
		t.Fatal("identical config should have nil diff")
	}
}

// TestRunsCompareAbsentMetric pins the compare table and the absent-metric
// rule at the CLI: a run that lost the peak RSS its baseline sampled
// regresses naming the metric, and the removed threshold flags are refused.
func TestRunsCompareAbsentMetric(t *testing.T) {
	storeDir := t.TempDir()
	s, err := runstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	a := runstore.Entry{
		RunID: "aaaa111122223333", Tool: "serd", Status: "done", WallSeconds: 10,
		Stages:  []runstore.StageTime{{Name: "core.s2", Count: 1, Seconds: 6}},
		Runtime: &telemetry.RuntimeStats{PeakRSSBytes: 100 << 20},
		Summary: map[string]float64{"jsd": 0.05},
	}
	b := a
	b.RunID, b.Runtime = "bbbb111122223333", nil
	for _, e := range []runstore.Entry{a, b} {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"runs", "compare", "-store", storeDir, "aaaa11", "aaaa11"}, &out); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"stage:core.s2                                 6              6             +0\n",
		"peak_rss_bytes                        104857600      104857600             +0\n",
		"wall_seconds                                 10             10             +0\n",
		"no regressions",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("self-compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	err = run([]string{"runs", "compare", "-store", storeDir, "aaaa11", "bbbb11"}, &out)
	if !errors.Is(err, runstore.ErrRegression) {
		t.Fatalf("compare err = %v, want ErrRegression\n%s", err, out.String())
	}
	for _, want := range []string{
		"peak_rss_bytes                        104857600              -              -  ✗\n",
		"REGRESSIONS:\n  ✗ peak_rss_bytes measured 1.04858e+08 in the baseline but is absent now\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	for _, flag := range []string{"-wall-threshold", "-eps-threshold", "-metric-threshold", "-rss-threshold", "-min-seconds"} {
		if err := run([]string{"runs", "compare", "-store", storeDir, flag, "1", "aaaa11", "bbbb11"}, io.Discard); err == nil || errors.Is(err, runstore.ErrRegression) {
			t.Errorf("runs compare %s: err = %v, want the flag refused", flag, err)
		}
	}
}

// TestRunsShowLegacyBenchEntry pins registry back-compat: an entry whose
// bench rows carry the flat per-field shape registered before bench rows
// had a metrics map still loads, lists, and shows as key plus metrics.
func TestRunsShowLegacyBenchEntry(t *testing.T) {
	storeDir := t.TempDir()
	if _, err := runstore.Open(storeDir); err != nil {
		t.Fatal(err)
	}
	const id = "0123456789abcdef0123456789abcdef"
	legacy := `{
  "run_id": "` + id + `",
  "tool": "experiments",
  "dataset": "Restaurant",
  "seed": 1,
  "status": "done",
  "config": {"bench": "core", "sizecap": "40", "matchcap": "12"},
  "start": "2026-08-06T07:07:57Z",
  "registered": "2026-08-06T07:08:01Z",
  "wall_seconds": 2.1,
  "bench": [
    {"dataset": "Restaurant", "entities": 80, "wall_seconds": 0.19, "entities_per_sec": 1749.5, "jsd": 0, "peak_rss_bytes": 52428800, "gc_pause_seconds": 0.001}
  ]
}
`
	if err := os.WriteFile(filepath.Join(storeDir, "runs", id+".json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"runs", "list", "-store", storeDir, "-q"}, &out); err != nil {
		t.Fatalf("runs list: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), id[:12]) {
		t.Fatalf("legacy entry not listed:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"runs", "show", "-store", storeDir, id[:12]}, &out); err != nil {
		t.Fatalf("runs show: %v\n%s", err, out.String())
	}
	want := "    Restaurant  entities=80  entities_per_sec=1749.5  gc_pause_seconds=0.001  jsd=0  peak_rss_bytes=52428800  wall_seconds=0.19\n"
	if !strings.Contains(out.String(), "  bench:\n"+want) {
		t.Errorf("runs show does not print the legacy row as key plus sorted metrics:\n%s", out.String())
	}
}
