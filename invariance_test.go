package serd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"serd"
	"serd/internal/config"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/runstore"
	"serd/internal/session"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// invarianceRun is the shared baseline pipeline a byte-invariance row
// toggles one feature on: one sample, seed, ledger charge and journal
// shape for every row.
type invarianceRun struct {
	ctx    context.Context
	opts   serd.Options
	schema *serd.Schema
	// out is the dataset directory; scratch holds the feature's own
	// artifacts (trace files, run store).
	out, scratch string
	// reg is the registry under the journal-instrumented recorder.
	reg *telemetry.Registry
	// ledger is the run's privacy ledger, already charged once; a row
	// hands it to a DP backend through opts.Privacy.
	ledger *journal.Ledger
	// session, when a row sets it, runs the synthesis inside the run
	// session the binaries use: the session's recorder replaces
	// opts.Metrics, and the session ends and closes the journal. stdout
	// holds what the session printed.
	session *session.Spec
	stdout  bytes.Buffer
}

// invarianceRow arms one optional feature. arm may change the context
// and options; the check it returns, if any, inspects the feature's own
// artifacts once the run's journal is closed.
type invarianceRow struct {
	name string
	arm  func(t *testing.T, r *invarianceRun) (check func(journal []byte))
}

// synthesizeRow runs the baseline pipeline with row's feature armed (a
// zero row is the baseline itself), writes the dataset to out and returns
// the raw journal bytes, or nil when the row disarmed the journal. A run
// with Options.Stream armed writes its dataset through the stream; every
// other run saves it at the end.
func synthesizeRow(t *testing.T, out string, row invarianceRow) []byte {
	t.Helper()
	g, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 3, SizeA: 40, SizeB: 40, Matches: 12})
	if err != nil {
		t.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(g)
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	jPath := filepath.Join(scratch, "journal.jsonl")
	jr, err := journal.Create(jPath)
	if err != nil {
		t.Fatal(err)
	}
	jr.RunStart("test", 9, map[string]string{"dataset": "Restaurant"})
	ledger := journal.NewLedger(jr)
	if err := ledger.ChargeSGD("bk0", "bank", 0.25, 1.1, 12, 1e-5); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r := &invarianceRun{
		ctx: context.Background(),
		opts: serd.Options{
			Synthesizers: synths,
			Seed:         9,
			Metrics:      journal.Instrument(jr, reg),
			Journal:      jr,
		},
		schema:  g.ER.Schema(),
		out:     out,
		scratch: scratch,
		reg:     reg,
		ledger:  ledger,
	}
	var check func([]byte)
	if row.arm != nil {
		check = row.arm(t, r)
	}
	synthesize := func() (map[string]float64, error) {
		res, err := serd.SynthesizeContext(r.ctx, g.ER, r.opts)
		if sw := r.opts.Stream; sw != nil {
			if err != nil {
				sw.Abort()
			} else {
				err = sw.Finalize()
			}
		} else if err == nil {
			err = serd.SaveDataset(out, res.Syn)
		}
		if err != nil {
			return nil, err
		}
		ledger.Finish()
		return map[string]float64{"jsd": res.JSD}, nil
	}
	if r.session != nil {
		spec := *r.session
		spec.Journal, spec.JournalPath = jr, jPath
		err = session.Run(spec, &r.stdout, func(rec telemetry.Recorder) (session.Result, error) {
			r.opts.Metrics = rec
			summary, err := synthesize()
			return session.Result{Summary: summary}, err
		})
	} else {
		var summary map[string]float64
		if summary, err = synthesize(); err == nil {
			jr.RunEnd("done", "", summary, 1)
			err = jr.Close()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if check != nil {
		check(raw)
	}
	if r.opts.Journal == nil {
		return nil
	}
	return raw
}

func readDataset(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// stripVolatile removes the documented volatile fields (ts, dur_s) from
// every journal line and re-marshals. The chain hashes stay, so equal
// stripped journals chain identically line by line.
func stripVolatile(t *testing.T, data []byte) string {
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

// TestByteInvariance pins that every optional feature is a byte-noop:
// each row arms one feature on the shared baseline run, and its dataset
// bytes and stripped journal (every chain hash included) must equal the
// baseline's. A row that disarms the journal compares dataset bytes only.
// A new optional feature adds a row here.
func TestByteInvariance(t *testing.T) {
	base := t.TempDir()
	baseDir := filepath.Join(base, "baseline")
	var baseReg *telemetry.Registry
	baseline := stripVolatile(t, synthesizeRow(t, baseDir, invarianceRow{arm: func(t *testing.T, r *invarianceRun) func([]byte) {
		baseReg = r.reg
		return nil
	}}))
	want := readDataset(t, baseDir)

	rows := []invarianceRow{
		// A same-seed rerun repeats the baseline exactly: telemetry and
		// journaling never perturb the RNG stream, and the registry
		// counters match too.
		{name: "same-seed-rerun", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			return func(raw []byte) {
				counters, baseCounters := r.reg.Snapshot().Counters, baseReg.Snapshot().Counters
				if !reflect.DeepEqual(counters, baseCounters) {
					t.Errorf("counter values differ between same-seed runs:\nrerun:    %v\nbaseline: %v", counters, baseCounters)
				}
				for _, name := range []string{"core.s2.accepted", "core.s2.attempts", "gmm.em.fits"} {
					if counters[name] == 0 {
						t.Errorf("counter %s not recorded", name)
					}
				}
				for _, typ := range []string{"ledger_charge", "phase_end"} {
					if !bytes.Contains(raw, []byte(`"type":"`+typ+`"`)) {
						t.Errorf("journal has no %s event", typ)
					}
				}
			}
		}},
		// With no journal and no recorder the run writes the same dataset
		// bytes: neither layer consumes a draw.
		{name: "unjournaled-unrecorded", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Journal = nil
			r.opts.Metrics = nil
			return nil
		}},
		// Cancellation plumbing checks a never-triggered context at every
		// chunk/minibatch/iteration boundary without moving a draw.
		{name: "cancelable-context", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			r.ctx = ctx
			return nil
		}},
		// Parallelism is an execution parameter, never a semantic one.
		{name: "workers-1", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Workers = 1
			return nil
		}},
		{name: "workers-4", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Workers = 4
			return nil
		}},
		// A nil Generator resolves to the gmm backend: one configuration.
		{name: "gmm-generator", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Generator = generator.GMM{}
			return nil
		}},
		// Streaming output with blocking off: the stream writes the bytes
		// SaveDataset would, and exact S3 leaves no blocking trace.
		{name: "stream-unblocked", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			sw, err := serd.NewStreamWriter(r.out, r.schema)
			if err != nil {
				t.Fatal(err)
			}
			r.opts.Stream = sw
			return nil
		}},
		{name: "run-store", arm: armRunStore},
		{name: "tracing", arm: armTracing},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := filepath.Join(base, row.name)
			raw := synthesizeRow(t, dir, row)
			got := readDataset(t, dir)
			for name := range want {
				if got[name] != want[name] {
					t.Errorf("%s differs from the baseline: the feature perturbed the output", name)
				}
			}
			if raw == nil {
				return
			}
			if s := stripVolatile(t, raw); s != baseline {
				t.Errorf("journal differs from the baseline beyond ts/dur_s:\n%s\n---- vs ----\n%s", s, baseline)
			}
		})
	}
}

// armRunStore runs the row inside a session with an open run store: the
// session registers the run after the journal's terminal event, as the
// binaries do. The registry reads the record; it never shapes it.
func armRunStore(t *testing.T, r *invarianceRun) func([]byte) {
	dir := filepath.Join(r.scratch, "store")
	r.session = &session.Spec{
		Tool: "test", Dataset: "Restaurant", Seed: 9,
		Observe: config.Observe{RunStore: dir},
		Out:     r.out, NoReport: true,
	}
	return func(raw []byte) {
		events, err := journal.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		store, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := store.List()
		if err != nil || len(entries) != 1 {
			t.Fatalf("store holds %d entries (%v), want the one run", len(entries), err)
		}
		// Content addressing: the registered id IS the journal's first
		// chain hash, so identical configs collapse to one identity.
		entry := entries[0]
		if entry.RunID == "" || entry.RunID != events[0].Chain {
			t.Fatalf("run id %q != journal first chain %q", entry.RunID, events[0].Chain)
		}
		got, err := store.Get(entry.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != "done" || len(got.Stages) == 0 || got.Privacy == nil || got.Generator != "gmm" ||
			got.Artifacts.OutDir != r.out || got.Artifacts.Journal == "" || got.Runtime == nil {
			t.Fatalf("registered entry lost fields: %+v", got)
		}
	}
}

// armTracing runs the row inside a session with the entire observability
// stack armed: event bus, tracer wrapped outermost over the
// journal-instrumented recorder, runtime sampler, trace exporter, and the
// live inspector with one real SSE client attached for the whole run. Its
// check requires the SSE client to have seen events and the graceful
// shutdown, and the written trace to account for ≥95% of the run in both
// its summary and critical path.
func armTracing(t *testing.T, r *invarianceRun) func([]byte) {
	type sseResult struct {
		events      int
		gotShutdown bool
	}
	sseDone := make(chan sseResult, 1)
	tracePath := filepath.Join(r.scratch, "run.json")
	r.session = &session.Spec{
		Tool: "test", Dataset: "Restaurant", Seed: 9,
		Observe: config.Observe{MetricsAddr: "127.0.0.1:0", TracePath: tracePath, RunStore: runstore.Off},
		OnServing: func(addr string) {
			resp, err := http.Get("http://" + addr + "/events")
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer resp.Body.Close()
				var res sseResult
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					if line := sc.Text(); strings.HasPrefix(line, "event: ") {
						res.events++
						if line == "event: shutdown" {
							res.gotShutdown = true
						}
					}
				}
				sseDone <- res
			}()
		},
	}

	return func([]byte) {
		// The session prints the trace path only once the exporter closed
		// cleanly, and reports a failed inspector drain.
		if out := r.stdout.String(); !strings.Contains(out, "trace -> "+tracePath+"\n") || strings.Contains(out, "metrics: drain:") {
			t.Errorf("exporter close or inspector drain failed; session printed:\n%s", out)
		}
		select {
		case sse := <-sseDone:
			if !sse.gotShutdown {
				t.Errorf("SSE client saw no terminal shutdown event (%d events)", sse.events)
			}
			if sse.events < 1 {
				t.Error("live SSE client received no events during the run")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("SSE client did not finish after server shutdown")
		}

		tr, err := trace.Load(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped != 0 {
			t.Errorf("trace dropped %d events", tr.Dropped)
		}
		sum := trace.Summarize(tr)
		if sum.Coverage < 0.95 {
			t.Errorf("stage tree covers %.1f%% of wall-clock, want >= 95%%; stages: %+v", 100*sum.Coverage, sum.Stages)
		}
		if len(sum.Stages) < 3 {
			t.Errorf("summary has %d stages, want the full pipeline: %+v", len(sum.Stages), sum.Stages)
		}
		cp := trace.FindCriticalPath(tr)
		if len(cp.Steps) == 0 || cp.Coverage < 0.95 {
			t.Errorf("critical path covers %.1f%% across %d steps, want >= 95%%", 100*cp.Coverage, len(cp.Steps))
		}
	}
}
