// Package session wires the observability of one run of a SERD binary.
// cmd/serd, cmd/datagen and cmd/experiments all run through Run, so one
// policy decides when the event bus arms, how the live inspector drains,
// where the run report goes and in which order a run ends: the metrics
// registry, the tracer, the runtime sampler, the inspector, the trace
// exporter, the run report, the journal's run_end event and the run
// registry entry.
package session

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"serd/internal/config"
	"serd/internal/journal"
	"serd/internal/pipeline"
	"serd/internal/runstore"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// Spec describes one run to Run.
type Spec struct {
	// Tool names the binary; Dataset and Seed identify the run in its
	// trace header, run report and registry entry.
	Tool    string
	Dataset string
	Seed    int64
	// Observe holds the -metrics-addr, -trace, -report and -run-store
	// values.
	config.Observe
	// Out is the run's output directory. The registry records it, and
	// the report defaults to <Out>/run_report.json. NoReport suppresses
	// the report.
	Out      string
	NoReport bool
	// Journal is the run's open journal (nil for none) and JournalPath
	// its file; Run ends and closes it. OpenPhases is a resumed journal's
	// open-phase count (journal.OpenPhases), nil for a fresh run: a phase
	// the resumed pipeline re-enters journals no second phase_start.
	Journal     *journal.Journal
	JournalPath string
	OpenPhases  map[string]int
	// Config is the run's configuration, shown by the live /runs entry.
	// A journaled run registers the entry its journal distills to. A tool
	// that keeps no journal sets Unjournaled: its runs register Config
	// under a synthetic id. A journaling tool's -no-journal run registers
	// nothing, having no record to distill.
	Config      map[string]string
	Unjournaled bool
	// Checkpoints is the checkpoint directory the registry records.
	Checkpoints string
	// OnServing, when set, is called with the inspector's bound address
	// once it listens.
	OnServing func(addr string)
}

// Result is what a run's body hands back: the summary scalars the report
// and the journal's run_end event carry, and the report's privacy block.
type Result struct {
	Summary map[string]float64
	Privacy *telemetry.LedgerSummary
}

// run is the state Run holds between arming a run and ending it.
type run struct {
	spec    Spec
	stdout  io.Writer
	start   time.Time
	reg     *telemetry.Registry
	bus     *telemetry.Bus
	sampler *telemetry.Sampler
	srv     *telemetry.Server
	exp     *trace.Exporter
	store   *runstore.Store
	// live is the in-flight /runs entry, nil when the run will not
	// register.
	live *runstore.LiveRun
}

// Run arms the run's observability, calls body with the recorder every
// stage reports into, and ends the run. The recorder is the tracer
// wrapped outermost around the journal-instrumented registry. The event
// bus, and so the tracer, arms only when -trace or -metrics-addr gives it
// a consumer. The runtime sampler always runs. A failure to start the
// inspector or the trace exporter fails the run before body is called.
//
// A run ends in one order: the sampler stops; a successful run writes its
// report; the trace exporter closes and the inspector drains; the journal
// records run_end and closes; the run registers. stdout gets "trace ->
// <path>" once the exporter closes cleanly, and "trace: <err>" or
// "metrics: drain: <err>" when closing or draining fails; neither failure
// changes the run's outcome. The registry entry
// records the report only when it was written. Run returns body's error,
// else the error of writing the report or closing the journal.
func Run(spec Spec, stdout io.Writer, body func(rec telemetry.Recorder) (Result, error)) error {
	r := &run{spec: spec, stdout: stdout, start: time.Now(), reg: telemetry.NewRegistry()}
	r.store = OpenStore(spec.RunStore, spec.Tool)
	if r.store != nil && (spec.Journal != nil || spec.Unjournaled) {
		id := spec.Journal.First()
		if spec.Unjournaled {
			id = runstore.SyntheticRunID(spec.Tool, spec.Seed, r.start.UnixNano())
		}
		r.live = &runstore.LiveRun{}
		r.live.Set(runstore.Entry{RunID: id, Tool: spec.Tool, Dataset: spec.Dataset, Seed: spec.Seed, Config: spec.Config, Start: r.start})
	}
	if spec.TracePath != "" || spec.MetricsAddr != "" {
		r.bus = telemetry.NewBus(0)
	}
	rec := trace.Wrap(trace.New(r.bus), journal.InstrumentResumed(spec.Journal, r.reg, spec.OpenPhases))
	r.sampler = telemetry.StartSampler(r.reg, r.bus, 0)
	var res Result
	err := r.open()
	if err == nil {
		res, err = body(rec)
	}
	return r.end(res, err)
}

// open starts the live inspector and the trace exporter the flags ask for.
func (r *run) open() error {
	if r.spec.MetricsAddr != "" {
		// The run registry rides the inspector's listener: /runs lists the
		// store's history with this run pinned live at the top.
		var extra map[string]http.Handler
		endpoints := "metrics.json, metrics, events, debug/pprof"
		if r.store != nil {
			extra = map[string]http.Handler{"/runs/": runstore.Handler(r.store, r.live)}
			endpoints += ", runs"
		}
		srv, err := telemetry.ServeWithExtra(r.spec.MetricsAddr, r.reg, r.bus, extra)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		r.srv = srv
		fmt.Fprintf(r.stdout, "metrics: http://%s/ (%s)\n", srv.Addr(), endpoints)
		if r.spec.OnServing != nil {
			r.spec.OnServing(srv.Addr())
		}
	}
	if r.spec.TracePath != "" {
		exp, err := trace.NewExporter(r.bus, r.spec.TracePath, trace.Header{
			RunID:   r.spec.Journal.First(),
			Tool:    r.spec.Tool,
			Dataset: r.spec.Dataset,
			Seed:    r.spec.Seed,
			StartNS: r.start.UnixNano(),
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		r.exp = exp
	}
	return nil
}

// end runs the terminal sequence Run documents.
func (r *run) end(res Result, err error) error {
	rt := r.sampler.Stop()
	report := ""
	if path := r.reportPath(); err == nil && path != "" {
		if err = r.writeReport(path, res, &rt); err == nil {
			report = path
		}
	}
	if r.exp != nil {
		if cerr := r.exp.Close(); cerr != nil {
			fmt.Fprintf(r.stdout, "trace: %v\n", cerr)
		} else {
			fmt.Fprintf(r.stdout, "trace -> %s\n", r.spec.TracePath)
		}
	}
	if r.srv != nil {
		// A graceful drain sends attached /events clients a terminal
		// shutdown event; the signal path unwinds through here too. A
		// drain that fails is reported and never fails the run.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if serr := r.srv.Shutdown(ctx); serr != nil {
			fmt.Fprintf(r.stdout, "metrics: drain: %v\n", serr)
		}
		cancel()
	}
	if jr := r.spec.Journal; jr != nil {
		status, msg := pipeline.TerminalStatus(err)
		jr.RunEnd(status, msg, res.Summary, time.Since(r.start).Seconds())
		if jerr := jr.Close(); err == nil && jerr != nil {
			return jerr
		}
	}
	// Registration comes strictly after the journal's terminal event, so
	// a journaled entry is distilled from the finished, verifiable record
	// and an armed registry cannot perturb dataset or journal bytes.
	if r.live != nil {
		entry, eerr := r.entry(err)
		if eerr != nil {
			fmt.Fprintf(os.Stderr, "%s: run store: %v (run not registered)\n", r.spec.Tool, eerr)
			return err
		}
		entry.Runtime = &rt
		entry.Artifacts = runstore.Artifacts{
			OutDir:      r.spec.Out,
			Trace:       r.spec.TracePath,
			Report:      report,
			Checkpoints: r.spec.Checkpoints,
		}
		if r.spec.Journal != nil {
			entry.Artifacts.Journal = r.spec.JournalPath
		}
		Register(r.store, entry, r.spec.Tool, r.stdout)
	}
	return err
}

// reportPath is where the run report goes, "" for no report.
func (r *run) reportPath() string {
	switch {
	case r.spec.NoReport:
		return ""
	case r.spec.ReportPath != "":
		return r.spec.ReportPath
	case r.spec.Out != "":
		return filepath.Join(r.spec.Out, "run_report.json")
	}
	return ""
}

func (r *run) writeReport(path string, res Result, rt *telemetry.RuntimeStats) error {
	rep := &telemetry.RunReport{
		Tool:        r.spec.Tool,
		Dataset:     r.spec.Dataset,
		Seed:        r.spec.Seed,
		Start:       r.start,
		WallSeconds: time.Since(r.start).Seconds(),
		Summary:     res.Summary,
		Privacy:     res.Privacy,
		Trace:       r.spec.TracePath,
		Runtime:     rt,
		Metrics:     r.reg.Snapshot(),
	}
	if r.spec.Journal != nil {
		rep.Journal = r.spec.JournalPath
	}
	if err := telemetry.WriteRunReport(path, rep); err != nil {
		return fmt.Errorf("run report: %w", err)
	}
	fmt.Fprintf(r.stdout, "run report -> %s\n", path)
	return nil
}

// entry builds the run's registry entry: distilled from the journal on
// disk when the run kept one, else from the live entry and the
// registry's phase times.
func (r *run) entry(runErr error) (runstore.Entry, error) {
	if r.spec.Journal != nil {
		events, err := journal.Read(r.spec.JournalPath)
		if err != nil {
			return runstore.Entry{}, err
		}
		return runstore.EntryFromJournal(events)
	}
	e, _ := r.live.Snapshot()
	e.WallSeconds = time.Since(r.start).Seconds()
	e.Stages = runstore.StagesFromSnapshot(r.reg.Snapshot())
	e.Status, e.Error = pipeline.TerminalStatus(runErr)
	return e, nil
}

// OpenStore opens the run registry a -run-store value names. The
// registry is best-effort: a store that fails to open warns on stderr
// and yields nil, and the run proceeds unregistered.
func OpenStore(flagValue, tool string) *runstore.Store {
	store, err := runstore.Resolve(flagValue)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: run store: %v (run will not be registered)\n", tool, err)
	}
	return store
}

// Register writes e to store and announces it. A failed write warns on
// stderr and never changes the run's outcome.
func Register(store *runstore.Store, e runstore.Entry, tool string, stdout io.Writer) {
	if err := store.Put(e); err != nil {
		fmt.Fprintf(os.Stderr, "%s: run store: %v (run not registered)\n", tool, err)
		return
	}
	fmt.Fprintf(stdout, "run registered: %s (serd runs show %s)\n", e.RunID, e.ShortID())
}
