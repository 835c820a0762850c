package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"serd/internal/pipeline"
	"serd/internal/runstore"
	"serd/internal/trace"
)

const runsUsage = `usage: serd runs <command> [flags]

Browse the cross-run registry every serd/experiments/datagen run
registers itself into (default ~/.serd/runs; runs take -run-store DIR
to relocate it, -run-store=off to opt out).

commands:
  list                     registered runs, oldest first
                           (-tool, -status filters; -n last N; -q ids only)
  show      <id>           one run in full (unique id prefixes accepted)
  compare   <A> <B>        wall-clock, stage, peak-RSS, ε and fidelity
                           deltas between two runs; exit 3 when B breaks
                           a gate rule
  burn-down                cumulative ε spend per dataset group
  gc        -keep N        delete all but the newest N entries
  serve     -addr :9091    the /runs JSON+HTML dashboard, standalone

common flags:
  -store DIR               registry directory (default ~/.serd/runs)
`

// runsStore opens the registry for a CLI subcommand. Unlike the run
// binaries (which degrade to warnings), the runs CLI hard-fails: a user
// asking to browse a registry that cannot open wants the error.
func runsStore(dir string) (*runstore.Store, error) {
	if dir == "" {
		dir = runstore.DefaultDir()
		if dir == "" {
			return nil, errors.New("runs: no home directory; pass -store DIR")
		}
	}
	if dir == runstore.Off {
		return nil, errors.New("runs: -store off makes no sense here; pass a directory")
	}
	return runstore.Open(dir)
}

func runRuns(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stdout, runsUsage)
		return errors.New("runs: missing command")
	}
	sub := args[0]
	fs := flag.NewFlagSet("serd runs "+sub, flag.ContinueOnError)
	storeDir := fs.String("store", "", "registry directory (default ~/.serd/runs)")

	switch sub {
	case "list":
		tool := fs.String("tool", "", "only runs of this tool (serd, datagen, experiments)")
		status := fs.String("status", "", "only runs with this terminal status (done, failed, aborted)")
		n := fs.Int("n", 0, "only the newest N runs (0 = all)")
		quiet := fs.Bool("q", false, "print run ids only (for scripting)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		entries, err := s.List()
		if err != nil {
			return err
		}
		var filtered []runstore.Entry
		for _, e := range entries {
			if *tool != "" && e.Tool != *tool {
				continue
			}
			if *status != "" && e.Status != *status {
				continue
			}
			filtered = append(filtered, e)
		}
		if *n > 0 && len(filtered) > *n {
			filtered = filtered[len(filtered)-*n:]
		}
		if *quiet {
			for _, e := range filtered {
				fmt.Fprintln(stdout, e.RunID)
			}
			return nil
		}
		if len(filtered) == 0 {
			fmt.Fprintf(stdout, "no runs registered in %s\n", s.Dir())
			return nil
		}
		fmt.Fprintf(stdout, "%-14s %-12s %-16s %6s %-8s %-20s %9s %10s\n",
			"run", "tool", "dataset", "seed", "status", "start", "wall", "ε")
		for _, e := range filtered {
			eps := "-"
			if e.Privacy != nil {
				eps = fmt.Sprintf("%.4g", e.Privacy.Epsilon)
			}
			start := "-"
			if !e.Start.IsZero() {
				start = e.Start.Format("2006-01-02 15:04:05")
			}
			fmt.Fprintf(stdout, "%-14s %-12s %-16s %6d %-8s %-20s %8.2fs %10s\n",
				e.ShortID(), e.Tool, e.Dataset, e.Seed, e.Status, start, e.WallSeconds, eps)
		}
		return nil

	case "show":
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return errors.New("runs show: want exactly one run id")
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		e, err := s.Get(fs.Arg(0))
		if err != nil {
			return err
		}
		printRun(stdout, e)
		return nil

	case "compare":
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return errors.New("runs compare: want exactly two run ids")
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		a, err := s.Get(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := s.Get(fs.Arg(1))
		if err != nil {
			return err
		}
		ra, rb := a.Row(), b.Row()
		problems := runstore.Gate(ra, rb, runstore.RunRules)
		printComparison(stdout, a, b, ra, rb, problems)
		if len(problems) > 0 {
			return fmt.Errorf("%w: %d metric(s) past their rule between %s and %s",
				runstore.ErrRegression, len(problems), a.ShortID(), b.ShortID())
		}
		return nil

	case "burn-down":
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		entries, err := s.List()
		if err != nil {
			return err
		}
		burns := runstore.ComputeBurnDown(entries)
		if len(burns) == 0 {
			fmt.Fprintf(stdout, "no ε spent by any run registered in %s\n", s.Dir())
			return nil
		}
		for _, b := range burns {
			fmt.Fprintf(stdout, "%s — cumulative ε %.6g over %d run(s)\n", b.Dataset, b.Total, len(b.Points))
			for _, p := range b.Points {
				id := p.RunID
				if len(id) > 12 {
					id = id[:12]
				}
				fmt.Fprintf(stdout, "  %-14s %-8s +%-10.6g Σ %.6g\n", id, p.Status, p.Epsilon, p.Cumulative)
			}
		}
		return nil

	case "gc":
		keep := fs.Int("keep", 50, "entries to keep (newest)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		removed, err := s.GC(*keep)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "removed %d entr%s, kept the newest %d\n", removed, plural(removed, "y", "ies"), *keep)
		return nil

	case "serve":
		addr := fs.String("addr", ":9091", "listen address for the runs dashboard")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		s, err := runsStore(*storeDir)
		if err != nil {
			return err
		}
		return serveRuns(*addr, s, stdout)

	default:
		fmt.Fprint(stdout, runsUsage)
		return fmt.Errorf("runs: unknown command %q", sub)
	}
}

// testHookRunsServing mirrors testHookServing for `serd runs serve`.
var testHookRunsServing = func(addr string) {}

// serveRuns runs the standalone dashboard until SIGINT/SIGTERM.
func serveRuns(addr string, s *runstore.Store, stdout io.Writer) error {
	mux := http.NewServeMux()
	h := runstore.Handler(s, nil)
	mux.Handle("/runs", h)
	mux.Handle("/runs/", h)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/runs", http.StatusFound)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("runs serve: %w", err)
	}

	ctx, stop := pipeline.SignalContext(context.Background())
	defer stop()
	lnErr := make(chan error, 1)
	go func() { lnErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "runs dashboard: http://%s/runs (store %s)\n", ln.Addr(), s.Dir())
	testHookRunsServing(ln.Addr().String())
	select {
	case err := <-lnErr:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func printRun(w io.Writer, e runstore.Entry) {
	fmt.Fprintf(w, "run %s (%s)\n", e.RunID, e.Tool)
	fmt.Fprintf(w, "  dataset %s  seed %d  status %s", e.Dataset, e.Seed, e.Status)
	if e.Error != "" {
		fmt.Fprintf(w, " (%s)", e.Error)
	}
	fmt.Fprintln(w)
	if !e.Start.IsZero() {
		fmt.Fprintf(w, "  start %s  wall %.2fs\n", e.Start.Format(time.RFC3339), e.WallSeconds)
	}
	if e.Generator != "" {
		fmt.Fprintf(w, "  generator %s\n", e.Generator)
	}
	if len(e.Config) > 0 {
		fmt.Fprintln(w, "  config:")
		for _, k := range sortedKeys(e.Config) {
			fmt.Fprintf(w, "    %-16s %s\n", k, e.Config[k])
		}
	}
	if len(e.Stages) > 0 {
		fmt.Fprintln(w, "  stages:")
		for _, st := range e.Stages {
			fmt.Fprintf(w, "    %-28s ×%-4d %9.3fs\n", st.Name, st.Count, st.Seconds)
		}
	}
	if e.Runtime != nil {
		fmt.Fprintf(w, "  runtime: peak RSS %.1f MiB, GC pause %.4fs over %d cycle(s)\n",
			float64(e.Runtime.PeakRSSBytes)/(1<<20), e.Runtime.GCPauseSeconds, e.Runtime.NumGC)
	}
	if e.Privacy != nil {
		fmt.Fprintf(w, "  privacy: composed ε=%.6g δ=%.2g over %d charge(s)\n",
			e.Privacy.Epsilon, e.Privacy.Delta, e.Privacy.Charges)
		for _, g := range e.Privacy.Groups {
			fmt.Fprintf(w, "    group %-20s ε=%.6g (%d charge(s))\n", g.Group, g.Epsilon, g.Charges)
		}
	}
	if len(e.Lineage) > 0 {
		fmt.Fprintln(w, "  lineage:")
		for _, l := range e.Lineage {
			fmt.Fprintf(w, "    %-7s %s  sha %s\n", l.Role, l.Dir, l.SHA)
		}
	}
	if len(e.Summary) > 0 {
		fmt.Fprintln(w, "  summary:")
		for _, k := range sortedKeys(e.Summary) {
			fmt.Fprintf(w, "    %-28s %g\n", k, e.Summary[k])
		}
	}
	if len(e.Bench) > 0 {
		fmt.Fprintln(w, "  bench:")
		for _, b := range e.Bench {
			fmt.Fprintf(w, "    %s\n", b)
		}
	}
	a := e.Artifacts
	if a.OutDir != "" || a.Journal != "" || a.Trace != "" || a.Report != "" || a.Checkpoints != "" {
		fmt.Fprintln(w, "  artifacts:")
		for _, kv := range [][2]string{{"out", a.OutDir}, {"journal", a.Journal}, {"trace", a.Trace}, {"report", a.Report}, {"checkpoints", a.Checkpoints}} {
			if kv[1] != "" {
				fmt.Fprintf(w, "    %-12s %s\n", kv[0], kv[1])
			}
		}
	}
}

// printComparison prints B's run row against A's as one metric table,
// marking each metric Gate flagged, then the config diff, the trace
// attribution and the regressions.
func printComparison(w io.Writer, a, b runstore.Entry, ra, rb runstore.Row, problems map[string]string) {
	fmt.Fprintf(w, "comparing %s (%s, %s) -> %s (%s, %s)\n",
		a.ShortID(), a.Tool, a.Status, b.ShortID(), b.Tool, b.Status)
	if a.Generator != "" || b.Generator != "" {
		// A cross-backend comparison is a deliberate trade-off study, not
		// drift — name both backends up front so the ε/fidelity deltas
		// below read as "privbayes vs gmm", not as a regression mystery.
		fmt.Fprintf(w, "generator: %s -> %s\n", orDash(a.Generator), orDash(b.Generator))
	}
	fmt.Fprintf(w, "\n%-32s %14s %14s %14s\n", "metric", "A", "B", "Δ")
	for _, name := range sortedKeys(ra.Metrics, rb.Metrics) {
		va, inA := ra.Metrics[name]
		vb, inB := rb.Metrics[name]
		delta := "-"
		if inA && inB {
			delta = runstore.FormatMetric(vb - va)
			if vb >= va {
				delta = "+" + delta
			}
		}
		mark := ""
		if _, bad := problems[name]; bad {
			mark = "  ✗"
		}
		fmt.Fprintf(w, "%-32s %14s %14s %14s%s\n", name, metricValue(va, inA), metricValue(vb, inB), delta, mark)
	}
	if diff := configDiff(a.Config, b.Config); len(diff) > 0 {
		fmt.Fprintln(w, "\nconfig differences:")
		for _, k := range sortedKeys(diff) {
			fmt.Fprintf(w, "  %-16s %q -> %q\n", k, diff[k][0], diff[k][1])
		}
	}
	// Opportunistic trace attribution: when both runs kept their .jsonl
	// traces, the diff pins the wall-clock delta to chunk groups too.
	if a.Artifacts.Trace != "" && b.Artifacts.Trace != "" {
		if ta, err := trace.Load(a.Artifacts.Trace); err == nil {
			if tb, err := trace.Load(b.Artifacts.Trace); err == nil {
				d := trace.DiffTraces(ta, tb)
				if len(d.Children) > 0 {
					fmt.Fprintf(w, "\ntrace attribution (top chunk groups):\n")
					for i, r := range d.Children {
						if i >= 5 {
							break
						}
						fmt.Fprintf(w, "  %-40s %+8.3fs (%5.1f%%)\n", r.Key, r.Delta, 100*r.Share)
					}
				}
			}
		}
	}
	if len(problems) > 0 {
		fmt.Fprintln(w, "\nREGRESSIONS:")
		for _, name := range sortedKeys(problems) {
			fmt.Fprintln(w, "  ✗", problems[name])
		}
	} else {
		fmt.Fprintln(w, "\nno regressions: B holds A on every gated metric")
	}
}

// metricValue renders a metric for the compare table, "-" when the run
// lacks it.
func metricValue(v float64, present bool) string {
	if !present {
		return "-"
	}
	return runstore.FormatMetric(v)
}

// configDiff maps each config key whose value differs between two runs,
// or that only one run sets, to its A and B values ("" where unset); nil
// when the configs agree.
func configDiff(a, b map[string]string) map[string][2]string {
	var diff map[string][2]string
	for _, k := range sortedKeys(a, b) {
		va, inA := a[k]
		vb, inB := b[k]
		if inA != inB || va != vb {
			if diff == nil {
				diff = map[string][2]string{}
			}
			diff[k] = [2]string{va, vb}
		}
	}
	return diff
}

// sortedKeys returns the union of the maps' keys in order.
func sortedKeys[V any](ms ...map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
