// Command perfbench is serd's end-to-end benchmark. For one workload and
// seed it generates the workload's real datasets (several per seed), then
// runs the synthesis on them the way cmd/serd wires it, one synthesis per
// child process, one at a time (a closed loop with one client), until the
// measurement window is spent. Every run's streamed output is re-loaded
// and checked; runs of one input must produce identical bytes.
//
// With -trace 0 it prints the end-to-end metrics, aggregated over the
// inputs; with -trace 1 it alternates untraced and traced runs and prints
// the per-layer metrics of the traced ones. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload restaurant-reject --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of serd sees, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"entities_per_s", "entities/s"},
	{"cpu_ms_per_entity", "ms"},
	{"peak_rss_mb", "MiB"},
	{"dcr", "ratio"},
	{"match_f1", "ratio"},
	{"fidelity_jsd", "nats"},
	{"match_density_err", "ratio"},
}

// perLayer are the traced run's metrics, named by module.
var perLayer = []metricDef{
	{"dataset.load_s", "s"},
	{"dataset.finalize_s", "s"},
	{"dataset.out_bytes", "bytes"},
	{"generator.fit_s", "s"},
	{"generator.vectors_s", "s"},
	{"generator.x_pos", "count"},
	{"generator.x_neg", "count"},
	{"gmm.em_s", "s"},
	{"gmm.em.iterations", "count"},
	{"gmm.em.fits", "count"},
	{"blocking.s1_candidates", "count"},
	{"blocking.s1_candidates_s", "s"},
	{"textsynth.build_s", "s"},
	{"textsynth.calls", "count"},
	{"textsynth.synthesize_s", "s"},
	{"textsynth.us_per_call", "us"},
	{"core.s2_s", "s"},
	{"core.s2.self_s", "s"},
	{"core.s2.attempts", "count"},
	{"core.s2.accepted", "count"},
	{"core.s2.rejected", "count"},
	{"core.s2.accept_ratio", "ratio"},
	{"core.s2.fit_failed", "count"},
	{"core.s2.delta_s", "s"},
	{"gmm.jsd_s", "s"},
	{"gmm.jsd.calls", "count"},
	{"core.s3_s", "s"},
	{"core.s3.pairs_scored", "count"},
	{"core.s3.matches", "count"},
	{"core.s3.reduction_ratio", "ratio"},
	{"core.s3.recall_bound", "ratio"},
	{"core.s3.match_yield", "ratio"},
	{"blocking.candidates_s", "s"},
	{"checkpoint.saves", "count"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"journal.events", "count"},
	{"journal.bytes", "bytes"},
	{"journal.verify_s", "s"},
	{"parallel.utilization.core.s2.delta", "ratio"},
	{"parallel.utilization.gmm.jsd", "ratio"},
	{"parallel.utilization.gmm.em.estep", "ratio"},
	{"parallel.utilization.core.s3.label", "ratio"},
	{"go.alloc_mb_per_entity", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"mix.online.textsynth_pct", "%"},
	{"mix.online.jsd_pct", "%"},
	{"mix.online.delta_pct", "%"},
	{"mix.online.s3_pct", "%"},
	{"mix.online.checkpoint_pct", "%"},
	{"mix.setup.fit_pct", "%"},
	{"mix.setup.vectors_pct", "%"},
	{"mix.setup.em_pct", "%"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// hardLimit is the time after which a run starts no further synthesis.
const hardLimit = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "workload seed")
	realDir := fs.String("real", "", "real dataset directory")
	runDir := fs.String("run", "", "this run's private directory")
	traced := fs.Bool("traced", false, "arm tracing and the timing decorators")
	qual := fs.Bool("quality", false, "compute the output-quality metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := runChild(childSpec{w: w, seed: *seed, realDir: *realDir, runDir: *runDir, traced: *traced, quality: *qual})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// input is one of a run's generated real datasets.
type input struct {
	seed int64
	dir  string
}

// run is one child synthesis as the parent saw it.
type run struct {
	in     int // index into the run's inputs
	traced bool
	res    *childResult // nil when the child failed outright
	err    error
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the workload's inputs and the synthesis derive from")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	traceMode := fs.Int("trace", 0, "1 reports the per-layer metrics of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (restaurant-reject|walmart-dp-durable|dblp-bigreal), -seconds >= 1, -trace 0|1")
		return 2
	}
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root := filepath.Join(buildDir(), "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(root)
	n := w.inputs
	if *traceMode == 1 {
		n /= 2 // per-layer metrics have no bound; a traced run is costlier
	}
	inputs := make([]input, n)
	for j := range inputs {
		inputs[j] = input{seed: *seed*100 + int64(j), dir: filepath.Join(root, fmt.Sprintf("real-%d", j))}
		if err := w.writeReal(inputs[j].dir, inputs[j].seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	// The window opens once the inputs are on disk. Runs cycle through the
	// inputs in passes: untraced with the quality metrics first, then —
	// with -trace 1 — traced and untraced passes alternate. A run makes at
	// least one pass and one more synthesis (two passes with -trace 1), so
	// output bytes are always compared between two runs of one input.
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(hardLimit+20*time.Second))
	defer cancel()
	window := time.Duration(*seconds) * time.Second
	t0 := time.Now()
	var runs []run
	var longest time.Duration
	for i := 0; ; i++ {
		pass := i / len(inputs)
		minRuns := len(inputs) + 1
		if *traceMode == 1 {
			minRuns = 2 * len(inputs)
		}
		if i >= minRuns && time.Since(t0) >= window {
			break
		}
		if time.Since(start)+longest > hardLimit {
			break
		}
		traced := *traceMode == 1 && pass%2 == 1
		in := i % len(inputs)
		ts := time.Now()
		r := runOne(ctx, self, w, inputs[in], filepath.Join(root, fmt.Sprintf("run-%d", i)), traced, *traceMode == 0 && pass == 0)
		r.in = in
		took := time.Since(ts)
		longest = max(longest, took)
		runs = append(runs, r)
		logRun(i, r, took)
	}

	failed := checkRuns(runs)
	var metrics map[string]metricValue
	if *traceMode == 1 {
		metrics = layerMetrics(runs)
	} else {
		metrics = endToEndMetrics(runs, len(inputs))
	}
	out, err := json.Marshal(report{Correct: failed == 0, Attempted: len(runs), Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// buildDir is where builds and scratch files go: CARGO_TARGET_DIR when
// the caller sets it, else .bench_build under the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// runOne runs one synthesis in a fresh child process, so its peak RSS is
// its own, and removes the child's files afterwards.
func runOne(ctx context.Context, self string, w workload, in input, runDir string, traced, quality bool) run {
	defer os.RemoveAll(runDir)
	cmd := exec.CommandContext(ctx, self, "child",
		"-workload", w.name, "-seed", fmt.Sprint(in.seed), "-real", in.dir, "-run", runDir,
		fmt.Sprintf("-traced=%t", traced), fmt.Sprintf("-quality=%t", quality))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The child dies with this process, so no synthesis outlives a run
	// that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r := run{traced: traced}
	if err := cmd.Run(); err != nil {
		r.err = fmt.Errorf("child: %w", err)
		return r
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		r.err = fmt.Errorf("child result: %w", err)
		return r
	}
	r.res = &res
	return r
}

func logRun(i int, r run, took time.Duration) {
	if r.res == nil {
		fmt.Fprintf(os.Stderr, "run %d: failed: %v\n", i, r.err)
		return
	}
	status := "ok"
	if r.res.Error != "" {
		status = "check failed: " + r.res.Error
	}
	var q strings.Builder
	for _, name := range qualityMetrics {
		if v, ok := r.res.Quality[name]; ok {
			if v == nil {
				fmt.Fprintf(&q, " %s=null", name)
			} else {
				fmt.Fprintf(&q, " %s=%.4g", name, *v)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "run %d input %d traced=%t: setup %.3fs online %.3fs (%.1f entities/s) cpu %.3fs steal %.1f%% rss %.1fMiB took %.2fs sha %.12s%s %s\n",
		i, r.in, r.traced, r.res.SetupS, r.res.OnlineS, float64(r.res.Entities)/r.res.OnlineS, r.res.CPUS, r.res.Layers["host.steal_pct"], r.res.RSSMB, took.Seconds(), r.res.SHA, q.String(), status)
}

// checkRuns counts the failed runs: a child that failed outright, one
// whose output failed a check, and one whose output bytes differ from the
// first run's on the same input — every run of one input, traced or not,
// must produce the same dataset.
func checkRuns(runs []run) int {
	want := map[int]string{}
	for _, r := range runs {
		if _, ok := want[r.in]; !ok && r.res != nil && r.res.Error == "" {
			want[r.in] = r.res.SHA
		}
	}
	failed := 0
	for i, r := range runs {
		switch {
		case r.res == nil, r.res.Error != "":
			failed++
		case r.res.SHA != want[r.in]:
			fmt.Fprintf(os.Stderr, "run %d: output sha %.12s differs from %.12s\n", i, r.res.SHA, want[r.in])
			failed++
		}
	}
	return failed
}

type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + m) / 2
	}
	return m
}

// perInput gathers f over the successful runs of one kind, by input.
func perInput(runs []run, traced bool, f func(*childResult) float64) map[int][]float64 {
	out := map[int][]float64{}
	for _, r := range runs {
		if r.res != nil && r.res.Error == "" && r.traced == traced {
			out[r.in] = append(out[r.in], f(r.res))
		}
	}
	return out
}

// sumOfMedians sums, over the inputs, the median of f over each input's
// runs; nil unless every input has a successful run.
func sumOfMedians(runs []run, n int, traced bool, f func(*childResult) float64) *float64 {
	by := perInput(runs, traced, f)
	if len(by) < n {
		return nil
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	return &sum
}

func ratio(num, den *float64, scale float64) *float64 {
	if num == nil || den == nil || *den == 0 {
		return nil
	}
	v := scale * *num / *den
	return &v
}

// endToEndMetrics aggregates over the inputs: throughput and CPU cost
// as totals over one synthesis of each input (each input's median run),
// set-up time and peak RSS as medians over all runs, and each quality
// metric as its mean over the inputs it could be computed on — absent if
// none.
func endToEndMetrics(runs []run, n int) map[string]metricValue {
	entities := sumOfMedians(runs, n, false, func(c *childResult) float64 { return float64(c.Entities) })
	online := sumOfMedians(runs, n, false, func(c *childResult) float64 { return c.OnlineS })
	cpu := sumOfMedians(runs, n, false, func(c *childResult) float64 { return c.CPUS })
	vals := map[string]*float64{
		"entities_per_s":    ratio(entities, online, 1),
		"cpu_ms_per_entity": ratio(cpu, entities, 1000),
		"setup_s":           allMedian(runs, false, func(c *childResult) float64 { return c.SetupS }),
		"peak_rss_mb":       allMedian(runs, false, func(c *childResult) float64 { return c.RSSMB }),
	}
	quality := map[int]map[string]*float64{}
	for _, r := range runs {
		if r.res != nil && r.res.Error == "" && r.res.Quality != nil {
			quality[r.in] = r.res.Quality
		}
	}
	for _, name := range qualityMetrics {
		sum, k := 0.0, 0
		for _, q := range quality {
			if q[name] != nil {
				sum += *q[name]
				k++
			}
		}
		if k > 0 {
			mean := sum / float64(k)
			vals[name] = &mean
		}
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

func allMedian(runs []run, traced bool, f func(*childResult) float64) *float64 {
	var xs []float64
	for _, v := range perInput(runs, traced, f) {
		xs = append(xs, v...)
	}
	if len(xs) == 0 {
		return nil
	}
	m := median(xs)
	return &m
}

// layerMetrics reports each per-layer metric as its mean over the inputs
// of the per-input median over traced runs.
func layerMetrics(runs []run) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		// The Go runtime's allocation and GC figures come from the
		// untraced runs: tracing allocates span events of its own.
		traced := !strings.HasPrefix(m.name, "go.") && !strings.HasPrefix(m.name, "host.")
		k := m.name
		out[k] = metricValue{Value: meanOfMedians(runs, traced, func(c *childResult) float64 { return c.Layers[k] }), Unit: m.unit}
	}
	// Overhead compares traced and untraced runs of the same inputs.
	plain := perInput(runs, false, func(c *childResult) float64 { return c.OnlineS })
	var tr, base float64
	for in, xs := range perInput(runs, true, func(c *childResult) float64 { return c.OnlineS }) {
		if len(plain[in]) > 0 {
			tr += median(xs)
			base += median(plain[in])
		}
	}
	if base > 0 {
		v := 100 * (tr/base - 1)
		out["trace.overhead_pct"] = metricValue{Value: &v, Unit: "%"}
	}
	return out
}

func meanOfMedians(runs []run, traced bool, f func(*childResult) float64) *float64 {
	by := perInput(runs, traced, f)
	if len(by) == 0 {
		return nil
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	mean := sum / float64(len(by))
	return &mean
}
