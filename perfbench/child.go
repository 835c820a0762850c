package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"serd/internal/checkpoint"
	"serd/internal/config"
	"serd/internal/core"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/journal"
	"serd/internal/parallel"
	"serd/internal/pipeline"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
	"serd/internal/trace"
)

// childResult is what one synthesis process reports to the parent, as
// one JSON line on its standard output.
type childResult struct {
	SetupS   float64 `json:"setup_s"`
	OnlineS  float64 `json:"online_s"`
	CPUS     float64 `json:"cpu_s"`
	Entities int     `json:"entities"`
	RSSMB    float64 `json:"rss_mb"`
	// SHA is the combined SHA-256 of the streamed output dataset.
	SHA string `json:"sha"`
	// Error names the first failed output check; empty when all passed.
	Error   string              `json:"error,omitempty"`
	Quality map[string]*float64 `json:"quality,omitempty"`
	Layers  map[string]float64  `json:"layers"`
}

// childSpec says which synthesis a child process runs.
type childSpec struct {
	w       workload
	seed    int64
	realDir string
	runDir  string // private to this child: output, journal, checkpoints
	traced  bool
	quality bool
}

// runChild performs one synthesis the way cmd/serd wires it and checks
// its output. Errors that stop the synthesis itself are returned; a
// finished synthesis whose output fails a check reports it in Error.
func runChild(spec childSpec) (*childResult, error) {
	w := spec.w
	schema, err := w.schema()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(spec.runDir, "out")
	res := &childResult{Layers: map[string]float64{}}
	layers := res.Layers
	var inner generator.Generator = generator.GMM{}
	if w.privbayes {
		inner = generator.PrivBayes{Epsilon: w.epsilon}
	}

	// Run wiring the CLI sets up before synthesis; not part of either
	// timed phase.
	var jr *journal.Journal
	jPath := filepath.Join(outDir, journal.DefaultName)
	reg := telemetry.NewRegistry()
	var rec telemetry.Recorder = reg
	var cp *checkpoint.Checkpointer
	if w.durable {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if jr, err = journal.Create(jPath); err != nil {
			return nil, err
		}
		defer jr.Close()
		jr.RunStart("serd", spec.seed, map[string]string{
			"in": spec.realDir, "out": outDir,
			"size_a": strconv.Itoa(w.outA), "size_b": strconv.Itoa(w.outB),
			"no_reject": strconv.FormatBool(w.noReject), "s3_blocked": strconv.FormatBool(w.blocked),
			"s1_generator": inner.Describe(),
		})
		if err := jr.Lineage("input", spec.realDir); err != nil {
			return nil, err
		}
		rec = journal.Instrument(jr, reg)
	}
	ledger := journal.NewLedger(jr)
	var bus *telemetry.Bus
	var spans *busLog
	if spec.traced {
		// Large enough that the drain never falls a lap behind.
		bus = telemetry.NewBus(1 << 20)
		spans = startBusLog(bus)
	}
	rec = trace.Wrap(trace.New(bus), rec)
	if w.durable {
		cp, err = checkpoint.New(checkpoint.Config{Dir: filepath.Join(spec.runDir, "ckpt"), Every: checkpointEvery, Tool: "serd", Seed: spec.seed, Journal: jr})
		if err != nil {
			return nil, err
		}
		cp.Metrics = rec
	}

	// Offline phase: load the real inputs, build the string synthesizers;
	// the generator's Fit joins it below.
	t0, st0 := time.Now(), stolenTime()
	real, err := dataset.LoadDir(spec.realDir, schema)
	if err != nil {
		return nil, err
	}
	layers["dataset.load_s"] = time.Since(t0).Seconds()
	tBuild := time.Now()
	// Timing decorators a traced run wraps around the program's public
	// interfaces: string synthesis, and blocking in S1 and S3.
	var synthLog, s1Log, s3Log spanLog
	synths := make(map[string]textsynth.Synthesizer)
	for _, col := range schema.Cols {
		if col.Kind != dataset.Textual {
			continue
		}
		corpus, err := readLines(filepath.Join(spec.realDir, "background_"+col.Name+".txt"))
		if err != nil {
			return nil, err
		}
		rs, err := textsynth.NewRuleSynthesizer(col.Sim, corpus)
		if err != nil {
			return nil, err
		}
		synths[col.Name] = rs
		if spec.traced {
			synths[col.Name] = timedSynth{inner: rs, log: &synthLog}
		}
	}
	layers["textsynth.build_s"] = time.Since(tBuild).Seconds()
	setupPre, setupPreStolen := time.Since(t0), stolenTime()-st0

	gen := &timedGenerator{Generator: inner}
	opts := core.Options{
		SizeA:            w.outA,
		SizeB:            w.outB,
		Synthesizers:     synths,
		DisableRejection: w.noReject,
		Generator:        gen,
		Privacy:          ledger,
		Metrics:          rec,
		Journal:          jr,
		Checkpoint:       cp,
		Seed:             spec.seed,
		Workers:          w.workers,
	}
	if spec.traced {
		// The explicit default blocker mines the same hard negatives.
		opts.Learn.Blocker = timedBlocker{inner: generator.DefaultBlocker(schema), log: &s1Log}
	}
	if w.blocked {
		b, err := (&config.Blocking{Blocker: "union"}).Build(schema)
		if err != nil {
			return nil, err
		}
		opts.S3Blocker = b
		if spec.traced {
			opts.S3Blocker = timedBlocker{inner: b, log: &s3Log}
		}
	}
	sw, err := dataset.NewStreamWriter(outDir, schema)
	if err != nil {
		return nil, err
	}
	opts.Stream = sw

	// Online phase: everything in Synthesize but the S1 fit, plus the
	// output's finalize. Timed by this process's clocks only.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, sS, tS := cpuTime(), stolenTime(), time.Now()
	out, err := core.Synthesize(context.Background(), real, opts)
	if err != nil {
		sw.Abort()
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	tFin := time.Now()
	if err := sw.Finalize(); err != nil {
		return nil, err
	}
	tE, sE, c1 := time.Now(), stolenTime(), cpuTime()
	runtime.ReadMemStats(&ms1)
	if rss, ok := telemetry.ReadPeakRSS(); ok {
		res.RSSMB = float64(rss) / (1 << 20)
	}
	// Both phases are reported without the time the hypervisor gave
	// other guests; the layer shares below divide raw wall by raw wall.
	setupWall := setupPre + gen.wall
	res.SetupS = (setupWall - setupPreStolen - gen.stolen).Seconds()
	onlineWall := tE.Sub(tS) - gen.wall
	onlineStolen := sE - sS - gen.stolen
	res.OnlineS = (onlineWall - onlineStolen).Seconds()
	layers["host.steal_pct"] = 100 * onlineStolen.Seconds() / onlineWall.Seconds()
	res.CPUS = (c1 - c0 - gen.cpu).Seconds()
	res.Entities = out.Syn.A.Len() + out.Syn.B.Len()
	layers["dataset.finalize_s"] = tE.Sub(tFin).Seconds()
	layers["generator.fit_s"] = gen.wall.Seconds()
	layers["go.alloc_mb_per_entity"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(res.Entities)
	layers["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	layers["go.gc_cpu_fraction"] = ms1.GCCPUFraction

	// Output checks, outside both timed phases.
	check := func(err error) {
		if err != nil && res.Error == "" {
			res.Error = err.Error()
		}
	}
	syn, err := checkOutput(outDir, schema, w, out.Syn)
	check(err)
	_, sha, err := journal.HashDataset(outDir)
	check(err)
	res.SHA = sha
	layers["dataset.out_bytes"] = dirBytes(outDir, "A.csv", "B.csv", "matches.csv")
	if w.durable {
		tV := time.Now()
		check(verifyJournal(jr, jPath, outDir, w.epsilon))
		layers["journal.verify_s"] = time.Since(tV).Seconds()
		layers["journal.bytes"] = dirBytes(outDir, journal.DefaultName)
		layers["journal.events"] = float64(countLines(jPath))
		layers["checkpoint.bytes"] = dirBytes(filepath.Join(spec.runDir, "ckpt"), "s1.ckpt", "s2.ckpt")
	} else {
		for _, k := range []string{"journal.verify_s", "journal.bytes", "journal.events", "checkpoint.bytes"} {
			layers[k] = 0
		}
	}

	if spec.traced {
		logs := spans.Close()
		if spans.dropped > 0 {
			check(fmt.Errorf("trace bus dropped %d events", spans.dropped))
		}
		check(replayS1(layers, real, w, spec.seed))
		logs["textsynth"], logs["blocking.s1"], logs["blocking.s3"] = &synthLog, &s1Log, &s3Log
		tracedLayers(layers, reg, logs, w, out.Syn, onlineWall.Seconds(), setupWall.Seconds())
	}
	if spec.quality && syn != nil {
		res.Quality = quality(real, syn, out.OReal, spec.seed)
	}
	return res, nil
}

// checkOutput re-loads the streamed output and checks its table sizes and
// match references against the in-memory result.
func checkOutput(dir string, schema *dataset.Schema, w workload, want *dataset.ER) (*dataset.ER, error) {
	syn, err := dataset.LoadDir(dir, schema)
	if err != nil {
		return nil, fmt.Errorf("reloading output: %w", err)
	}
	if syn.A.Len() != w.outA || syn.B.Len() != w.outB {
		return syn, fmt.Errorf("output sizes %d/%d, want %d/%d", syn.A.Len(), syn.B.Len(), w.outA, w.outB)
	}
	if len(syn.Matches) != len(want.Matches) {
		return syn, fmt.Errorf("output has %d matches, synthesis produced %d", len(syn.Matches), len(want.Matches))
	}
	for i, p := range syn.Matches {
		if p != want.Matches[i] {
			return syn, fmt.Errorf("match %d references (%d,%d), synthesis produced (%d,%d)", i, p.A, p.B, want.Matches[i].A, want.Matches[i].B)
		}
	}
	return syn, nil
}

// verifyJournal closes the run's journal the way cmd/serd does and audits
// it: hash chain, output lineage, and ε recomputed from the recorded
// mechanism parameters, which must also equal the configured budget.
func verifyJournal(jr *journal.Journal, path, outDir string, epsilon float64) error {
	if err := jr.Lineage("output", outDir); err != nil {
		return err
	}
	status, _ := pipeline.TerminalStatus(nil)
	jr.RunEnd(status, "", nil, 0)
	if err := jr.Close(); err != nil {
		return err
	}
	v, err := journal.Verify(path, "")
	if err != nil {
		return err
	}
	if !v.OK() || !v.ChainOK || !v.LineageOK || !v.LineageChecked || !v.EpsilonOK {
		return fmt.Errorf("journal verify: %s", strings.Join(v.Problems, "; "))
	}
	if math.Abs(v.RecomputedEpsilon-epsilon) > journal.EpsilonTolerance {
		return fmt.Errorf("journal verify: recomputed ε=%.12g, configured %g", v.RecomputedEpsilon, epsilon)
	}
	return nil
}

// tracedLayers derives the per-layer metrics of a traced run from the
// registry and the logged spans: the trace's, by span name, and the
// decorators', under "textsynth", "blocking.s1" and "blocking.s3". online
// and setup are the phases' wall times, the bases of the layer shares.
func tracedLayers(layers map[string]float64, reg *telemetry.Registry, logs map[string]*spanLog,
	w workload, syn *dataset.ER, online, setup float64) {
	log := func(name string) *spanLog {
		if l := logs[name]; l != nil {
			return l
		}
		return &spanLog{}
	}
	snap := reg.Snapshot()
	phase := func(name string) float64 { return snap.Phases[name].TotalSeconds }

	synth := log("textsynth")
	layers["textsynth.calls"] = float64(synth.count())
	layers["textsynth.synthesize_s"] = synth.wallSeconds()
	layers["textsynth.us_per_call"] = 0
	if n := synth.count(); n > 0 {
		layers["textsynth.us_per_call"] = synth.busySeconds() / float64(n) * 1e6
	}
	layers["blocking.s1_candidates"] = float64(log("blocking.s1").items)
	layers["blocking.s1_candidates_s"] = log("blocking.s1").wallSeconds()
	layers["blocking.candidates_s"] = log("blocking.s3").wallSeconds()

	// S2: self time is the stage's span minus the named steps inside it.
	s2 := log("core.s2").merged()
	var s2lo, s2hi int64
	if len(s2) > 0 {
		s2lo, s2hi = s2[0].lo, s2[len(s2)-1].hi
	}
	var steps []interval
	for _, l := range []*spanLog{synth, log("gmm.jsd.chunk"), log("core.s2.delta.chunk"), log("checkpoint.save")} {
		steps = append(steps, l.merged()...)
	}
	s2Steps := length(clip(union(steps), s2lo, s2hi))
	layers["core.s2_s"] = phase("core.s2")
	layers["core.s2.self_s"] = length(s2) - s2Steps
	layers["core.s2.delta_s"] = log("core.s2.delta.chunk").wallSeconds()
	attempts := snap.Counters["core.s2.attempts"]
	accepted := snap.Counters["core.s2.accepted"]
	layers["core.s2.attempts"] = attempts
	layers["core.s2.accepted"] = accepted
	layers["core.s2.rejected"] = snap.Counters["core.s2.rejected.distribution"] + snap.Counters["core.s2.rejected.discriminator"]
	layers["core.s2.accept_ratio"] = 0
	if attempts > 0 {
		layers["core.s2.accept_ratio"] = accepted / attempts
	}
	layers["core.s2.fit_failed"] = snap.Counters["core.s2.fit_failed"]
	layers["gmm.jsd_s"] = log("gmm.jsd.chunk").wallSeconds()
	layers["gmm.jsd.calls"] = float64(log("gmm.jsd.chunk").first)

	// S3: the pairs labeling considered — the blocker's candidates, or
	// the whole pair space.
	layers["core.s3_s"] = phase("core.s3")
	pairs := float64(syn.A.Len()) * float64(syn.B.Len())
	layers["core.s3.reduction_ratio"] = 0
	layers["core.s3.recall_bound"] = 1
	if w.blocked {
		pairs = snap.Gauges["core.s3.candidates"]
		layers["core.s3.reduction_ratio"] = snap.Gauges["core.s3.reduction_ratio"]
		layers["core.s3.recall_bound"] = snap.Gauges["core.s3.recall_bound"]
	}
	layers["core.s3.pairs_scored"] = pairs
	matches := snap.Gauges["core.s3.matches"]
	layers["core.s3.matches"] = matches
	layers["core.s3.match_yield"] = 0
	if pairs > 0 {
		layers["core.s3.match_yield"] = (matches - snap.Counters["core.s2.sampled_matches"]) / pairs
	}

	layers["checkpoint.saves"] = snap.Counters["checkpoint.saves"]
	layers["checkpoint.save_s"] = phase("checkpoint.save")

	// Pool utilization: chunk busy time over the regions' merged wall
	// time and the pool's width.
	for _, p := range []string{"core.s2.delta", "gmm.jsd", "gmm.em.estep", "core.s3.label"} {
		l := log(p + ".chunk")
		u := 0.0
		if wall := l.wallSeconds(); wall > 0 {
			u = l.busySeconds() / wall / float64(w.workers)
		}
		layers["parallel.utilization."+p] = u
	}

	// Layer mix: shares of the online wall and of setup.
	share := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * part / whole
	}
	layers["mix.online.textsynth_pct"] = share(layers["textsynth.synthesize_s"], online)
	layers["mix.online.jsd_pct"] = share(layers["gmm.jsd_s"], online)
	layers["mix.online.delta_pct"] = share(layers["core.s2.delta_s"], online)
	layers["mix.online.s3_pct"] = share(layers["core.s3_s"], online)
	layers["mix.online.checkpoint_pct"] = share(layers["checkpoint.save_s"], online)
	layers["mix.setup.fit_pct"] = share(layers["generator.fit_s"], setup)
	layers["mix.setup.vectors_pct"] = share(layers["generator.vectors_s"], setup)
	layers["mix.setup.em_pct"] = share(layers["gmm.em_s"], setup)
}

// replayS1 re-runs S1's pure steps on the real inputs with the run's own
// S1 random stream, to split the fit into learning vectors and EM.
func replayS1(layers map[string]float64, real *dataset.ER, w workload, seed int64) error {
	fit := generator.FitOptions{Rand: rand.New(rand.NewSource(seed + 1))}.WithDefaults(len(real.Matches))
	t0 := time.Now()
	xp, xn, err := generator.LearningVectors(real, fit)
	if err != nil {
		return fmt.Errorf("replaying S1 vectors: %w", err)
	}
	layers["generator.vectors_s"] = time.Since(t0).Seconds()
	layers["generator.x_pos"] = float64(len(xp))
	layers["generator.x_neg"] = float64(len(xn))
	layers["gmm.em_s"], layers["gmm.em.iterations"], layers["gmm.em.fits"] = 0, 0, 0
	if w.privbayes {
		return nil // privbayes fits noisy marginals; no EM in its S1
	}
	reg := telemetry.NewRegistry()
	em := gmm.FitOptions{Rand: fit.Rand, Metrics: reg, Pool: parallel.New(w.workers, nil)}
	t1 := time.Now()
	for _, xs := range [][][]float64{xp, xn} {
		if _, err := gmm.FitAIC(context.Background(), xs, fit.MaxComponents, em); err != nil {
			return fmt.Errorf("replaying S1 EM: %w", err)
		}
	}
	layers["gmm.em_s"] = time.Since(t1).Seconds()
	layers["gmm.em.iterations"] = reg.Counter("gmm.em.iterations")
	layers["gmm.em.fits"] = reg.Counter("gmm.em.fits")
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the named files in dir; missing files count 0.
func dirBytes(dir string, names ...string) float64 {
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			n += fi.Size()
		}
	}
	return float64(n)
}

func countLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n")
}
