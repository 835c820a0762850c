package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"serd"
	"serd/internal/checkpoint"
	"serd/internal/config"
	"serd/internal/journal"
	"serd/internal/runstore"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// synthConfig carries the parsed flags and the run's wiring (journal,
// ledger, checkpointer, resume snapshot) into the pipeline body so the
// journal's terminal-status accounting in run can wrap it.
type synthConfig struct {
	flags       *config.Serd
	schema      *serd.Schema
	journalPath string
	jr          *journal.Journal
	ledger      *journal.Ledger
	start       time.Time
	cp          *checkpoint.Checkpointer
	snap        *checkpoint.Snapshot
	openPhases  map[string]int
	// store/live wire the run registry: store mounts /runs on the live
	// inspector, live carries the in-flight status the dashboard shows.
	// Both may be nil (registry off).
	store *runstore.Store
	live  *runstore.LiveRun
}

// synth runs the pipeline proper: transformer-bank training (or the rule
// synthesizer), core synthesis, dataset/report output and the optional
// privacy audit. ctx cancels it cooperatively at the next
// minibatch/chunk/iteration boundary. The returned RuntimeStats are the
// sampler's final accounting, valid on the error path too so failed runs
// still register their resource profile.
func synth(ctx context.Context, cfg synthConfig, real *serd.ER, stdout io.Writer) (rtStats telemetry.RuntimeStats, err error) {
	flags := cfg.flags
	// The registry feeds the live inspector and the run report; it stays
	// on even without -metrics-addr so the report is always complete. The
	// journal taps the same stream for phase boundaries and ε checkpoints.
	reg := serd.NewMetricsRegistry()
	rec := journal.Instrument(cfg.jr, reg)
	if cfg.openPhases != nil {
		// Resumed run: phases left open in the journal prefix would emit a
		// duplicate phase_start when re-entered; suppress those (the ends
		// still journal, restoring balanced pairs across the seam).
		rec = journal.InstrumentResumed(cfg.jr, reg, cfg.openPhases)
	}

	// Tracing arms when there is a consumer: a -trace file, or a live
	// inspector whose /events stream wants span events. The tracer wraps
	// the recorder chain OUTERMOST so every downstream package can recover
	// it via trace.FromRecorder; disarmed, rec is returned unchanged and
	// the hot loops pay nothing.
	var bus *telemetry.Bus
	if flags.TracePath != "" || flags.MetricsAddr != "" {
		bus = telemetry.NewBus(0)
	}
	rec = trace.Wrap(trace.New(bus), rec)
	if cfg.cp != nil {
		cfg.cp.Metrics = rec
	}

	// The runtime sampler always runs: its gauges cost a goroutine and a
	// 250ms tick, and the run report gains the peak-RSS / GC-pause axis the
	// bench trajectory tracks. It observes only the Go runtime — never the
	// synthesis state — so it cannot perturb outputs.
	sampler := telemetry.StartSampler(reg, bus, 0)
	defer func() {
		// Stop is idempotent; this fills the named return on every exit
		// path (the happy path below already stopped it for the report).
		rtStats = sampler.Stop()
	}()

	if flags.MetricsAddr != "" {
		// The run registry rides the inspector's listener: /runs lists the
		// store's history with this run pinned live at the top.
		var extra map[string]http.Handler
		if cfg.store != nil {
			extra = map[string]http.Handler{"/runs/": runstore.Handler(cfg.store, cfg.live)}
		}
		srv, err := telemetry.ServeWithExtra(flags.MetricsAddr, reg, bus, extra)
		if err != nil {
			return rtStats, fmt.Errorf("metrics server: %w", err)
		}
		defer func() {
			// Graceful drain on every exit path (including the signal
			// path, which cancels ctx and unwinds through here): attached
			// /events clients receive a terminal shutdown event.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort drain at exit
		}()
		endpoints := "metrics.json, metrics, events, debug/pprof"
		if cfg.store != nil {
			endpoints += ", runs"
		}
		fmt.Fprintf(stdout, "metrics: http://%s/ (%s)\n", srv.Addr(), endpoints)
		testHookServing(srv.Addr())
	}

	if flags.TracePath != "" {
		hdr := trace.Header{
			Tool:    "serd",
			Dataset: filepath.Base(filepath.Clean(flags.In)),
			Seed:    flags.Seed,
			StartNS: cfg.start.UnixNano(),
		}
		if cfg.jr != nil {
			// The journal seam at trace start keys the trace to the run's
			// provenance record without adding any journal event.
			_, chain, _ := cfg.jr.Seam()
			hdr.RunID = chain
		}
		exp, err := trace.NewExporter(bus, flags.TracePath, hdr)
		if err != nil {
			return rtStats, err
		}
		defer func() {
			if err := exp.Close(); err != nil {
				fmt.Fprintln(stdout, "trace:", err)
				return
			}
			fmt.Fprintf(stdout, "trace -> %s\n", flags.TracePath)
		}()
	}

	synths := make(map[string]serd.Synthesizer)
	for _, col := range cfg.schema.Cols {
		if col.Kind != serd.Textual {
			continue
		}
		corpus, err := readLines(filepath.Join(flags.In, "background_"+col.Name+".txt"))
		if err != nil {
			return rtStats, fmt.Errorf("textual column %q needs a background corpus: %w", col.Name, err)
		}
		if flags.Transformer {
			txOpts := serd.TransformerOptions{
				Buckets:        flags.TxBuckets,
				PairsPerBucket: flags.TxPairs,
				Epochs:         flags.TxEpochs,
				BatchSize:      flags.TxBatch,
				Candidates:     flags.TxCandidates,
				DP:             &serd.DPOptions{ClipNorm: flags.DPClip, Noise: flags.DPNoise, Delta: flags.DPDelta},
				Metrics:        rec,
				Privacy:        cfg.ledger,
				Checkpoint:     cfg.cp,
				Column:         col.Name,
				Seed:           flags.Seed,
			}
			if cfg.snap != nil {
				if f := cfg.snap.Trains[col.Name]; f != nil {
					txOpts.Resume = f.Train
				}
			}
			ts, err := serd.TrainTransformerContext(ctx, corpus, col.Sim, txOpts)
			if err != nil {
				return rtStats, fmt.Errorf("training transformer bank for column %q: %w", col.Name, err)
			}
			if cfg.cp != nil && (txOpts.Resume == nil || !txOpts.Resume.Done) {
				// Terminal per-column checkpoint: a crash in any later
				// phase resumes without retraining this bank.
				if err := cfg.cp.SaveTrain(ts.CheckpointState(col.Name)); err != nil {
					return rtStats, err
				}
			}
			fmt.Fprintf(stdout, "transformer bank for %q trained (ε=%.4f at δ=%g)\n", col.Name, ts.Epsilon(), flags.DPDelta)
			synths[col.Name] = ts
			continue
		}
		rs, err := serd.NewRuleSynthesizer(col.Sim, corpus)
		if err != nil {
			return rtStats, err
		}
		synths[col.Name] = rs
	}

	blocker, err := flags.Blocking.Build(cfg.schema)
	if err != nil {
		return rtStats, err
	}
	if blocker != nil {
		fmt.Fprintf(stdout, "S3 blocking: %s\n", blocker.Describe())
	}

	gen, err := flags.Generators.Build()
	if err != nil {
		return rtStats, err
	}

	opts := serd.Options{
		SizeA:            flags.SizeA,
		SizeB:            flags.SizeB,
		Synthesizers:     synths,
		DisableRejection: flags.NoReject,
		S3Blocker:        blocker,
		Generator:        gen,
		// The ledger always rides along: the GMM backend never touches it,
		// DP backends (privbayes) charge their fit through it.
		Privacy:       cfg.ledger,
		S3RecallFloor: flags.Blocking.RecallFloor,
		Metrics:       rec,
		Journal:       cfg.jr,
		Checkpoint:    cfg.cp,
		Seed:          flags.Seed,
		// Workers is an execution parameter, not a run parameter: it is
		// deliberately absent from the journaled RunStart config so runs at
		// different worker counts produce identical journals.
		Workers: flags.Workers,
	}
	if cfg.snap != nil {
		// The later checkpoint wins: a mid-S2 state subsumes the post-S1
		// one. (A crash during training leaves neither, and core starts
		// fresh — the trained banks above were restored from their own
		// checkpoints.)
		switch {
		case cfg.snap.S2 != nil:
			opts.Resume = &checkpoint.CoreState{S2: cfg.snap.S2.S2}
		case cfg.snap.S1 != nil:
			opts.Resume = &checkpoint.CoreState{S1: cfg.snap.S1.S1}
		}
	}
	if flags.Progress {
		opts.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(stdout, "\rsynthesized %d/%d entities", done, total)
				if done == total {
					fmt.Fprintln(stdout)
				}
			}
		}
	}
	if flags.LoadDist != "" {
		f, err := os.Open(flags.LoadDist)
		if err != nil {
			return rtStats, err
		}
		opts.Learned, err = serd.LoadDistributions(f)
		f.Close()
		if err != nil {
			return rtStats, err
		}
		fmt.Fprintf(stdout, "reusing O-distribution from %s\n", flags.LoadDist)
	} else {
		fmt.Fprintf(stdout, "S1 generator: %s\n", gen.Describe())
	}
	// The output streams during S2 instead of materializing a second copy
	// at the end: rows accumulate in temp files under -out and an atomic
	// finalize publishes them only after synthesis succeeds, so a crashed
	// or cancelled run never leaves a torn dataset behind.
	sw, err := serd.NewStreamWriter(flags.Out, cfg.schema)
	if err != nil {
		return rtStats, err
	}
	opts.Stream = sw
	res, err := serd.SynthesizeContext(ctx, real, opts)
	if err != nil {
		sw.Abort()
		return rtStats, err
	}
	if err := sw.Finalize(); err != nil {
		return rtStats, err
	}
	if flags.SaveDist != "" {
		// The JSON distribution format is the GMM joint's; config
		// validation refuses -save-dist with any other backend.
		joint, ok := res.OReal.(*serd.Joint)
		if !ok {
			return rtStats, fmt.Errorf("-save-dist: O_real is a %T, not a GMM joint", res.OReal)
		}
		f, err := os.Create(flags.SaveDist)
		if err != nil {
			return rtStats, err
		}
		if err := serd.SaveDistributions(f, joint); err != nil {
			f.Close()
			return rtStats, err
		}
		if err := f.Close(); err != nil {
			return rtStats, err
		}
		fmt.Fprintf(stdout, "saved O-distribution to %s\n", flags.SaveDist)
	}
	if cfg.jr != nil {
		if err := cfg.jr.Lineage("output", flags.Out); err != nil {
			return rtStats, err
		}
	}
	fmt.Fprintf(stdout, "synthesized %+v -> %s\n", res.Syn.Stats(), flags.Out)
	fmt.Fprintf(stdout, "JSD(O_syn, O_real)=%.4f  sampled matches=%d  rejected: %d by distribution, %d by discriminator\n",
		res.JSD, res.SampledMatches, res.RejectedByDistribution, res.RejectedByDiscriminator)

	if flags.Audit {
		if err := privacyAudit(cfg, real, res.Syn, stdout); err != nil {
			return rtStats, err
		}
	}

	epsTotal, deltaTotal := cfg.ledger.Finish()
	if len(cfg.ledger.Entries()) > 0 {
		fmt.Fprintf(stdout, "privacy ledger: composed ε=%.4f δ=%.2g over %d charges\n",
			epsTotal, deltaTotal, len(cfg.ledger.Entries()))
	}

	if !flags.NoReport {
		path := flags.ReportPath
		if path == "" {
			path = filepath.Join(flags.Out, "run_report.json")
		}
		// Final sample before the snapshot so the report's gauges and
		// Runtime block agree (also the named return the registry records).
		rtStats = sampler.Stop()
		rep := &serd.RunReport{
			Tool:        "serd",
			Dataset:     filepath.Base(filepath.Clean(flags.In)),
			Seed:        flags.Seed,
			Start:       cfg.start,
			WallSeconds: time.Since(cfg.start).Seconds(),
			Summary: map[string]float64{
				"jsd":                       res.JSD,
				"entities":                  float64(res.Syn.A.Len() + res.Syn.B.Len()),
				"matches":                   float64(len(res.Syn.Matches)),
				"sampled_matches":           float64(res.SampledMatches),
				"rejected_by_distribution":  float64(res.RejectedByDistribution),
				"rejected_by_discriminator": float64(res.RejectedByDiscriminator),
			},
			Metrics: reg.Snapshot(),
			Runtime: &rtStats,
			Trace:   flags.TracePath,
		}
		if cfg.jr != nil {
			rep.Journal = cfg.journalPath
		}
		if len(cfg.ledger.Entries()) > 0 {
			rep.Privacy = cfg.ledger.Summary()
		}
		if err := serd.WriteRunReport(path, rep); err != nil {
			return rtStats, fmt.Errorf("run report: %w", err)
		}
		fmt.Fprintf(stdout, "run report -> %s\n", path)
	}
	return rtStats, nil
}

// privacyAudit computes the Table III privacy metrics over the run's real
// and synthesized datasets. With -audit-epsilon, each metric is released
// through the Laplace mechanism (ε/3 each, unit sensitivity assumed over
// the subsampled evaluation — an illustrative ledgered release, not a
// tight bound) and charged to the privacy ledger first, so budget
// enforcement applies before the noisy values are computed.
func privacyAudit(cfg synthConfig, real, syn *serd.ER, stdout io.Writer) error {
	r := rand.New(rand.NewSource(cfg.flags.Seed))
	hr, err := serd.HittingRate(real, syn, 0.9, r)
	if err != nil {
		return err
	}
	dcr, err := serd.DCR(real, syn, r)
	if err != nil {
		return err
	}
	nndr, err := serd.NNDR(real, syn, r)
	if err != nil {
		return err
	}
	if cfg.flags.AuditEpsilon > 0 {
		each := cfg.flags.AuditEpsilon / 3
		noise := rand.New(rand.NewSource(cfg.flags.Seed + 101))
		for _, m := range []struct {
			label string
			value *float64
		}{
			{"privacy_audit.hitting_rate", &hr},
			{"privacy_audit.dcr", &dcr},
			{"privacy_audit.nndr", &nndr},
		} {
			if err := cfg.ledger.ChargeLaplace(m.label, each); err != nil {
				return err
			}
			*m.value = serd.LaplaceRelease(*m.value, 1, each, noise)
		}
		fmt.Fprintf(stdout, "privacy audit (ε=%g Laplace): hitting rate=%.3f%%  DCR=%.3f  NNDR=%.3f\n", cfg.flags.AuditEpsilon, hr, dcr, nndr)
		return nil
	}
	fmt.Fprintf(stdout, "privacy audit: hitting rate=%.3f%%  DCR=%.3f  NNDR=%.3f\n", hr, dcr, nndr)
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
